"""Wire-contract tests: request validation and the value codec."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.hmc.config import CONFIGS
from repro.serve import schemas


def _req(**doc):
    base = {"v": schemas.PROTOCOL_VERSION, "id": "r1"}
    base.update(doc)
    return json.dumps(base)


class TestParseRequest:
    def test_hello(self):
        req = schemas.parse_request(_req(type="hello"))
        assert req.type == "hello"
        assert req.id == "r1"

    def test_malformed_json(self):
        with pytest.raises(ServeError) as exc:
            schemas.parse_request("{not json")
        assert exc.value.code == "bad_request"

    def test_non_object(self):
        with pytest.raises(ServeError) as exc:
            schemas.parse_request("[1, 2]")
        assert exc.value.code == "bad_request"

    def test_decoded_object_is_not_parsed_again(self):
        # The server decodes a line once (to fish out the id for error
        # replies) and validates that object.
        doc = schemas.decode_request(_req(type="stat", session="s"))
        assert doc["id"] == "r1"
        req = schemas.parse_request(doc)
        assert (req.type, req.id, req.session) == ("stat", "r1", "s")

    def test_size_limit_is_checked_before_the_parse(self, monkeypatch):
        monkeypatch.setattr(schemas, "_MAX_LINE", 8)
        with pytest.raises(ServeError) as exc:
            schemas.decode_request("{not json, and too long")
        assert "exceeds" in str(exc.value)

    def test_wrong_protocol_version(self):
        doc = json.dumps({"v": 99, "id": "r1", "type": "hello"})
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(doc)
        assert exc.value.code == "protocol_version"

    def test_unknown_type(self):
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(_req(type="reboot"))
        assert exc.value.code == "bad_request"
        assert "reboot" in str(exc.value)

    def test_missing_id(self):
        doc = json.dumps({"v": schemas.PROTOCOL_VERSION, "type": "hello"})
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(doc)
        assert exc.value.code == "bad_request"

    def test_create_defaults(self):
        req = schemas.parse_request(_req(type="create"))
        assert req.config == "4link_4gb"
        assert req.components == {}
        assert req.session is None

    def test_create_unknown_config(self):
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(_req(type="create", config="16link"))
        assert exc.value.code == "bad_request"

    def test_create_bad_components(self):
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(
                _req(type="create", components={"xbar": 3})
            )
        assert exc.value.code == "bad_request"

    @pytest.mark.parametrize("name", ["", "a" * 65, "has space", "dot.dot"])
    def test_create_bad_session_name(self, name):
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(_req(type="create", session=name))
        assert exc.value.code == "bad_request"

    def test_create_good_session_name(self):
        req = schemas.parse_request(_req(type="create", session="run_01-a"))
        assert req.session == "run_01-a"

    def test_submit(self):
        req = schemas.parse_request(
            _req(
                type="submit", session="s", kind="workload",
                spec={"workload": "mutex"}, wait=True,
            )
        )
        assert req.kind == "workload"
        assert req.wait is True
        assert req.spec == {"workload": "mutex"}

    def test_submit_unknown_kind(self):
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(
                _req(type="submit", session="s", kind="magic", spec={})
            )
        assert exc.value.code == "bad_request"

    def test_submit_requires_session(self):
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(
                _req(type="submit", kind="workload", spec={})
            )
        assert exc.value.code == "bad_request"

    def test_oversize_line(self):
        doc = _req(type="hello", pad="x" * (schemas._MAX_LINE + 1))
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(doc)
        assert exc.value.code == "bad_request"

    @pytest.mark.parametrize("name", ["é٣", "１", "a\n", "ｓｅｓｓｉｏｎ"])
    def test_create_refuses_non_ascii_alnum(self, name):
        # str.isalnum() admits these; the documented set is [A-Za-z0-9_-].
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(_req(type="create", session=name))
        assert exc.value.code == "bad_request"

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "submit", "session": "s", "kind": "workload", "spec": {}, "key": "wait"},
            {"type": "attach", "session": "s", "key": "replay"},
        ],
        ids=["wait", "replay"],
    )
    def test_flags_are_json_booleans(self, doc, value):
        # bool("false") is True: a string flag used to mean its opposite.
        fields = dict(doc)
        fields[fields.pop("key")] = value
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(_req(**fields))
        assert exc.value.code == "bad_request"

    @pytest.mark.parametrize("version", [True, 1.0, "1", [1]])
    def test_version_must_be_the_integer(self, version):
        # True == 1 and 1.0 == 1 used to pass the equality check.
        doc = json.dumps({"v": version, "id": "r1", "type": "hello"})
        with pytest.raises(ServeError) as exc:
            schemas.parse_request(doc)
        assert exc.value.code == "protocol_version"


#: Every key the parser reads, so generated objects reach every branch.
_KEYS = ("v", "id", "type", "session", "config", "components", "kind", "spec", "wait", "replay")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
#: Values a valid request would carry, mixed in so parses also succeed.
_PLAUSIBLE = {
    "v": st.sampled_from([schemas.PROTOCOL_VERSION, True, 1.0]),
    "id": st.text(max_size=4),
    "type": st.sampled_from(schemas.REQUEST_TYPES),
    "session": st.text(alphabet="ab_-é１٣\n ", max_size=6) | st.text(max_size=66),
    "config": st.sampled_from(sorted(CONFIGS)),
    "components": st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2),
    "kind": st.sampled_from(schemas.SUBMISSION_KINDS),
    "spec": st.dictionaries(st.text(max_size=4), _JSON, max_size=2),
    "wait": st.booleans() | st.sampled_from(["false", 0]),
    "replay": st.booleans() | st.sampled_from(["true", 1]),
}
_ANY_VALUE = {key: _PLAUSIBLE[key] | _JSON for key in _KEYS}
#: Half the objects carry a well-formed envelope, so most reach the
#: per-type branches instead of stopping at the version check.
_REQUEST_OBJECTS = st.fixed_dictionaries({}, optional=_ANY_VALUE) | st.fixed_dictionaries(
    {key: _PLAUSIBLE[key] for key in ("v", "id", "type")},
    optional={key: _ANY_VALUE[key] for key in _KEYS[3:]},
)


def _parse_or_refuse(line: str):
    """decode + parse: a Request, or a refusal with a wire error code."""
    try:
        return schemas.parse_request(schemas.decode_request(line))
    except ServeError as exc:
        assert exc.code in ("bad_request", "protocol_version"), exc.code
        return None


def _check_object(doc) -> None:
    """What a parsed request may hold, given the object sent."""
    req = _parse_or_refuse(json.dumps(doc))
    if req is None:
        return
    assert type(doc["v"]) is int and req.type in schemas.REQUEST_TYPES
    if req.type == "submit":
        assert req.wait is doc.get("wait", False)
    if req.type == "attach":
        assert req.replay is doc.get("replay", True)
    if req.type == "create" and req.session is not None:
        assert re.fullmatch(r"[A-Za-z0-9_-]{1,64}", req.session), req.session


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text())
    @example("[" * 100_000)
    @example('{"v": 1, "id": "x", "type": "hello"}\n')
    def test_any_text_parses_or_is_refused(self, text):
        _parse_or_refuse(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=70))
    def test_any_create_name(self, name):
        _check_object({"v": 1, "id": "r", "type": "create", "session": name})

    @settings(max_examples=400, deadline=None)
    @given(_REQUEST_OBJECTS)
    @example({"v": True, "id": "r", "type": "hello"})
    @example({"v": 1, "id": "r", "type": "attach", "session": "s", "replay": "false"})
    def test_any_object_with_the_real_keys(self, doc):
        _check_object(doc)


@dataclass
class _Stats:
    name: str
    cycles: int
    per_thread: Tuple[int, ...]
    blob: bytes
    table: dict


class TestValueCodec:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert schemas.decode_value(schemas.encode_value(value)) == value

    def test_dataclass_roundtrip(self):
        stats = _Stats(
            name="mutex", cycles=120, per_thread=(3, 4, 5),
            blob=b"\x00\xff", table={2: 7.5, 4: 9.0},
        )
        doc = schemas.encode_value(stats)
        back = schemas.decode_value(doc)
        assert back == stats
        assert isinstance(back, _Stats)
        assert isinstance(back.per_thread, tuple)
        assert isinstance(back.blob, bytes)
        assert back.table[2] == 7.5  # int keys survive

    def test_encoding_is_deterministic(self):
        stats = _Stats("m", 1, (1,), b"z", {"b": 2, "a": 1})
        a = schemas.canonical_json(schemas.encode_value(stats))
        b = schemas.canonical_json(schemas.encode_value(stats))
        assert a == b

    def test_unencodable_value(self):
        with pytest.raises(ServeError) as exc:
            schemas.encode_value(object())
        assert exc.value.code == "internal"

    def test_real_stats_roundtrip(self):
        from repro.hmc.config import HMCConfig
        from repro.workloads.registry import WORKLOADS

        stats = WORKLOADS.get("mutex").run(HMCConfig.cfg_4link_4gb(), {"threads": 2})
        doc = json.loads(json.dumps(schemas.encode_value(stats)))
        assert schemas.decode_value(doc) == stats


class TestMessages:
    def test_ok_and_error_shapes(self):
        ok = schemas.ok_msg("r1", session="s")
        assert (ok["type"], ok["id"], ok["session"]) == ("ok", "r1", "s")
        err = schemas.error_msg("r2", "quota_exceeded", "nope")
        assert err["code"] == "quota_exceeded"
        assert err["v"] == schemas.PROTOCOL_VERSION

    def test_wire_roundtrip(self):
        msg = schemas.result_msg("s", 3, "workload", {"x": 1})
        line = schemas.encode_message(msg)
        assert line.endswith(b"\n")
        assert schemas.decode_message(line.decode()) == msg
