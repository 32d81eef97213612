"""Wire-contract tests: request validation and the value codec."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.errors import ServeError
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
