"""Wire schemas for the simulation service.

The serve protocol is **line-delimited JSON over a local socket**: each
message is one JSON object on one line, and every message carries the
protocol version (``v``).  Clients open with ``hello``; the server
answers every request exactly once (``ok`` or ``error``, matched by the
client-chosen ``id``) and additionally *streams* unsolicited messages —
``result`` when a submission completes, ``telemetry`` on session state
transitions — to the submitting connection and to anyone attached.

The shape follows SimBricks' symphony split (schemas / runner / client
as separate modules with the schema module owning the wire contract):
everything that crosses the socket is built and validated here, so the
server and client cannot drift apart silently.

Requests (client → server)::

    hello                                  capability handshake
    create   {config, components?, session?}   new warm session
    submit   {session, kind, spec, wait?}      enqueue work
    attach   {session, replay?}                subscribe to a session's stream
    stat     {session?}                        server or session snapshot
    close    {session}                         drain + checkpoint + close

Submission kinds::

    workload  {"workload": name, "params": {...}}   registry-resolved run
              on the session's warm simulator
    raw       {"requests": [{cmd, addr, data?, cub?, link?}, ...]}
              a fenced request stream; responses stream back
    sweep     {"workload": name, "threads": [...]}  fanned over the
              shared parallel pool + disk cache (fingerprint dedup)

The value codec (:func:`encode_value` / :func:`decode_value`, defined
in :mod:`repro.registry` and re-exported here) is the result-payload
contract: a lossless, canonical JSON encoding of the stats dataclasses
the workloads return, so "bit-identical to a direct run" is checkable
byte-for-byte on the canonical form.  The sweep cache stores the same
documents (``CACHE_SCHEMA`` 2), so a cached result and a served one are
one format.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.errors import ServeError
from repro.hmc.config import CONFIGS
from repro.registry import decode_value, encode_value

__all__ = [
    "PROTOCOL_VERSION",
    "SUBMISSION_KINDS",
    "ServeError",
    "Request",
    "decode_request",
    "parse_request",
    "encode_message",
    "decode_message",
    "ok_msg",
    "error_msg",
    "result_msg",
    "telemetry_msg",
    "event_msg",
    "encode_value",
    "decode_value",
    "canonical_json",
]

PROTOCOL_VERSION = 1

#: Request types the server understands.
REQUEST_TYPES = ("hello", "create", "submit", "attach", "stat", "close")

#: Submission kinds a session executes.
SUBMISSION_KINDS = ("workload", "raw", "sweep")

_MAX_LINE = 8 * 1024 * 1024  # one message may carry a whole result payload

_SESSION_NAME = re.compile(r"[A-Za-z0-9_-]{1,64}")


# -- request model -------------------------------------------------------------


@dataclass
class Request:
    """One validated client request."""

    type: str
    id: str
    session: Optional[str] = None
    #: create: configuration name.
    config: Optional[str] = None
    #: create: ``{seam: impl}`` component overrides.
    components: Dict[str, str] = field(default_factory=dict)
    #: submit: submission kind and kind-specific spec.
    kind: Optional[str] = None
    spec: Dict[str, Any] = field(default_factory=dict)
    #: submit: deliver the result on this connection when done.
    wait: bool = False
    #: attach: replay stored results before streaming live ones.
    replay: bool = True


def _require(doc: Dict[str, Any], key: str, types, what: str, default: Any = None) -> Any:
    value = doc.get(key, default)
    if not isinstance(value, types):
        raise ServeError(
            "bad_request",
            f"{what}: field {key!r} must be "
            f"{getattr(types, '__name__', types)}, got {value!r}",
        )
    return value


def decode_request(line: str) -> Dict[str, Any]:
    """One request line as a JSON object (size check first, one parse)."""
    if len(line) > _MAX_LINE:
        raise ServeError("bad_request", f"message exceeds {_MAX_LINE} bytes")
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:  # "[" * 10**5 recurses
        raise ServeError("bad_request", f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ServeError("bad_request", "message must be a JSON object")
    return doc


def parse_request(line: Union[str, Dict[str, Any]]) -> Request:
    """Validate one request — a wire line, or the object
    :func:`decode_request` made of it — into a :class:`Request`.

    Raises:
        ServeError: malformed JSON, an unsupported protocol version, an
            unknown request type, or missing/ill-typed fields — always
            with a machine-readable ``code``.
    """
    doc = decode_request(line) if isinstance(line, str) else line
    version = doc.get("v")
    # ``True == 1`` and ``1.0 == 1``: the version is an integer or wrong.
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise ServeError(
            "protocol_version",
            f"protocol version {version!r} is not supported "
            f"(this server speaks version {PROTOCOL_VERSION})",
        )
    rtype = doc.get("type")
    if rtype not in REQUEST_TYPES:
        raise ServeError(
            "bad_request",
            f"unknown request type {rtype!r} "
            f"(have: {', '.join(REQUEST_TYPES)})",
        )
    rid = _require(doc, "id", str, f"{rtype} request")
    req = Request(type=rtype, id=rid)

    if rtype in ("submit", "attach", "close"):
        req.session = _require(doc, "session", str, f"{rtype} request")
    elif rtype == "stat":
        session = doc.get("session")
        if session is not None and not isinstance(session, str):
            raise ServeError("bad_request", "stat: 'session' must be a string")
        req.session = session

    if rtype == "create":
        config = doc.get("config", "4link_4gb")
        if not isinstance(config, str) or config not in CONFIGS:
            raise ServeError(
                "bad_request",
                f"unknown config {config!r} (have: {', '.join(CONFIGS)})",
            )
        req.config = config
        components = doc.get("components", {})
        if not isinstance(components, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in components.items()
        ):
            raise ServeError(
                "bad_request", "create: 'components' must map seam to impl"
            )
        req.components = components
        session = doc.get("session")
        if session is not None:
            # Not str.isalnum(): it admits "é", "٣" and fullwidth digits.
            if not isinstance(session, str) or not _SESSION_NAME.fullmatch(session):
                raise ServeError(
                    "bad_request",
                    "create: 'session' must be 1-64 chars of [A-Za-z0-9_-]",
                )
            req.session = session

    if rtype == "submit":
        kind = doc.get("kind")
        if kind not in SUBMISSION_KINDS:
            raise ServeError(
                "bad_request",
                f"unknown submission kind {kind!r} "
                f"(have: {', '.join(SUBMISSION_KINDS)})",
            )
        req.kind = kind
        req.spec = _require(doc, "spec", dict, "submit request")
        # A JSON boolean: bool("false") would be True.
        req.wait = _require(doc, "wait", bool, "submit request", False)

    if rtype == "attach":
        req.replay = _require(doc, "replay", bool, "attach request", True)
    return req


# -- server → client messages --------------------------------------------------


def encode_message(msg: Dict[str, Any]) -> bytes:
    """One wire line (JSON + newline) for ``msg``."""
    return (json.dumps(msg, sort_keys=True) + "\n").encode("utf-8")


def decode_message(line: str) -> Dict[str, Any]:
    """Parse a server message line (client side)."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or "type" not in doc:
        raise ServeError("bad_request", f"malformed server message: {line!r}")
    return doc


def ok_msg(rid: str, **extra: Any) -> Dict[str, Any]:
    """The success reply to request ``rid``."""
    return {"v": PROTOCOL_VERSION, "type": "ok", "id": rid, **extra}


def error_msg(rid: Optional[str], code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """A structured refusal: machine-readable ``code`` plus prose."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "error",
        "id": rid,
        "code": code,
        "message": message,
        **extra,
    }


def result_msg(
    session: str, submission: int, kind: str, payload: Any, *,
    ok: bool = True, error: Optional[str] = None,
) -> Dict[str, Any]:
    """A completed submission's result (streamed, not a direct reply)."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "result",
        "session": session,
        "submission": submission,
        "kind": kind,
        "ok": ok,
        "error": error,
        "payload": payload,
    }


def telemetry_msg(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """A session snapshot (state, progress, cycles), streamed."""
    return {"v": PROTOCOL_VERSION, "type": "telemetry", **snapshot}


def event_msg(event: str, **extra: Any) -> Dict[str, Any]:
    """A server lifecycle event (e.g. ``draining``), streamed."""
    return {"v": PROTOCOL_VERSION, "type": "event", "event": event, **extra}


def canonical_json(value: Any) -> str:
    """The canonical (sorted, compact) JSON form — the byte-for-byte
    comparison target for "bit-identical to a direct run"."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
