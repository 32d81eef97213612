"""Layer tracing by attribute replacement, from outside ``src/``.

A :class:`Tracer` swaps a layer's public entry point (a module function
or a method on a class) for a timing wrapper and puts the original back
on :meth:`Tracer.restore`.  Module functions are also replaced wherever
``from x import f`` re-bound them, so callers that imported the name
before the patch are still timed.  A target that no longer exists is
recorded in :attr:`Tracer.missing` and skipped: a later PR that deletes
a layer must not break the benchmark.

Every boundary accumulates ``(calls, total_ns, self_ns)`` and, per
calling boundary, ``(calls, total_ns)``.  *Self* time is a call's
duration minus the part its traced callees cover.  Coarse boundaries
(``span=True``) also keep one span record per call — name, start, end,
the enclosing boundary and the current op id — in memory until
:meth:`Tracer.write_jsonl`.

State is per thread (the traced ``serve_closed`` run has client,
event-loop and executor threads); accumulators are merged on read.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer"]

_now = time.perf_counter_ns

#: Packages whose modules may hold ``from x import f`` copies of a target.
_REBIND_PREFIXES = ("repro", "perfbench")

#: hook(args, result, start_ns, end_ns) -> op id for the span, or None.
Hook = Callable[[tuple, Any, int, int], Optional[str]]


class _ThreadState:
    """One thread's call stack and accumulators."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # frames: [name, child_ns]
        self.totals: Dict[str, List[int]] = {}
        self.by_parent: Dict[Tuple[str, Optional[str]], List[int]] = {}
        self.spans: List[tuple] = []
        self.op: Optional[str] = None


class Tracer:
    """Patch layer boundaries, accumulate their time, restore them."""

    def __init__(self) -> None:
        #: boundary name -> why it could not be patched.
        self.missing: Dict[str, str] = {}
        self._patched_names: set = set()
        self._patches: List[Tuple[Any, str, Any]] = []  # (owner, attr, original)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()

    # -- per-thread state ------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            return state

    def set_op(self, op: Optional[str]) -> None:
        """Tag the spans this thread records from now on with ``op``."""
        self._state().op = op

    # -- recording -------------------------------------------------------------

    def _record(
        self,
        state: _ThreadState,
        frame: list,
        start: int,
        end: int,
        span: bool,
        op: Optional[str],
    ) -> None:
        name = frame[0]
        duration = end - start
        stack = state.stack
        parent = None
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        acc = state.totals.get(name)
        if acc is None:
            acc = state.totals[name] = [0, 0, 0]
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - frame[1]
        key = (name, parent)
        edge = state.by_parent.get(key)
        if edge is None:
            edge = state.by_parent[key] = [0, 0]
        edge[0] += 1
        edge[1] += duration
        if span:
            state.spans.append(
                (name, start, end, parent, op if op is not None else state.op)
            )

    def _wrap(
        self, fn: Callable, name: str, span: bool, hook: Optional[Hook]
    ) -> Callable:
        state_of = self._state
        record = self._record

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            if stack and stack[-1][0] == name:
                # Direct recursion (encode_value): the outermost call
                # already covers this time.
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = _now()
                stack.pop()
                record(state, frame, start, end, span, None)
                raise
            end = _now()
            stack.pop()
            op = hook(args, result, start, end) if hook is not None else None
            record(state, frame, start, end, span, op)
            return result

        traced._perfbench_traced = True  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        """A span around benchmark code (a pass, one op)."""
        state = self._state()
        frame = [name, 0]
        state.stack.append(frame)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            state.stack.pop()
            self._record(state, frame, start, end, True, op)

    def add(self, name: str, duration_ns: int, calls: int = 1) -> None:
        """Account time measured by a hook (e.g. a queue wait) to ``name``."""
        state = self._state()
        acc = state.totals.get(name)
        if acc is None:
            acc = state.totals[name] = [0, 0, 0]
        acc[0] += calls
        acc[1] += duration_ns
        acc[2] += duration_ns

    # -- patching --------------------------------------------------------------

    def patch(
        self,
        name: str,
        target: str,
        *,
        span: bool = False,
        hook: Optional[Hook] = None,
    ) -> bool:
        """Time ``target`` (``"pkg.module:func"`` or ``"pkg.module:Class.attr"``)
        as boundary ``name``.  Returns False (and notes why) if it is gone."""
        module_name, _, qualname = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError as exc:
            self.missing.setdefault(name, f"{target}: {exc}")
            return False
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.setdefault(name, f"{target}: no attribute {part!r}")
                return False
        return self.patch_attr(name, owner, attr, span=span, hook=hook)

    def patch_attr(
        self,
        name: str,
        owner: Any,
        attr: str,
        *,
        span: bool = False,
        hook: Optional[Hook] = None,
    ) -> bool:
        """Time ``owner.attr`` (``owner`` a module or a class) as ``name``."""
        if isinstance(owner, type):
            # Patch the class that defines the attribute, so restoring
            # puts the descriptor back where it was.
            owner = next((k for k in owner.__mro__ if attr in vars(k)), None)
        if owner is None or attr not in vars(owner):
            self.missing.setdefault(name, f"no attribute {attr!r}")
            return False
        self._patched_names.add(name)
        original = vars(owner)[attr]
        if getattr(getattr(original, "__func__", original), "_perfbench_traced", False):
            return True  # already patched (two workloads share one run())
        if isinstance(original, (staticmethod, classmethod)):
            wrapper: Any = type(original)(
                self._wrap(original.__func__, name, span, hook)
            )
        else:
            wrapper = self._wrap(original, name, span, hook)
        self._set(owner, attr, original, wrapper)
        if not isinstance(owner, type):
            # A module function: follow ``from module import attr``.
            for mod_name, module in list(sys.modules.items()):
                if module is owner or module is None:
                    continue
                if not mod_name.startswith(_REBIND_PREFIXES):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)
        return True

    def _set(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def known(self, name: str) -> bool:
        """True when at least one target of boundary ``name`` was patched."""
        return name in self._patched_names

    def _merged(self, name: str) -> List[int]:
        out = [0, 0, 0]
        with self._states_lock:
            states = list(self._states)
        for state in states:
            acc = state.totals.get(name)
            if acc is not None:
                out[0] += acc[0]
                out[1] += acc[1]
                out[2] += acc[2]
        return out

    def calls(self, name: str) -> int:
        return self._merged(name)[0]

    def total_s(self, name: str) -> float:
        return self._merged(name)[1] / 1e9

    def self_s(self, name: str) -> float:
        return self._merged(name)[2] / 1e9

    def spans(self, name: Optional[str] = None) -> List[tuple]:
        """Span records ``(name, start_ns, end_ns, parent, op)`` by start."""
        with self._states_lock:
            states = list(self._states)
        out = [
            rec
            for state in states
            for rec in state.spans
            if name is None or rec[0] == name
        ]
        out.sort(key=lambda rec: rec[1])
        return out

    def write_jsonl(self, path: Any) -> None:
        """Spans first, then one line per (boundary, parent) accumulator."""
        with self._states_lock:
            states = list(self._states)
        edges: Dict[Tuple[str, Optional[str]], List[int]] = {}
        for state in states:
            for key, (calls, total) in state.by_parent.items():
                edge = edges.setdefault(key, [0, 0])
                edge[0] += calls
                edge[1] += total
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans():
                fh.write(
                    json.dumps(
                        {
                            "span": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
            for (name, parent), (calls, total) in sorted(
                edges.items(), key=lambda item: (item[0][0], item[0][1] or "")
            ):
                fh.write(
                    json.dumps(
                        {
                            "boundary": name,
                            "parent": parent,
                            "calls": calls,
                            "total_ns": total,
                        }
                    )
                    + "\n"
                )
