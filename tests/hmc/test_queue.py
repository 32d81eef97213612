"""StallQueue tests: stall semantics, FIFO order, statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmc.queue import StallQueue


class TestBasics:
    def test_fifo_order(self):
        q = StallQueue(4)
        for i in range(4):
            assert q.push(i)
        assert [q.pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_push_full_stalls(self):
        q = StallQueue(2)
        assert q.push(1) and q.push(2)
        assert not q.push(3)
        assert q.stalls == 1
        assert len(q) == 2

    def test_pop_empty_returns_none(self):
        assert StallQueue(1).pop() is None

    def test_peek_does_not_remove(self):
        # Looking at the head is iteration; only pop removes.
        q = StallQueue(2)
        q.push("a")
        assert next(iter(q)) == "a"
        assert len(q) == 1

    def test_peek_empty(self):
        assert next(iter(StallQueue(1)), None) is None

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            StallQueue(0)

    def test_full_empty_flags(self):
        # Empty is falsy; full is len == depth, where a push stalls.
        q = StallQueue(1)
        assert not q and len(q) < q.depth
        q.push(0)
        assert q and len(q) == q.depth
        assert not q.push(1)

    def test_bool_and_iter(self):
        q = StallQueue(3)
        assert not q
        q.push(1)
        q.push(2)
        assert q
        assert list(q) == [1, 2]

    def test_clear_preserves_stats(self):
        q = StallQueue(1)
        q.push(1)
        assert not q.push(2)
        q.clear()
        assert not q
        assert q.stalls == 1


class TestStatistics:
    def test_high_water_tracks_max(self):
        q = StallQueue(10)
        for i in range(7):
            q.push(i)
        for _ in range(5):
            q.pop()
        q.push(99)
        assert q.high_water == 7

    def test_counters(self):
        q = StallQueue(3)
        q.push(1)
        q.push(2)
        q.pop()
        assert (q.pushes, q.pops, len(q)) == (2, 1, 1)


@given(
    ops=st.lists(
        st.one_of(st.tuples(st.just("push"), st.integers()), st.just(("pop", 0))),
        max_size=100,
    ),
    depth=st.integers(1, 8),
)
@settings(max_examples=100)
def test_queue_invariants_property(ops, depth):
    """Model-check against a plain list bounded at `depth`."""
    q = StallQueue(depth)
    model = []
    for op, val in ops:
        if op == "push":
            accepted = q.push(val)
            assert accepted == (len(model) < depth)
            if accepted:
                model.append(val)
        else:
            got = q.pop()
            want = model.pop(0) if model else None
            assert got == want
        assert len(q) == len(model)
        assert list(q) == model
