"""Task-dependency-graph workloads: multi-phase scenarios as data.

Multi-phase scenarios used to be bespoke thread state machines; here
they are declared as a :class:`TaskGraph` — named tasks, each a
request-emitting generator body, with explicit ``after`` edges — and
executed by mapping tasks onto :class:`~repro.host.thread.SimThread`\\ s
(the build-graph-then-execute shape of PTO-style task runtimes).

Dependency gating happens *in simulated memory*: the runtime reserves
one 16-byte completion flag per task in a flags arena; a task's thread
spin-reads each cross-thread predecessor's flag until it reads the
done marker, runs the body, then writes its own flag.  Same-thread
predecessors are ordered by construction (each thread runs its tasks
in topological order), so they need no flag traffic.  The gating
traffic is real memory traffic — polling latency, link occupancy, and
hot flag lines all show up in the statistics, exactly as they would
for a host-side runtime polling device memory.

Three built-in scenarios (registered as ``graph:counter``,
``graph:pipeline``, and ``graph:kvstore``):

* **counter** — N incrementer tasks race over a mutex-protected shared
  counter (Algorithm 1 lock/trylock/unlock around a read+write), then
  a final check task reads the total.
* **pipeline** — producers push values onto a CMC39 linked list; a
  consumer gated on all producers walks the list and folds a sum.
* **kvstore** — writer tasks fire ``TWOADD8`` upserts at a skewed
  (hot-key) bucket distribution while reader tasks poll the hot set;
  an audit task gated on everything folds the table and checks the
  totals against the deterministic expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import EngineResult, HostEngine
from repro.host.thread import Program, ThreadCtx
from repro.workloads.base import Footprint, ProgramFactory, WorkloadFrontend
from repro.workloads.registry import register_workload

__all__ = [
    "TaskNode",
    "TaskGraph",
    "GraphStats",
    "run_task_graph",
    "CounterGraphWorkload",
    "PipelineGraphWorkload",
    "KVStoreGraphWorkload",
]

#: Value written to a task's completion flag.
_DONE = 1
#: Bytes reserved per completion flag (one aligned memory block).
_FLAG_STRIDE = 16

#: A task body: a generator yielding request packets, like any thread
#: program, receiving the task's ThreadCtx.
TaskBody = Callable[[ThreadCtx], Program]


@dataclass(frozen=True)
class TaskNode:
    """One node of a task graph."""

    name: str
    body: TaskBody
    after: Tuple[str, ...] = ()
    #: Explicit thread assignment; ``None`` gives the task its own.
    thread: Optional[int] = None


class TaskGraph:
    """A named DAG of request-emitting tasks."""

    def __init__(self) -> None:
        self._nodes: Dict[str, TaskNode] = {}

    def add(
        self,
        name: str,
        body: TaskBody,
        *,
        after: Tuple[str, ...] = (),
        thread: Optional[int] = None,
    ) -> TaskNode:
        if name in self._nodes:
            raise WorkloadError(f"task {name!r} declared twice")
        node = TaskNode(name=name, body=body, after=tuple(after), thread=thread)
        self._nodes[name] = node
        return node

    def task(self, name: str, *, after: Tuple[str, ...] = (), thread=None):
        """Decorator form of :meth:`add`."""

        def wrap(body: TaskBody) -> TaskBody:
            self.add(name, body, after=after, thread=thread)
            return body

        return wrap

    def nodes(self) -> List[TaskNode]:
        return list(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def topo_order(self) -> List[TaskNode]:
        """Kahn's algorithm, deterministic (declaration order breaks ties).

        Raises on unknown dependencies and cycles.
        """
        order_index = {name: i for i, name in enumerate(self._nodes)}
        indegree: Dict[str, int] = {name: 0 for name in self._nodes}
        for node in self._nodes.values():
            for dep in node.after:
                if dep not in self._nodes:
                    raise WorkloadError(
                        f"task {node.name!r} depends on unknown task {dep!r}"
                    )
                indegree[node.name] += 1
        ready = sorted(
            (name for name, deg in indegree.items() if deg == 0),
            key=order_index.__getitem__,
        )
        out: List[TaskNode] = []
        while ready:
            name = ready.pop(0)
            out.append(self._nodes[name])
            changed = False
            for node in self._nodes.values():
                if name in node.after:
                    indegree[node.name] -= 1
                    if indegree[node.name] == 0:
                        ready.append(node.name)
                        changed = True
            if changed:
                ready.sort(key=order_index.__getitem__)
        if len(out) != len(self._nodes):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise WorkloadError(f"task graph has a cycle through {stuck}")
        return out


@dataclass
class GraphStats:
    """Outcome of one task-graph run."""

    config_name: str
    scenario: str
    tasks: int
    threads: int
    engine: EngineResult = None
    #: ``task name -> (start cycle, done cycle)``.
    schedule: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    verified: Optional[bool] = None

    @property
    def total_cycles(self) -> int:
        return self.engine.total_cycles


def _flag_spin(ctx: ThreadCtx, flag_addr: int) -> Program:
    """Spin-read ``flag_addr`` until it carries the done marker."""
    while True:
        rsp = yield ctx.read(flag_addr, 16)
        if int.from_bytes(rsp.data[:8], "little") == _DONE:
            return


def build_graph_programs(
    graph: TaskGraph,
    *,
    flags_base: int,
    schedule: Optional[Dict[str, Tuple[int, int]]] = None,
) -> List[ProgramFactory]:
    """Compile ``graph`` into per-thread programs.

    Tasks with the same explicit ``thread`` share one SimThread and run
    in topological order; unassigned tasks get their own thread.  A
    task spin-reads the completion flag of every predecessor that runs
    on a *different* thread, runs its body, then publishes its own flag
    with a non-posted write.
    """
    if len(graph) == 0:
        raise WorkloadError("task graph is empty")
    order = graph.topo_order()
    flag_of = {node.name: flags_base + i * _FLAG_STRIDE for i, node in enumerate(order)}

    # Group into per-thread task lists (topological order within each).
    groups: Dict[Any, List[TaskNode]] = {}
    next_auto = 0
    for node in order:
        key: Any
        if node.thread is None:
            key = ("auto", next_auto)
            next_auto += 1
        else:
            key = ("named", node.thread)
        groups.setdefault(key, []).append(node)
    # Deterministic thread order: named threads by id, then auto tasks
    # in topological order.
    ordered_keys = sorted(
        groups, key=lambda k: (0, k[1]) if k[0] == "named" else (1, k[1])
    )

    thread_of = {
        node.name: key for key, nodes in groups.items() for node in nodes
    }

    def make_program(my_nodes: List[TaskNode], my_key: Any) -> ProgramFactory:
        def factory(ctx: ThreadCtx) -> Program:
            def program() -> Program:
                for node in my_nodes:
                    for dep in node.after:
                        if thread_of[dep] == my_key:
                            continue  # same thread: ordered by construction
                        yield from _flag_spin(ctx, flag_of[dep])
                    if schedule is not None:
                        start = ctx.sim.cycle
                    yield from node.body(ctx)
                    yield ctx.write(
                        flag_of[node.name],
                        _DONE.to_bytes(8, "little") + bytes(8),
                    )
                    if schedule is not None:
                        schedule[node.name] = (start, ctx.sim.cycle)

            return program()

        return factory

    return [make_program(groups[key], key) for key in ordered_keys]


def run_task_graph(
    sim: HMCSim,
    graph: TaskGraph,
    *,
    flags_base: int,
    max_cycles: int = 2_000_000,
) -> Tuple[EngineResult, Dict[str, Tuple[int, int]]]:
    """Execute ``graph`` on ``sim``; returns the engine result and the
    per-task ``(start, done)`` cycle schedule."""
    schedule: Dict[str, Tuple[int, int]] = {}
    engine = HostEngine(sim, max_cycles=max_cycles)
    for factory in build_graph_programs(
        graph, flags_base=flags_base, schedule=schedule
    ):
        engine.add_thread(factory)
    result = engine.run()
    return result, schedule


class GraphWorkload(WorkloadFrontend):
    """Shared shape of the graph scenarios: one task graph per run,
    its programs and per-task schedule handed to the base driver."""

    kind = "graph"

    def build_graph(self, sim: HMCSim, params: Dict[str, Any]) -> TaskGraph:
        raise NotImplementedError

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        self._graph = self.build_graph(sim, params)
        self._schedule: Dict[str, Tuple[int, int]] = {}
        return build_graph_programs(
            self._graph, flags_base=params["flags_base"], schedule=self._schedule
        )

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> GraphStats:
        stats = GraphStats(
            config_name=sim.config.describe(),
            scenario=self.name,
            tasks=len(self._graph),
            threads=len(result.threads),
            engine=result,
            schedule=self._schedule,
        )
        stats.verified = self.verify(sim, params, stats)
        return stats

    def format_stats(self, s: GraphStats, fault_plan: Any = None) -> str:
        return (
            f"{s.config_name} {s.scenario}: {s.tasks} task(s) on "
            f"{s.threads} thread(s), {s.total_cycles} cycles, "
            f"verified={s.verified}"
        )


@register_workload
class CounterGraphWorkload(GraphWorkload):
    """N incrementers race over a mutex-protected counter, then a
    check task reads the total."""

    name = "graph:counter"
    description = "task graph: mutex-protected shared counter + final check"
    version = "1"

    def default_params(self) -> Dict[str, Any]:
        return {
            "tasks": 8,
            "lock_addr": 0x0,
            "counter_addr": 0x100,
            "flags_base": 8 << 20,
            "max_cycles": 2_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        from repro.cmc_ops.mutex import init_lock, load_mutex_ops

        if sim.cmc.lookup(125) is None:
            load_mutex_ops(sim)
        init_lock(sim, params["lock_addr"])
        sim.mem_write(params["counter_addr"], bytes(16))

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        p = self.resolve_params(params)
        return (
            (p["lock_addr"], 16),
            (p["counter_addr"], 16),
            (p["flags_base"], (p["tasks"] + 1) * _FLAG_STRIDE),
        )

    def build_graph(self, sim: HMCSim, params: Dict[str, Any]) -> TaskGraph:
        from repro.cmc_ops.mutex import decode_lock_response

        lock_addr = params["lock_addr"]
        counter_addr = params["counter_addr"]
        graph = TaskGraph()
        self._observed_total: Optional[int] = None

        def increment(ctx: ThreadCtx) -> Program:
            # Algorithm 1 around a read+write critical section.
            rsp = yield ctx.lock(lock_addr)
            if decode_lock_response(rsp.data) != 1:
                while True:
                    rsp = yield ctx.trylock(lock_addr)
                    if decode_lock_response(rsp.data) == ctx.tid_value:
                        break
            rsp = yield ctx.read(counter_addr, 16)
            count = int.from_bytes(rsp.data[:8], "little") + 1
            yield ctx.write(
                counter_addr, count.to_bytes(8, "little") + rsp.data[8:]
            )
            yield ctx.unlock(lock_addr)

        names = [f"inc{i}" for i in range(params["tasks"])]
        for name in names:
            graph.add(name, increment)

        def check(ctx: ThreadCtx) -> Program:
            rsp = yield ctx.read(counter_addr, 16)
            self._observed_total = int.from_bytes(rsp.data[:8], "little")

        graph.add("check", check, after=tuple(names))
        return graph

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> bool:
        return self._observed_total == params["tasks"]


@register_workload
class PipelineGraphWorkload(GraphWorkload):
    """Producers push onto a CMC39 linked list; a gated consumer walks
    it and folds a sum."""

    name = "graph:pipeline"
    description = "task graph: producer/consumer over CMC list-push"
    version = "1"

    def default_params(self) -> Dict[str, Any]:
        return {
            "producers": 2,
            "items": 8,
            "list_addr": 1 << 20,
            "flags_base": 8 << 20,
            "max_cycles": 2_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        from repro.cmc_ops.listpush import init_list

        if sim.cmc.lookup(39) is None:
            sim.load_cmc("repro.cmc_ops.listpush")
        list_addr = params["list_addr"]
        init_list(sim, list_addr, list_addr + 16)

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        p = self.resolve_params(params)
        arena = 16 + (p["producers"] * p["items"] + 1) * 16
        return (
            (p["list_addr"], arena),
            (p["flags_base"], (p["producers"] + 2) * _FLAG_STRIDE),
        )

    def build_graph(self, sim: HMCSim, params: Dict[str, Any]) -> TaskGraph:
        list_addr = params["list_addr"]
        items = params["items"]
        graph = TaskGraph()
        self._consumed: Optional[Tuple[int, int]] = None

        def producer(base: int) -> TaskBody:
            def body(ctx: ThreadCtx) -> Program:
                for i in range(items):
                    value = base + i + 1
                    yield ctx.request(
                        hmc_rqst_t.CMC39,
                        list_addr,
                        data=value.to_bytes(8, "little") + bytes(8),
                    )

            return body

        names = []
        for p in range(params["producers"]):
            name = f"produce{p}"
            names.append(name)
            graph.add(name, producer(p * items))

        def consume(ctx: ThreadCtx) -> Program:
            rsp = yield ctx.read(list_addr, 16)
            node = int.from_bytes(rsp.data[:8], "little")
            total = count = 0
            while node:
                rsp = yield ctx.read(node, 16)
                total += int.from_bytes(rsp.data[:8], "little")
                node = int.from_bytes(rsp.data[8:16], "little")
                count += 1
            self._consumed = (count, total)

        graph.add("consume", consume, after=tuple(names))
        return graph

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> bool:
        if self._consumed is None:
            return False
        count, total = self._consumed
        n = params["producers"] * params["items"]
        return count == n and total == n * (n + 1) // 2


_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_M64 = (1 << 64) - 1


@register_workload
class KVStoreGraphWorkload(GraphWorkload):
    """Hot-key KV store: writers upsert skewed buckets with ``TWOADD8``
    (value += delta, hits += 1 in one atomic), readers poll the hot
    set, and an audit task checks the folded totals."""

    name = "graph:kvstore"
    description = "task graph: hot-key KV store over TWOADD8 upserts"
    version = "1"

    def default_params(self) -> Dict[str, Any]:
        return {
            "writers": 8,
            "readers": 4,
            "ops": 48,
            "buckets": 64,
            "hot_keys": 4,
            "table_addr": 1 << 20,
            "flags_base": 8 << 20,
            "max_cycles": 2_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        p = self.resolve_params(params)
        sim.mem_write(p["table_addr"], bytes(p["buckets"] * 16))

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        p = self.resolve_params(params)
        tasks = p["writers"] + p["readers"] + 2
        return (
            (p["table_addr"], p["buckets"] * 16),
            (p["flags_base"], tasks * _FLAG_STRIDE),
        )

    @staticmethod
    def _key_stream(seed: int, count: int, buckets: int, hot: int) -> List[int]:
        """Deterministic skewed key picks: half land in the hot set."""
        state = (seed * 2 + 1) & _M64
        keys = []
        for _ in range(count):
            state = (state * _LCG_MUL + _LCG_ADD) & _M64
            if (state >> 8) & 1:
                keys.append((state >> 16) % max(1, hot))
            else:
                keys.append((state >> 16) % buckets)
        return keys

    def build_graph(self, sim: HMCSim, params: Dict[str, Any]) -> TaskGraph:
        table = params["table_addr"]
        buckets = params["buckets"]
        hot = params["hot_keys"]
        ops = params["ops"]
        graph = TaskGraph()
        self._audit: Optional[Tuple[int, int]] = None

        # Expected fold, from the same deterministic key streams the
        # writers replay: TWOADD8 is atomic in-situ, so the totals are
        # exact no matter how the upserts interleave.
        expect_value = 0
        expect_hits = params["writers"] * ops

        def writer(seed: int, keys: List[int]) -> TaskBody:
            def body(ctx: ThreadCtx) -> Program:
                for i, key in enumerate(keys):
                    delta = seed * ops + i + 1
                    yield ctx.request(
                        hmc_rqst_t.TWOADD8,
                        table + key * 16,
                        data=delta.to_bytes(8, "little")
                        + (1).to_bytes(8, "little"),
                    )

            return body

        writer_names = []
        for w in range(params["writers"]):
            keys = self._key_stream(w, ops, buckets, hot)
            expect_value += sum(w * ops + i + 1 for i in range(ops))
            name = f"write{w}"
            writer_names.append(name)
            graph.add(name, writer(w, keys))

        def reader(seed: int) -> TaskBody:
            def body(ctx: ThreadCtx) -> Program:
                for key in self._key_stream(0x5EED + seed, ops, hot, hot):
                    yield ctx.read(table + key * 16, 16)

            return body

        reader_names = []
        for r in range(params["readers"]):
            name = f"read{r}"
            reader_names.append(name)
            graph.add(name, reader(r))

        def audit(ctx: ThreadCtx) -> Program:
            value = hits = 0
            for b in range(buckets):
                rsp = yield ctx.read(table + b * 16, 16)
                value += int.from_bytes(rsp.data[:8], "little")
                hits += int.from_bytes(rsp.data[8:16], "little")
            self._audit = (value, hits)

        graph.add("audit", audit, after=tuple(writer_names + reader_names))
        self._expect = (expect_value, expect_hits)
        return graph

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> bool:
        return self._audit == self._expect
