"""What the kernel frontends share.

The parameter domains every kernel bounds, two readers of device state,
the :class:`KernelWorkload` shape, the :class:`WaveWorkload` shape of
the level-synchronous kernels, and :func:`register_kernel`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.hmc.commands import MAX_TAG
from repro.workloads.base import ProgramFactory, WorkloadFrontend
from repro.workloads.registry import register_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hmc.sim import HMCSim

__all__ = [
    "POSITIVE",
    "NON_NEGATIVE",
    "COMMON",
    "u64_at",
    "link_flits",
    "KernelWorkload",
    "WaveWorkload",
    "register_kernel",
]

#: Shared parameter domains.  Every kernel bounds its deadlock guard
#: and its thread count: the engine's 11-bit tag space ends at 2048.
POSITIVE = (1, None)
NON_NEGATIVE = (0, None)
COMMON = {"threads": (1, MAX_TAG + 1), "max_cycles": POSITIVE}


def u64_at(data: bytes, slot: int) -> int:
    """The low word of the ``slot``-th 16-byte block of ``data``."""
    return int.from_bytes(data[slot * 16 : slot * 16 + 8], "little")


def link_flits(sim: HMCSim) -> int:
    """Request+response FLITs moved across every link so far."""
    return sum(
        link.flits_in + link.flits_out for d in sim.devices for link in d.links
    )


class KernelWorkload(WorkloadFrontend):
    """Shared shape of the kernel frontends, each printed as one line."""

    kind = "kernel"
    #: Whether the ``kernel`` CLI subcommand offers this workload.
    cli_kernel = True


class WaveWorkload(KernelWorkload):
    """Shared shape of the level-synchronous kernels (BFS, SSSP): one
    engine wave per round on a context of their own, so neither
    recordable nor engine-drivable as a single :meth:`build`."""

    accepts_sim = False

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        raise WorkloadError(
            f"workload {self.name!r} is multi-phase (one engine per "
            f"round); drive it through run()"
        )

    def _wave(
        self,
        sim: HMCSim,
        params: Dict[str, Any],
        work: Sequence[Any],
        worker: Callable[..., Any],
    ) -> Tuple[int, List[int]]:
        """One engine run over ``work`` split into contiguous
        per-thread parts, each driven by ``worker(ctx, part, out)``.
        Returns the requests sent and the parts' outputs in tid order."""
        engine = self.new_engine(sim, params, None)
        outs: List[List[int]] = []
        chunk = (len(work) + params["threads"] - 1) // params["threads"]
        for lo in range(0, len(work), chunk):
            out: List[int] = []
            outs.append(out)
            engine.add_thread(
                lambda ctx, part=work[lo : lo + chunk], out=out: worker(ctx, part, out)
            )
        result = engine.run()
        return (
            sum(t.requests for t in result.threads),
            [v for out in outs for v in out],
        )


def register_kernel(cls):
    """Register a kernel frontend under the fingerprint it was published
    with, ``repro.workloads.adapters:<class>@<version>`` (the module all
    nine shared until each got its own).  Served payloads, sweep-cache
    keys and perfbench's goldens carry that fingerprint, and a move is
    no change of behaviour."""
    cls.published_module = "repro.workloads.adapters"
    return register_workload(cls)
