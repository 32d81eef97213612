"""Plain-text renderers for the paper's tables and figure series.

Every artifact in the paper's evaluation can be printed from here;
the benchmark harnesses call these so their console output is the
regenerated table/figure data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence

from repro.hmc.commands import COMMAND_TABLE, hmc_response_t

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sweep import MutexSweep
    from repro.core.cmc import CMCRegistry

__all__ = [
    "render_table1",
    "render_table2",
    "render_table5",
    "render_table6",
    "render_figure_series",
    "format_table",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned fixed-width text table."""
    srows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in srows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def render_table1() -> str:
    """Table I: HMC-Sim 2.0 Gen2 additional command support.

    Emits every Gen2 command the 2.0 release added beyond the 1.0
    spec (the 256-byte transfers and the atomic set), with request
    and response FLIT counts from the command table.
    """
    added = [
        "RD256", "WR256", "P_WR256",
        "TWOADD8", "ADD16", "P_2ADD8", "P_ADD16", "TWOADDS8R", "ADDS16R",
        "INC8", "P_INC8", "XOR16", "OR16", "NOR16", "AND16", "NAND16",
        "CASGT8", "CASGT16", "CASLT8", "CASLT16", "CASEQ8", "CASZERO16",
        "EQ8", "EQ16", "BWR", "P_BWR", "BWR8R", "SWAP16",
    ]
    by_name = {info.rqst.name: info for info in COMMAND_TABLE.values()}
    rows = []
    for name in added:
        info = by_name[name]
        rows.append((name, info.code, info.rqst_flits, info.rsp_flits))
    return format_table(
        ["Command Enum", "Code", "Request Flits", "Response Flits"], rows
    )


def render_table2() -> str:
    """Table II: HMC Gen2 atomic memory operation efficiency."""
    from repro.analysis.amo_traffic import table2_rows

    rows = []
    for r in table2_rows():
        rows.append(
            (
                r.amo_type,
                r.request_structure,
                r.flits,
                r.bytes_paper,
                r.bytes_spec,
            )
        )
    return format_table(
        [
            "AMO Type",
            "Request Structure",
            "FLITs",
            "Total Bytes (paper, 128B/FLIT)",
            "Total Bytes (spec, 16B/FLIT)",
        ],
        rows,
    )


def render_table5(registry: CMCRegistry) -> str:
    """Table V: the CMC mutex operations, from live registrations."""
    rows = []
    for op in registry.operations():
        reg = op.registration
        if reg.cmd not in (125, 126, 127):
            continue
        rsp_name = (
            reg.rsp_cmd.name
            if reg.rsp_cmd is not hmc_response_t.RSP_CMC
            else f"CMC({reg.rsp_cmd_code})"
        )
        rows.append(
            (
                reg.op_name,
                reg.rqst.name,
                reg.cmd,
                f"{reg.rqst_len} FLITS",
                rsp_name,
                reg.rsp_len,
            )
        )
    return format_table(
        [
            "Operation",
            "Command Enum",
            "Request Command",
            "Request Length",
            "Response Command",
            "Response Length",
        ],
        rows,
    )


def render_table6(sweeps: Sequence[MutexSweep]) -> str:
    """Table VI: min/max/avg cycle summary per device configuration."""
    rows = []
    for sweep in sweeps:
        device, mn, mx, avg = sweep.table6_row()
        rows.append((device, mn, mx, f"{avg:.2f}"))
    return format_table(
        ["Device", "Min Cycle Count", "Max Cycle Count", "Avg Cycle Count"], rows
    )


def render_figure_series(
    title: str, sweeps: Sequence[MutexSweep], series: str
) -> str:
    """Figures 5/6/7: one line per thread count, one column per config.

    Args:
        series: "min_cycles", "max_cycles", or "avg_cycles".
    """
    headers = ["Threads"] + [s.config_name for s in sweeps]
    threads = sweeps[0].threads
    for s in sweeps[1:]:
        if s.threads != threads:
            raise ValueError("sweeps cover different thread ranges")
    columns: List[Sequence[float]] = [getattr(s, series) for s in sweeps]
    rows = []
    for i, n in enumerate(threads):
        row = [n] + [
            f"{col[i]:.2f}" if isinstance(col[i], float) else col[i]
            for col in columns
        ]
        rows.append(row)
    return f"{title}\n" + format_table(headers, rows)
