"""Analysis utilities: traffic models, sweeps, paper-anchor
verification, trace analysis, plotting, CSV export, and the
table/series printers that regenerate the paper's tables and figures."""

from repro.registry import lazy_exports

#: Imported on first access (``repro.registry.lazy_exports``).
_EXPORTS = {
    "AMOTrafficRow": "repro.analysis.amo_traffic:AMOTrafficRow",
    "table2_rows": "repro.analysis.amo_traffic:table2_rows",
    "MutexSweep": "repro.analysis.sweep:MutexSweep",
    "run_mutex_sweep": "repro.analysis.sweep:run_mutex_sweep",
    "ascii_plot": "repro.analysis.plot:ascii_plot",
    "plot_sweeps": "repro.analysis.plot:plot_sweeps",
    "sweep_to_csv": "repro.analysis.export:sweep_to_csv",
    "records_to_csv": "repro.analysis.export:records_to_csv",
    "write_csv": "repro.analysis.export:write_csv",
    "TraceAnalysis": "repro.analysis.traceview:TraceAnalysis",
    "analyze_trace": "repro.analysis.traceview:analyze_trace",
    "parse_trace": "repro.analysis.traceview:parse_trace",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
