"""Distributed matrix campaigns: one campaign × every uarch/simulator cell.

This package fans a single campaign body across a grid of
``(target, simulator)`` cells with fault-tolerant dispatch:

* :class:`MatrixCampaignSpec` — the declarative matrix (campaign body +
  cell grid + execution knobs), JSON round-trippable like every API spec;
* :func:`run_matrix` — the scheduler: pluggable executors (``inline``,
  ``pool``, ``remote``), per-cell retry with exponential backoff, per-cell
  timeouts, checkpoint-backed resume skipping completed cells, and a shared
  on-disk corpus per target;
* :class:`CampaignWorker` — the ``repro worker`` HTTP endpoint remote
  executors dispatch cells to;
* :func:`build_matrix_report` / :func:`format_matrix_report` — the
  schema-versioned aggregate ``matrix_report.json`` and its CLI rendering.

Public entry points::

    from repro.distributed import MatrixCampaignSpec, run_matrix

    spec = MatrixCampaignSpec(
        campaign={"axes": [{"field": "WriteLatency", "opcode": "ADD32rr",
                            "values": [1, 3, 5]}]},
        targets=["haswell", "zen2"], simulators=["mca", "llvm_sim"],
        executor="pool", workers=4)
    result = run_matrix(spec)

Only the spec layer imports eagerly; the scheduler, executors, report, and
worker load on first attribute access (the spec is imported by
:mod:`repro.api` and the executors pull in multiprocessing/HTTP machinery).
"""

from repro.distributed.spec import MatrixCampaignSpec, cell_key

__all__ = [
    "MatrixCampaignSpec",
    "cell_key",
    "MatrixResult",
    "matrix_fingerprint",
    "run_matrix",
    "CellExecutor",
    "CellHandle",
    "InlineExecutor",
    "ProcessCellExecutor",
    "RemoteExecutor",
    "WorkerClient",
    "execute_cell",
    "make_task",
    "MATRIX_REPORT_VERSION",
    "build_matrix_report",
    "format_matrix_report",
    "CampaignWorker",
]

#: Lazily resolved exports: name -> defining submodule.
_LAZY_EXPORTS = {
    "MatrixResult": "repro.distributed.scheduler",
    "matrix_fingerprint": "repro.distributed.scheduler",
    "run_matrix": "repro.distributed.scheduler",
    "CellExecutor": "repro.distributed.executors",
    "CellHandle": "repro.distributed.executors",
    "InlineExecutor": "repro.distributed.executors",
    "ProcessCellExecutor": "repro.distributed.executors",
    "RemoteExecutor": "repro.distributed.executors",
    "WorkerClient": "repro.distributed.executors",
    "execute_cell": "repro.distributed.cells",
    "make_task": "repro.distributed.cells",
    "MATRIX_REPORT_VERSION": "repro.distributed.report",
    "build_matrix_report": "repro.distributed.report",
    "format_matrix_report": "repro.distributed.report",
    "CampaignWorker": "repro.distributed.worker",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
