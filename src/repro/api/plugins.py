"""Plugin record types stored in the :mod:`repro.api` registries.

Targets, surrogates, and presets register their natural objects directly (a
:class:`~repro.targets.uarch.UarchSpec`, a surrogate class, a config
factory).  Simulators and baselines need a little more structure — a
simulator is an adapter factory *plus* the table serialization and optional
timeline/sweep capabilities the CLI exposes; a baseline is either a
parameter-table *search* or a standalone timing *predictor* — so they
register the small frozen records defined here.

Like :mod:`repro.api.registry`, this module imports nothing from the rest of
the package: the callables are supplied by the registering modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence


@dataclass(frozen=True)
class SimulatorPlugin:
    """Everything the API needs to drive one parametric simulator.

    Attributes:
        name: Canonical registry key (``"mca"``, ``"llvm_sim"``).
        summary: One-line description for listings.
        adapter_factory: ``(uarch, *, opcode_table=None, narrow_sampling=...,
            learn_fields=..., engine_workers=...) -> SimulatorAdapter``.
            Factories for simulators without a capability (e.g. partial
            learning) raise ``ValueError`` naming the unsupported argument.
        load_table: ``(path, opcode_table) -> native parameter table`` for
            the simulator's JSON serialization.
        engine_factory: Optional ``(num_workers) -> SimulationEngine`` for a
            standalone engine (the CLI sweep path).
        timeline_factory: Optional ``(table) -> view`` where the view has a
            ``summary(block) -> str`` method; ``None`` when the simulator has
            no per-cycle timeline report.
        sweep_fields: Global parameter fields a one-dimensional sweep can
            vary: ``field name -> (table, value) -> None`` setter.
        opcode_sweep_fields: Per-opcode parameter fields a campaign axis can
            vary: ``field name -> (table, opcode_index, value) -> None``
            setter.  A setter that additionally needs a port index declares
            ``accepts_port = True`` and ``num_ports`` on itself and is called
            as ``(table, opcode_index, port, value)``.
        supports_partial_learning: Whether the adapter accepts
            ``learn_fields`` (learning a subset of the parameter set);
            validated up front by :class:`~repro.api.specs.TuneSpec`.
    """

    name: str
    summary: str
    adapter_factory: Callable[..., Any]
    load_table: Callable[[str, Any], Any]
    engine_factory: Optional[Callable[..., Any]] = None
    timeline_factory: Optional[Callable[[Any], Any]] = None
    sweep_fields: Mapping[str, Callable[[Any, int], None]] = field(default_factory=dict)
    opcode_sweep_fields: Mapping[str, Callable[..., None]] = field(default_factory=dict)
    supports_partial_learning: bool = True

    def create_adapter(self, uarch: Any, **kwargs: Any) -> Any:
        """Build the simulator's adapter for ``uarch``."""
        return self.adapter_factory(uarch, **kwargs)


@dataclass(frozen=True)
class BaselinePlugin:
    """One baseline from the paper's comparison grid (Table IV).

    Two kinds exist:

    * ``kind="search"`` — black-box parameter-table search; ``run`` has the
      uniform signature ``(adapter, blocks, timings, *, budget, seed) ->
      ParameterArrays``.
    * ``kind="predictor"`` — a standalone timing predictor (not a tuner);
      ``build`` constructs it (signature is plugin-specific, documented in
      ``summary``), and ``run`` is ``None``.
    """

    name: str
    summary: str
    kind: str  # "search" | "predictor"
    run: Optional[Callable[..., Any]] = None
    build: Optional[Callable[..., Any]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("search", "predictor"):
            raise ValueError(f"baseline kind must be 'search' or 'predictor', "
                             f"got {self.kind!r}")
        if self.kind == "search" and self.run is None:
            raise ValueError(f"search baseline {self.name!r} must define run")
        if self.kind == "predictor" and self.build is None:
            raise ValueError(f"predictor baseline {self.name!r} must define build")


def search_baseline_names(registry: Any) -> Sequence[str]:
    """Canonical keys of the ``kind="search"`` baselines in ``registry``."""
    return [name for name, plugin in registry.items() if plugin.kind == "search"]
