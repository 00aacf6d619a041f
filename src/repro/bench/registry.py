"""Scenario registry: every paper experiment as a first-class, runnable unit.

A :class:`Scenario` bundles what used to live in an ad-hoc ``benchmarks/``
script: a stable name, the microarchitectures it parametrizes over, and a
run callable that returns plain metric data; every scenario runs at the
tier's (smoke / quick / full) :class:`ExperimentScale` preset.  Scenarios
are declared with the :func:`scenario` decorator and collected in a
:class:`~repro.api.registry.Registry` of kind ``"scenario"``;
:data:`DEFAULT_REGISTRY` is what ``python -m repro.bench`` discovers, and
:func:`select` picks scenarios from a registry by name and tag.

The run callable receives a :class:`ScenarioContext` carrying the resolved
scale, the worker count for the simulation engine's parallel path, and a
dataset cache shared across scenarios in one runner invocation (the
equivalent of the old session-scoped ``haswell_dataset`` fixture).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.registry import Registry
from repro.eval.experiments import ExperimentScale


@dataclass
class ScenarioContext:
    """Everything a scenario's run callable needs, resolved by the runner."""

    tier: str
    scale: ExperimentScale
    uarch: Optional[str] = None
    workers: int = 0
    #: Shared ``(uarch, num_blocks, seed) -> BasicBlockDataset`` cache.
    dataset_cache: Dict[Tuple[str, int, int], Any] = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.scale.seed

    def by_tier(self, **values: Any) -> Any:
        """Pick a value per tier, e.g. ``ctx.by_tier(smoke=3, quick=8, full=10)``."""
        return values[self.tier]

    def dataset(self, uarch: Optional[str] = None, num_blocks: Optional[int] = None,
                seed: Optional[int] = None):
        """A measured dataset, memoized across scenarios in this run."""
        from repro.bhive import build_dataset

        uarch = uarch or self.uarch or "haswell"
        num_blocks = self.scale.num_blocks if num_blocks is None else num_blocks
        seed = self.scale.seed if seed is None else seed
        key = (uarch, num_blocks, seed)
        if key not in self.dataset_cache:
            self.dataset_cache[key] = build_dataset(uarch, num_blocks=num_blocks, seed=seed)
        return self.dataset_cache[key]

    def adapter(self, simulator: str = "mca", uarch_name: Optional[str] = None,
                **kwargs):
        """A simulator adapter resolved through the :mod:`repro.api` registries.

        Any registered simulator key works (``"mca"``, ``"llvm_sim"``, or an
        entry-point plugin); the adapter's engine gets this run's workers.
        """
        from repro.api.registries import SIMULATORS, TARGETS

        kwargs.setdefault("engine_workers", self.workers)
        return SIMULATORS.get(simulator).create_adapter(
            TARGETS.get(uarch_name or self.uarch or "haswell"), **kwargs)

    def session(self, spec=None, **overrides):
        """A :class:`repro.api.Session` for this run.

        When built from keyword arguments or a dict, ``engine_workers``
        defaults to this run's ``--workers`` and ``target`` to the scenario's
        uarch.  An explicit spec object is taken verbatim — a field the
        caller set is never overridden by the run defaults.
        """
        from repro.api import Session

        if spec is None or isinstance(spec, dict):
            payload = dict(spec or {})
            payload.update(overrides)
            payload.setdefault("engine_workers", self.workers)
            if self.uarch is not None:
                payload.setdefault("target", self.uarch)
            return Session.from_spec(payload)
        return Session.from_spec(spec, **overrides)

    def engine(self, simulator: str = "mca", **kwargs):
        """A standalone simulation engine honoring this run's ``--workers``."""
        from repro.api.registries import SIMULATORS

        kwargs.setdefault("num_workers", self.workers)
        plugin = SIMULATORS.get(simulator)
        if plugin.engine_factory is None:
            raise ValueError(f"simulator {simulator!r} does not provide a "
                             f"standalone engine factory")
        return plugin.engine_factory(**kwargs)


#: Signature of a scenario's run callable.
RunCallable = Callable[[ScenarioContext], Any]


@dataclass(frozen=True)
class Scenario:
    """One registered experiment from the paper's evaluation grid.

    Its scale is the tier's :meth:`ExperimentScale.for_tier` preset.
    """

    name: str
    description: str
    run: RunCallable
    #: Microarchitectures to parametrize over.  ``None`` means the scenario
    #: manages its own targets and runs exactly once; otherwise the runner
    #: invokes ``run`` once per entry and keys the metrics by uarch.
    uarches: Optional[Tuple[str, ...]] = None
    tags: Tuple[str, ...] = ()


#: The registry ``python -m repro.bench`` discovers.
DEFAULT_REGISTRY = Registry("scenario")


def select(registry: Registry, names: Optional[Sequence[str]] = None,
           tags: Optional[Iterable[str]] = None) -> List[Scenario]:
    """Scenarios by explicit name and/or tag; no filters selects all."""
    selected = [registry.get(name) for name in (names or registry.names())]
    if tags:
        wanted = set(tags)
        selected = [entry for entry in selected if wanted.intersection(entry.tags)]
    return selected


def scenario(name: str, description: str = "",
             uarches: Optional[Sequence[str]] = None,
             tags: Sequence[str] = (),
             registry: Optional[Registry] = None) -> Callable[[RunCallable], Scenario]:
    """Decorator registering a run callable as a :class:`Scenario`.

    The decorated function is replaced by the Scenario object.  Registering
    the same Scenario object again is a no-op; a different scenario under a
    taken name raises :class:`~repro.api.registry.DuplicateKeyError`.
    """

    def decorate(run: RunCallable) -> Scenario:
        doc = (run.__doc__ or "").strip()
        declared = Scenario(
            name=name,
            description=description or (doc.splitlines()[0] if doc else name),
            run=run,
            uarches=tuple(uarches) if uarches is not None else None,
            tags=tuple(tags),
        )
        # `is not None`, not truthiness: an empty registry has len() == 0.
        target = registry if registry is not None else DEFAULT_REGISTRY
        return target.register(name, declared, summary=declared.description)

    return decorate
