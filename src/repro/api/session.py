"""The :class:`Session` facade: one construction path for the whole system.

A session binds a validated spec (:mod:`repro.api.specs`) to live components
resolved through the registries (:mod:`repro.api.registries`) and exposes
the three verbs the CLI, the pipeline, the benchmark harness, and user code
all need:

* :meth:`Session.tune` — an end-to-end DiffTune run
  (:meth:`DiffTune.learn <repro.core.difftune.DiffTune.learn>`, with
  ``checkpoint_dir``/``resume``/``stop_after`` from the spec);
* :meth:`Session.evaluate` — error / Kendall's tau of a parameter table on a
  dataset split;
* :meth:`Session.predict` — batched ``tables x blocks`` timings through the
  shared :class:`~repro.engine.engine.SimulationEngine`, whose compile and
  result caches persist across calls on the same session.

Everything heavier than the spec is constructed lazily and memoized, so a
session is cheap to create and cheap to interrogate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.plugins import SimulatorPlugin
from repro.api.registries import PRESETS, SIMULATORS, SURROGATES, TARGETS
from repro.api.specs import (BundleSpec, CorpusSpec, EvaluateSpec, PredictSpec,
                             SpecValidationError, TuneSpec)
from repro.campaigns.spec import CampaignSpec

#: Specs a session can be created from.
AnySpec = Union[TuneSpec, EvaluateSpec, PredictSpec, BundleSpec, CorpusSpec,
                CampaignSpec]


class CapabilityError(RuntimeError):
    """A simulator plugin lacks the capability a call requires."""


@dataclass
class SessionTuneResult:
    """Outcome of one :meth:`Session.tune` call (plain data).

    ``completed=False`` means the run stopped at ``stopped_after`` (the
    spec's ``stop_after`` stage) with its progress checkpointed; re-running
    with ``resume=True`` finishes it.
    """

    completed: bool
    learned_arrays: Optional[Any] = None
    learned_table: Optional[Any] = None
    train_error: Optional[float] = None
    test_error: Optional[float] = None
    default_test_error: Optional[float] = None
    elapsed_seconds: float = 0.0
    resumed_stages: List[str] = field(default_factory=list)
    stopped_after: Optional[str] = None
    #: The underlying :class:`~repro.core.difftune.DiffTuneResult`.
    raw: Optional[Any] = None


class Session:
    """Registry-resolved components behind one typed entry point.

    Create sessions with :meth:`from_spec`; the constructor takes an
    already-validated spec.  All component construction flows through the
    registries, so a third-party target or simulator registered via entry
    points works here, in the CLI, and in the benchmark harness alike.
    """

    def __init__(self, spec: AnySpec) -> None:
        if not isinstance(spec, (TuneSpec, EvaluateSpec, PredictSpec, BundleSpec,
                                 CorpusSpec, CampaignSpec)):
            raise TypeError(f"expected TuneSpec/EvaluateSpec/PredictSpec/"
                            f"BundleSpec/CorpusSpec/CampaignSpec, "
                            f"got {type(spec).__name__}")
        spec.validate()
        self.spec = spec
        self._dataset: Any = None
        self._corpus: Any = None
        self._featurization_store: Any = None
        self._adapter: Any = None
        self._config: Any = None
        #: path -> parsed table, so repeated predict/evaluate/timeline calls
        #: on one session do not re-read the table JSON from disk.
        self._table_cache: Dict[str, Any] = {}
        #: Table pinned by :meth:`from_bundle`; preferred over the default
        #: table whenever no explicit table/path is given.
        self._bound_table: Any = None
        #: The manifest of the bundle this session was loaded from, if any.
        self.bundle_manifest: Any = None
        self._bundle_surrogate_state: Any = None
        #: Surrogate trained by the most recent :meth:`tune` on this session
        #: (what :meth:`export_bundle` ships by default).
        self._last_surrogate: Any = None
        self._predict_calls = 0
        self._predicted_blocks = 0
        self._predicted_pairs = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Optional[Union[AnySpec, Dict[str, Any]]] = None,
                  **overrides: Any) -> "Session":
        """Build a session from a spec, a plain dict, or keyword arguments.

        ``overrides`` update the spec's fields (handy for CLI plumbing)::

            Session.from_spec(TuneSpec(), target="skylake", seed=3)
            Session.from_spec({"target": "zen2", "num_blocks": 100})
            Session.from_spec(simulator="llvm_sim")   # defaults to TuneSpec
        """
        if spec is None or isinstance(spec, dict):
            spec = TuneSpec.from_dict({**(spec or {}), **overrides})
        elif isinstance(spec, (TuneSpec, EvaluateSpec, PredictSpec, BundleSpec,
                               CorpusSpec, CampaignSpec)):
            spec = spec.with_overrides(overrides)
        else:
            raise TypeError(f"expected a spec, dict, or keyword arguments; "
                            f"got {type(spec).__name__}")
        return cls(spec)

    @classmethod
    def from_bundle(cls, path: str, **overrides: Any) -> "Session":
        """A ready-to-predict session from a deployment bundle.

        Opens the archive written by :meth:`export_bundle`, verifies every
        manifest digest and the schema version, and binds the bundled table
        as the session's default — ``session.predict(blocks)`` then serves
        the learned table with no further setup.  ``overrides`` update the
        engine knob (``engine_workers``).
        """
        from repro.api.bundle import load_bundle

        bundle = load_bundle(path)
        payload: Dict[str, Any] = {
            "target": bundle.manifest.target,
            "simulator": bundle.manifest.simulator,
            "engine_workers": bundle.manifest.spec.get("engine_workers", 0),
        }
        payload.update(overrides)
        session = cls(PredictSpec.from_dict(payload))
        session._bound_table = session.adapter.table_from_arrays(bundle.arrays)
        session.bundle_manifest = bundle.manifest
        session._bundle_surrogate_state = bundle.surrogate_state
        return session

    # ------------------------------------------------------------------
    # Resolved components (lazy, memoized)
    # ------------------------------------------------------------------
    def _spec_get(self, name: str, default: Any = None) -> Any:
        return getattr(self.spec, name, default)

    @property
    def target_name(self) -> str:
        """Canonical target key (derived from the dataset file when given)."""
        if self._spec_get("dataset_path") is not None:
            return TARGETS.resolve(self.dataset().uarch_name)
        return TARGETS.resolve(self.spec.target)

    @property
    def uarch(self) -> Any:
        """The resolved :class:`~repro.targets.uarch.UarchSpec`."""
        return TARGETS.get(self.target_name)

    @property
    def plugin(self) -> SimulatorPlugin:
        """The resolved :class:`~repro.api.plugins.SimulatorPlugin`."""
        return SIMULATORS.get(self.spec.simulator)

    @property
    def adapter(self) -> Any:
        """The simulator adapter (shared engine caches live here)."""
        if self._adapter is None:
            kwargs: Dict[str, Any] = {
                "engine_workers": self._spec_get("engine_workers", 0),
            }
            narrow = self._spec_get("narrow_sampling")
            if narrow is not None:
                kwargs["narrow_sampling"] = narrow
            learn_fields = self._spec_get("learn_fields")
            if learn_fields is not None:
                kwargs["learn_fields"] = list(learn_fields)
            self._adapter = self.plugin.create_adapter(self.uarch, **kwargs)
        return self._adapter

    @property
    def config(self) -> Any:
        """The :class:`~repro.core.difftune.DiffTuneConfig` from the preset."""
        if self._config is None:
            preset = PRESETS.get(self._spec_get("preset", "fast"))
            config = preset(self._spec_get("seed", 0))
            surrogate = self._spec_get("surrogate")
            if surrogate is not None:
                config.surrogate.kind = SURROGATES.resolve(surrogate)
            self._config = config
        return self._config

    def dataset(self) -> Any:
        """The measured dataset: loaded from ``dataset_path`` or generated."""
        if self._dataset is None:
            from repro.bhive import BasicBlockDataset, build_dataset

            path = self._spec_get("dataset_path")
            if path is not None:
                self._dataset = BasicBlockDataset.load_json(path)
            else:
                self._dataset = build_dataset(
                    self.target_name, num_blocks=self._spec_get("num_blocks", 300),
                    seed=self._spec_get("seed", 0))
        return self._dataset

    # ------------------------------------------------------------------
    # Sharded corpora
    # ------------------------------------------------------------------
    def _corpus_directory(self) -> Optional[str]:
        if isinstance(self.spec, CorpusSpec):
            return self.spec.directory
        return self._spec_get("corpus_path")

    def corpus(self) -> Any:
        """The session's sharded corpus, opened lazily (``None`` without one).

        Available on :class:`~repro.api.specs.CorpusSpec` sessions and on
        tune/evaluate specs carrying ``corpus_path``.  The on-disk uarch must
        match the spec's target.
        """
        if self._corpus is None:
            directory = self._corpus_directory()
            if directory is None:
                return None
            from repro.corpus import ShardedCorpus

            corpus = ShardedCorpus(directory)
            from repro.api.registries import same_target

            if not same_target(corpus.uarch_name, self.target_name):
                raise SpecValidationError(
                    "corpus_path", f"corpus at {directory!r} was generated for "
                                   f"{corpus.uarch_name!r}, not "
                                   f"{self.target_name!r}")
            self._corpus = corpus
        return self._corpus

    def build_corpus(self) -> Any:
        """Build (or resume, or just open) the spec's corpus on disk.

        Requires a :class:`~repro.api.specs.CorpusSpec`.  A complete corpus
        with matching parameters is opened as-is; an interrupted build
        continues bit-identically when the spec says ``resume=True``.  With
        ``featurize=True`` the memory-mapped featurization store is
        materialized next to the shards as well.  The build logs its
        progress under ``repro.corpus.sharded``.
        """
        if not isinstance(self.spec, CorpusSpec):
            raise TypeError("build_corpus() requires a CorpusSpec session")
        from repro.corpus import ShardedCorpus

        self._corpus = ShardedCorpus.build(
            self.spec.directory, uarch_name=self.target_name,
            num_blocks=self.spec.num_blocks, seed=self.spec.seed,
            shard_size=self.spec.shard_size, resume=self.spec.resume)
        if self.spec.featurize:
            self.featurization_store()
        return self._corpus

    def featurization_store(self) -> Any:
        """The corpus's mmap featurization store, built/extended on first use."""
        if self._featurization_store is None:
            corpus = self.corpus()
            if corpus is None:
                return None
            import os

            from repro.core.surrogate import BlockFeaturizer
            from repro.corpus import ShardedFeaturizationStore

            self._featurization_store = ShardedFeaturizationStore(
                os.path.join(corpus.directory, "featurization"),
                BlockFeaturizer(self.adapter.opcode_table)).ensure(corpus)
        return self._featurization_store

    def split(self, which: str = "test") -> Tuple[List[Any], np.ndarray]:
        """``(blocks, timings)`` of one dataset split.

        Corpus-backed sessions return a lazy
        :class:`~repro.corpus.sharded.CorpusView` (and support the
        ``validation`` split); plain sessions materialize block lists from
        the generated/loaded dataset.
        """
        corpus = self.corpus()
        if corpus is not None:
            view = corpus.split_view(which)
            return view, view.timings()
        if which not in ("train", "test"):
            raise ValueError(f"expected 'train' or 'test', got {which!r}")
        examples = (self.dataset().train_examples if which == "train"
                    else self.dataset().test_examples)
        return ([example.block for example in examples],
                np.array([example.timing for example in examples]))

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def default_table(self) -> Any:
        """The expert default parameter table for this target/simulator."""
        return self.adapter.default_table()

    def load_table(self, path: str) -> Any:
        """Load a learned table JSON through the simulator plugin.

        Memoized per path on this session; callers that mutate the result
        should ``copy()`` it first (as campaign variants do).
        """
        table = self._table_cache.get(path)
        if table is None:
            table = self.plugin.load_table(path, self.adapter.opcode_table)
            self._table_cache[path] = table
        return table

    def load_table_or_default(self, path: Optional[str]) -> Any:
        """``load_table(path)``, the bundle-bound table, or the default.

        Precedence: an explicit ``path`` wins; a session created by
        :meth:`from_bundle` then serves its bundled table; everything else
        falls back to the expert default table.
        """
        if path:
            return self.load_table(path)
        if self._bound_table is not None:
            return self._bound_table
        return self.default_table()

    def table_from_arrays(self, arrays: Any) -> Any:
        """Convert optimization-layout arrays to a native table."""
        return self.adapter.table_from_arrays(arrays)

    # ------------------------------------------------------------------
    # The three verbs
    # ------------------------------------------------------------------
    def tune(self, blocks: Optional[Sequence[Any]] = None,
             timings: Optional[np.ndarray] = None) -> SessionTuneResult:
        """Run DiffTune end to end; bit-identical to the pre-facade path.

        Without arguments, tunes on the session dataset's train split and
        reports test-split errors; a corpus-backed session's train view
        carries the corpus's featurization store.  With explicit
        ``blocks``/``timings``, tunes on those and skips the test metrics.
        ``checkpoint_dir`` / ``resume`` / ``stop_after`` come from the spec.
        """
        from repro.core.difftune import DiffTune
        from repro.eval.metrics import error_and_tau

        own_dataset = blocks is None
        if own_dataset:
            blocks, timings = self.split("train")
            self._check_tune_splits(len(blocks), len(self.split("test")[0]))
            if self.corpus() is not None:
                blocks = blocks.with_featurization_store(self.featurization_store())
        if timings is None:
            raise ValueError("timings must accompany explicit blocks")
        start_time = time.time()
        difftune = DiffTune(self.adapter, self.config)
        result = difftune.learn(blocks, np.asarray(timings, dtype=np.float64),
                                checkpoint_dir=self._spec_get("checkpoint_dir"),
                                resume=self._spec_get("resume", False),
                                stop_after=self._spec_get("stop_after"))
        elapsed = time.time() - start_time
        if result is None:
            return SessionTuneResult(completed=False, elapsed_seconds=elapsed,
                                     stopped_after=self._spec_get("stop_after"))
        self._last_surrogate = getattr(result, "surrogate", None)
        outcome = SessionTuneResult(
            completed=True,
            learned_arrays=result.learned_arrays,
            learned_table=self.adapter.table_from_arrays(result.learned_arrays),
            train_error=result.train_error,
            elapsed_seconds=elapsed,
            resumed_stages=list(result.resumed_stages),
            raw=result)
        if own_dataset:
            test_blocks, test_timings = self.split("test")
            outcome.test_error = float(error_and_tau(
                self.adapter.predict_timings(result.learned_arrays, test_blocks),
                test_timings)[0])
            outcome.default_test_error = float(error_and_tau(
                self.adapter.predict_timings(self.adapter.default_arrays(),
                                             test_blocks),
                test_timings)[0])
        return outcome

    def _check_tune_splits(self, train_size: int, test_size: int) -> None:
        """Reject, before any simulation, splits tuning cannot use.

        :meth:`tune` and ``repro tune-baseline`` run it.  The train split
        must hold a block to tune on, and the test split two for Kendall's
        tau.  The split sizes depend on the measurement screen, so spec
        validation cannot check them; the error names the field the blocks
        came from.
        """
        if train_size >= 1 and test_size >= 2:
            return
        if self._corpus_directory() is not None:
            field = "corpus_path"
        elif self._spec_get("dataset_path") is not None:
            field = "dataset_path"
        else:
            field = "num_blocks"
        raise SpecValidationError(
            field, f"the measured blocks split into {train_size} train and "
                   f"{test_size} test blocks; tuning needs at least 1 train "
                   f"block and 2 test blocks")

    def evaluate(self, table: Optional[Any] = None,
                 split: Optional[str] = None) -> Dict[str, Any]:
        """Error and Kendall's tau of ``table`` on a dataset split.

        ``table`` may be a native table, a path to a table JSON, or ``None``
        (spec's ``table_path``, falling back to the default table).
        """
        from repro.eval.metrics import error_and_tau

        if table is None:
            table = self.load_table_or_default(self._spec_get("table_path"))
        elif isinstance(table, str):
            table = self.load_table(table)
        split = split or self._spec_get("split", "test")
        blocks, timings = self.split(split)
        predictions = self.predict(blocks, table)
        error, tau = error_and_tau(predictions, timings)
        return {
            "target": self.target_name,
            "simulator": SIMULATORS.resolve(self.spec.simulator),
            "split": split,
            "num_blocks": len(blocks),
            "error": float(error),
            "tau": float(tau),
        }

    def predict(self, blocks: Sequence[Any],
                tables: Optional[Any] = None) -> np.ndarray:
        """Simulated timings of ``blocks``, batched through the engine.

        ``tables`` may be ``None`` (spec's ``table_path``, a bundle-bound
        table, or the default table), one native table — returning shape
        ``(len(blocks),)`` — or a sequence of tables, returning
        ``(len(tables), len(blocks))``.  The engine's compile and result
        caches persist across calls on this session, so sweeps and repeated
        evaluations share work.  An empty block list short-circuits to an
        empty array without touching the engine.
        """
        blocks = list(blocks)
        self._predict_calls += 1
        self._predicted_blocks += len(blocks)
        if not blocks:
            if isinstance(tables, (list, tuple)):
                return np.empty((len(tables), 0), dtype=np.float64)
            return np.empty(0, dtype=np.float64)
        if tables is None:
            tables = self.load_table_or_default(self._spec_get("table_path"))
        if isinstance(tables, (list, tuple)):
            self._predicted_pairs += len(tables) * len(blocks)
            return self.adapter.engine.run(list(tables), blocks)
        self._predicted_pairs += len(blocks)
        return self.adapter.engine.run_one(tables, blocks)

    # ------------------------------------------------------------------
    # Simulator capabilities
    # ------------------------------------------------------------------
    def timeline(self, block: Any, table: Optional[Any] = None) -> str:
        """The per-cycle timeline / bottleneck report for one basic block.

        ``block`` may be a :class:`~repro.isa.basic_block.BasicBlock` or
        assembly text (``;`` separates instructions).  Raises
        :class:`CapabilityError` for simulators without a timeline view.
        """
        plugin = self.plugin
        if plugin.timeline_factory is None:
            supported = [name for name, candidate in SIMULATORS.items()
                         if candidate.timeline_factory is not None]
            raise CapabilityError(
                f"simulator {plugin.name!r} has no timeline view; "
                f"simulators with one: {', '.join(supported) or '<none>'}")
        if isinstance(block, str):
            from repro.isa.parser import parse_block

            block = parse_block(block.replace(";", "\n"), self.adapter.opcode_table)
        if table is None:
            table = self.load_table_or_default(self._spec_get("table_path"))
        return plugin.timeline_factory(table).summary(block)

    def run_campaign(self, spec: Optional[Union["CampaignSpec", Dict[str, Any]]] = None,
                     **overrides: Any) -> Any:
        """Run a declarative sweep campaign on this session's components.

        ``spec`` may be a :class:`~repro.campaigns.spec.CampaignSpec`, a
        plain spec dict, or ``None`` (campaign fields come entirely from
        ``overrides``, with the dataset/simulator identity inherited from
        this session's spec).  The campaign shares this session's adapter,
        so its engine compile/result caches carry across campaigns and
        :meth:`predict` calls.  Returns a
        :class:`~repro.campaigns.runner.CampaignResult`.
        """
        from repro.campaigns.runner import CampaignRunner

        if spec is None or isinstance(spec, dict):
            payload: Dict[str, Any] = {
                "simulator": SIMULATORS.resolve(self.spec.simulator)}
            for name in ("target", "dataset_path", "corpus_path", "num_blocks",
                         "seed", "table_path", "narrow_sampling",
                         "engine_workers"):
                value = self._spec_get(name)
                if value is not None:
                    payload[name] = value
            payload.update(spec or {})
            payload.update(overrides)
            spec = CampaignSpec.from_dict(payload)
        elif isinstance(spec, CampaignSpec):
            spec = spec.with_overrides(overrides)
        else:
            raise TypeError(f"expected a CampaignSpec, dict, or keyword "
                            f"arguments; got {type(spec).__name__}")
        return CampaignRunner(spec, session=self).run()

    def run_matrix(self, spec: Optional[Union[Any, Dict[str, Any]]] = None,
                   **overrides: Any) -> Any:
        """Fan one campaign across a ``(target, simulator)`` cell matrix.

        ``spec`` may be a
        :class:`~repro.distributed.spec.MatrixCampaignSpec`, a plain spec
        dict, or ``None`` (fields come entirely from ``overrides``).  Unlike
        :meth:`run_campaign` nothing is inherited from this session's
        identity — a matrix spans targets and simulators, so each cell
        builds its own session.  The scheduler logs under
        ``repro.distributed.scheduler``.  Returns a
        :class:`~repro.distributed.scheduler.MatrixResult`.
        """
        from repro.distributed.scheduler import run_matrix
        from repro.distributed.spec import MatrixCampaignSpec

        if spec is None or isinstance(spec, dict):
            spec = MatrixCampaignSpec.from_dict({**(spec or {}), **overrides})
        elif isinstance(spec, MatrixCampaignSpec):
            spec = spec.with_overrides(overrides)
        else:
            raise TypeError(f"expected a MatrixCampaignSpec, dict, or "
                            f"keyword arguments; got {type(spec).__name__}")
        return run_matrix(spec)

    def stats(self) -> Dict[str, Any]:
        """One stats surface for the whole session.

        ``engine`` holds the shared engine's cache/execution counters
        (``None`` for adapters without an engine); ``featurization`` the
        hit/miss/eviction counters of every featurizer's per-block cache
        in the process (:meth:`~repro.core.surrogate.BlockFeaturizer.arrays`;
        parameter inputs are normalized per minibatch and are not cached);
        the ``predict_*`` counters track this
        session's :meth:`predict` traffic.  The serving layer's ``/stats``
        endpoint re-exports exactly this payload.
        """
        from repro.core.surrogate import featurization_cache_stats

        try:
            engine: Optional[Dict[str, int]] = dict(self.adapter.engine.stats)
        except NotImplementedError:
            engine = None
        return {
            "engine": engine,
            "featurization": featurization_cache_stats(),
            "predict_calls": self._predict_calls,
            "predicted_blocks": self._predicted_blocks,
            "predicted_pairs": self._predicted_pairs,
        }

    # ------------------------------------------------------------------
    # Deployment bundles
    # ------------------------------------------------------------------
    def export_bundle(self, path: str, table: Optional[Any] = None,
                      surrogate: Optional[Any] = None) -> Any:
        """Write a single-file deployment bundle of this session's model.

        ``table`` (native table or a table-JSON path) defaults to the
        session's resolved table; ``surrogate`` defaults to the surrogate
        trained by this session's last :meth:`tune` call, when any.  Returns
        the written :class:`~repro.api.bundle.BundleManifest`.
        """
        from repro.api.bundle import export_bundle

        return export_bundle(self, path, table=table, surrogate=surrogate)

    def bundle_surrogate(self) -> Any:
        """Rebuild the surrogate shipped in this session's bundle.

        Only available on sessions created by :meth:`from_bundle` from a
        bundle that embedded surrogate weights; raises ``ValueError``
        otherwise.
        """
        if self._bundle_surrogate_state is None:
            raise ValueError("this session has no bundled surrogate weights "
                             "(load a bundle exported with a surrogate)")
        from repro.core.surrogate import (BlockFeaturizer, SurrogateConfig,
                                          build_surrogate)

        config = SurrogateConfig(**(self.bundle_manifest.surrogate or {}))
        surrogate = build_surrogate(self.adapter.parameter_spec(),
                                    BlockFeaturizer(self.adapter.opcode_table),
                                    config)
        surrogate.load_state_dict(self._bundle_surrogate_state)
        return surrogate

    def __repr__(self) -> str:
        return (f"Session(target={self._spec_get('target')!r}, "
                f"simulator={self.spec.simulator!r}, "
                f"spec={type(self.spec).__name__})")
