"""Typed specification objects for the public API.

A spec is a plain dataclass describing *what* to run — which target,
simulator, preset, dataset, and knobs — without constructing anything.
Specs replace the loose kwarg plumbing that previously threaded through the
CLI, the pipeline, and the benchmark harness:

* they round-trip through JSON (:meth:`_SpecBase.to_dict` /
  :meth:`_SpecBase.from_dict`), so a CLI invocation, a config file, and a
  programmatic call are the same object;
* they validate eagerly with errors that *name the bad field*
  (:class:`SpecValidationError`), including the registry's did-you-mean
  suggestion for misspelled component keys.

:class:`~repro.api.session.Session` consumes them:
``Session.from_spec(TuneSpec(target="skylake")).tune()``.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Type, TypeVar

from repro.api.registries import PRESETS, SIMULATORS, SURROGATES, TARGETS
from repro.api.registry import UnknownKeyError


class SpecValidationError(ValueError):
    """A spec field failed validation; ``field`` names the offender."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


_SpecT = TypeVar("_SpecT", bound="_SpecBase")

#: Types a spec field may hold in its JSON form.
_ATOMIC_TYPES = (bool, int, float, str)


@dataclass
class _SpecBase:
    """Shared JSON round-trip and validation machinery."""

    @classmethod
    def from_dict(cls: Type[_SpecT], payload: Dict[str, Any]) -> _SpecT:
        """Build a validated spec from a plain dict (JSON/CLI round-trip).

        Unknown keys raise :class:`SpecValidationError` naming the key and,
        when close to a real field, suggesting it.
        """
        if not isinstance(payload, dict):
            raise SpecValidationError(
                "<payload>", f"expected a dict for {cls.__name__}, "
                             f"got {type(payload).__name__}")
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        for key in payload:
            if key not in known:
                close = difflib.get_close_matches(str(key), sorted(known), n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise SpecValidationError(
                    str(key), f"unknown field for {cls.__name__}{hint} "
                              f"(known fields: {', '.join(sorted(known))})")
        spec = cls(**payload)
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable dict; ``from_dict(to_dict())`` round-trips."""
        return dataclasses.asdict(self)

    # ------------------------------------------------------------------
    # Field checks shared by the concrete specs
    # ------------------------------------------------------------------
    def _check_type(self, name: str, expected: tuple, allow_none: bool = False) -> None:
        value = getattr(self, name)
        if value is None:
            if allow_none:
                return
            raise SpecValidationError(name, "must not be None")
        # bool is an int subclass; reject True where an int count is expected.
        if int in expected and bool not in expected and isinstance(value, bool):
            raise SpecValidationError(name, f"expected int, got bool ({value!r})")
        if not isinstance(value, expected):
            names = "/".join(kind.__name__ for kind in expected)
            raise SpecValidationError(
                name, f"expected {names}, got {type(value).__name__} ({value!r})")

    def _check_registry(self, name: str, registry: Any,
                        allow_none: bool = False) -> None:
        value = getattr(self, name)
        if value is None and allow_none:
            return
        self._check_type(name, (str,))
        try:
            registry.resolve(value)
        except UnknownKeyError as error:
            raise SpecValidationError(name, str(error)) from error

    def _check_positive(self, name: str) -> None:
        self._check_type(name, (int,))
        if getattr(self, name) < 1:
            raise SpecValidationError(name, f"must be >= 1, got {getattr(self, name)}")

    def _check_non_negative(self, name: str) -> None:
        self._check_type(name, (int,))
        if getattr(self, name) < 0:
            raise SpecValidationError(name, f"must be >= 0, got {getattr(self, name)}")

    def _check_common(self) -> None:
        self._check_registry("target", TARGETS)
        self._check_registry("simulator", SIMULATORS)
        self._check_non_negative("engine_workers")

    def validate(self) -> None:
        raise NotImplementedError


@dataclass
class TuneSpec(_SpecBase):
    """One end-to-end tuning run: dataset + simulator + DiffTune knobs.

    ``dataset_path`` takes precedence over ``num_blocks``/``seed`` dataset
    generation (the seed still seeds the optimization itself).
    """

    target: str = "haswell"
    simulator: str = "mca"
    preset: str = "fast"
    #: Optional surrogate-kind override of the preset's choice.
    surrogate: Optional[str] = None
    num_blocks: int = 300
    seed: int = 0
    dataset_path: Optional[str] = None
    #: Directory of a pre-built sharded corpus (see :class:`CorpusSpec` /
    #: ``repro corpus build``).  Mutually exclusive with ``dataset_path``;
    #: collection and surrogate training then stream from disk.
    corpus_path: Optional[str] = None
    learn_fields: Optional[List[str]] = None
    narrow_sampling: bool = True
    engine_workers: int = 0
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    stop_after: Optional[str] = None

    def validate(self) -> None:
        self._check_common()
        self._check_registry("preset", PRESETS)
        self._check_registry("surrogate", SURROGATES, allow_none=True)
        self._check_positive("num_blocks")
        self._check_non_negative("seed")
        self._check_type("dataset_path", (str,), allow_none=True)
        self._check_type("corpus_path", (str,), allow_none=True)
        if self.dataset_path is not None and self.corpus_path is not None:
            raise SpecValidationError(
                "corpus_path", "mutually exclusive with dataset_path; a corpus "
                               "carries its own blocks and timings")
        if self.learn_fields is not None:
            if (not isinstance(self.learn_fields, (list, tuple))
                    or not all(isinstance(item, str) for item in self.learn_fields)):
                raise SpecValidationError(
                    "learn_fields", f"expected a list of field names, "
                                    f"got {self.learn_fields!r}")
            plugin = SIMULATORS.get(self.simulator)
            if not getattr(plugin, "supports_partial_learning", True):
                supported = [name for name, candidate in SIMULATORS.items()
                             if getattr(candidate, "supports_partial_learning", True)]
                raise SpecValidationError(
                    "learn_fields",
                    f"simulator {self.simulator!r} learns its full parameter "
                    f"set and does not support learn_fields; simulators that "
                    f"do: {', '.join(supported)}")
            self._check_learn_field_names(plugin)
        for flag in ("narrow_sampling", "resume"):
            self._check_type(flag, (bool,))
        self._check_type("checkpoint_dir", (str,), allow_none=True)
        self._check_type("stop_after", (str,), allow_none=True)
        if self.resume and self.checkpoint_dir is None:
            raise SpecValidationError("resume", "requires checkpoint_dir to be set")
        if self.stop_after is not None:
            if self.checkpoint_dir is None:
                raise SpecValidationError("stop_after",
                                          "requires checkpoint_dir to be set")
            from repro.pipeline.stages import build_stages

            stages = [stage.name for stage in
                      build_stages(PRESETS.get(self.preset)(self.seed))]
            if self.stop_after not in stages:
                raise SpecValidationError(
                    "stop_after", f"unknown stage {self.stop_after!r} for preset "
                                  f"{self.preset!r}; expected one of "
                                  f"{', '.join(stages)}")

    def _check_learn_field_names(self, plugin: Any) -> None:
        """Every ``learn_fields`` entry names a parameter field of the simulator.

        An unknown name would otherwise freeze every field and run the whole
        pipeline to return the default table, so it fails here instead.
        """
        if not self.learn_fields:
            raise SpecValidationError(
                "learn_fields", "must name at least one parameter field "
                                "(None learns every field)")
        spec = plugin.create_adapter(TARGETS.get(self.target)).parameter_spec()
        known = [parameter_field.name for parameter_field in
                 spec.global_fields + spec.per_instruction_fields]
        for name in self.learn_fields:
            if name in known:
                continue
            close = ([candidate for candidate in known
                      if candidate.lower() == name.lower()]
                     or difflib.get_close_matches(name, known, n=1))
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise SpecValidationError(
                "learn_fields", f"unknown parameter field {name!r} for simulator "
                                f"{self.simulator!r}{hint} (fields: "
                                f"{', '.join(known)})")


@dataclass
class EvaluateSpec(_SpecBase):
    """Evaluate a parameter table (learned or default) on a dataset split."""

    target: str = "haswell"
    simulator: str = "mca"
    num_blocks: int = 300
    seed: int = 0
    dataset_path: Optional[str] = None
    #: Directory of a pre-built sharded corpus; mutually exclusive with
    #: ``dataset_path``.
    corpus_path: Optional[str] = None
    #: Learned table JSON; ``None`` evaluates the expert default table.
    table_path: Optional[str] = None
    split: str = "test"
    engine_workers: int = 0

    def validate(self) -> None:
        self._check_common()
        self._check_positive("num_blocks")
        self._check_non_negative("seed")
        self._check_type("dataset_path", (str,), allow_none=True)
        self._check_type("corpus_path", (str,), allow_none=True)
        if self.dataset_path is not None and self.corpus_path is not None:
            raise SpecValidationError(
                "corpus_path", "mutually exclusive with dataset_path; a corpus "
                               "carries its own blocks and timings")
        self._check_type("table_path", (str,), allow_none=True)
        if self.corpus_path is not None:
            if self.split not in ("train", "validation", "test"):
                raise SpecValidationError(
                    "split", f"expected 'train', 'validation', or 'test', "
                             f"got {self.split!r}")
        elif self.split not in ("train", "test"):
            raise SpecValidationError(
                "split", f"expected 'train' or 'test' ('validation' needs a "
                         f"corpus_path), got {self.split!r}")


@dataclass
class CorpusSpec(_SpecBase):
    """Build (or open) a sharded on-disk block corpus for one target.

    Describes the output of ``repro corpus build``: ``num_blocks`` synthetic
    blocks with simulated-hardware timings, streamed into ``shard_size``-block
    shards under ``directory`` with a digest-carrying manifest.  Building is
    resumable at every shard boundary (``resume=True`` continues a killed
    build bit-identically); ``featurize=True`` additionally materializes the
    memory-mapped featurization store next to the shards.  A corpus directory
    plugs into :class:`TuneSpec`/:class:`EvaluateSpec` via ``corpus_path``.
    """

    target: str = "haswell"
    simulator: str = "mca"
    directory: str = ""
    num_blocks: int = 2000
    shard_size: int = 1024
    seed: int = 0
    featurize: bool = False
    resume: bool = False
    engine_workers: int = 0

    def validate(self) -> None:
        self._check_common()
        self._check_type("directory", (str,))
        if not self.directory:
            raise SpecValidationError("directory", "must name the corpus directory")
        self._check_positive("num_blocks")
        self._check_positive("shard_size")
        self._check_non_negative("seed")
        self._check_type("featurize", (bool,))
        self._check_type("resume", (bool,))


@dataclass
class PredictSpec(_SpecBase):
    """Batched timing prediction: blocks x tables through the engine."""

    target: str = "haswell"
    simulator: str = "mca"
    #: Learned table JSON; ``None`` predicts under the expert default table.
    table_path: Optional[str] = None
    engine_workers: int = 0

    def validate(self) -> None:
        self._check_common()
        self._check_type("table_path", (str,), allow_none=True)


@dataclass
class BundleSpec(_SpecBase):
    """What goes into a single-file deployment bundle (see :mod:`repro.api.bundle`).

    A bundle freezes one (target, simulator, parameter table) triple — plus,
    optionally, the trained surrogate — into an archive that
    :meth:`~repro.api.session.Session.from_bundle` and the serving layer load
    without the tuning stack.  ``table_path=None`` bundles the expert default
    table; ``surrogate`` names the surrogate kind whose weights ride along
    (``None`` ships the table only).
    """

    target: str = "haswell"
    simulator: str = "mca"
    #: Learned table JSON to bundle; ``None`` bundles the expert default table.
    table_path: Optional[str] = None
    #: Surrogate kind of the embedded weights (``None``: no surrogate member).
    surrogate: Optional[str] = None
    engine_workers: int = 0

    def validate(self) -> None:
        self._check_common()
        self._check_type("table_path", (str,), allow_none=True)
        self._check_registry("surrogate", SURROGATES, allow_none=True)


@dataclass
class ServeSpec(_SpecBase):
    """One inference-server deployment: what to load and how to batch.

    Either ``bundle_path`` (a deployment bundle, which pins target, simulator
    and table) or the ``target``/``simulator``/``table_path`` triple describes
    the model; the remaining fields are the server knobs.  Consumed by
    :class:`repro.serving.InferenceServer` and the ``repro serve`` CLI.
    """

    target: str = "haswell"
    simulator: str = "mca"
    #: Deployment bundle to serve; overrides target/simulator/table_path.
    bundle_path: Optional[str] = None
    #: Learned table JSON; ``None`` serves the expert default table.
    table_path: Optional[str] = None
    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (reported once the server is up).
    port: int = 8000
    #: Most blocks coalesced into one engine megabatch.
    max_batch_size: int = 64
    #: How long the coalescer holds the first request of a batch open for
    #: company, in milliseconds.  ``0`` executes every request immediately.
    max_batch_wait_ms: float = 2.0
    #: Capacity of the result LRU.
    cache_size: int = 4096
    engine_workers: int = 0

    def validate(self) -> None:
        self._check_common()
        self._check_type("bundle_path", (str,), allow_none=True)
        self._check_type("table_path", (str,), allow_none=True)
        self._check_type("host", (str,))
        self._check_type("port", (int,))
        if not 0 <= self.port <= 65535:
            raise SpecValidationError("port", f"must be in [0, 65535], got {self.port}")
        self._check_positive("max_batch_size")
        self._check_type("max_batch_wait_ms", (int, float))
        if self.max_batch_wait_ms < 0:
            raise SpecValidationError(
                "max_batch_wait_ms", f"must be >= 0, got {self.max_batch_wait_ms}")
        self._check_positive("cache_size")
        if self.bundle_path is not None and self.table_path is not None:
            raise SpecValidationError(
                "table_path", "a bundle pins its own table; pass either "
                              "bundle_path or table_path, not both")
