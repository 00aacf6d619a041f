"""Declarative campaign specifications.

A campaign sweeps a population of parameter-table variants over a block
corpus and reports distributional impact — the microarchitectural analogue
of a microsimulation study sweeping a policy table over a population.  The
spec layer names *what* to sweep without constructing anything:

* :class:`AxisSpec` — one swept parameter axis: a global field
  (``DispatchWidth``), a per-opcode field (``WriteLatency`` of ``PUSH64r``),
  or a per-opcode-per-port field (``PortMap`` of ``ADD32rr`` on port 2),
  with either an explicit value list or an inclusive ``low:high:step`` range;
* :class:`CampaignSpec` — the axes plus a sampling strategy from the
  STRATEGIES registry, the dataset/split to evaluate on, chunking and
  checkpointing knobs, and report shaping knobs.

Both round-trip through JSON and validate eagerly with registry-backed
did-you-mean suggestions, like every other :mod:`repro.api` spec.  Axis
*resolution* — turning an :class:`AxisSpec` into a concrete
``(table, value) -> None`` applier against one simulator's plugin — lives
here too (:func:`resolve_axes`) so the runner,
:func:`~repro.campaigns.runner.sweep_error_curve` and eager validation all
share one code path.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.registries import SIMULATORS, STRATEGIES
from repro.api.specs import SpecValidationError, _SpecBase

#: Sentinel assignment key for "a freshly sampled full table" (no axes).
#: The value is the draw index into the campaign's rng stream, so adaptive
#: strategies can re-propose a surviving sample without redrawing it.
SAMPLE_KEY = "__sample__"


@dataclass
class AxisSpec(_SpecBase):
    """One swept parameter axis.

    Exactly one of ``values`` or the ``low``/``high`` pair describes the
    swept values; ``low``/``high`` are inclusive and stepped by ``step``.
    ``opcode`` selects a per-opcode field; ``port`` additionally selects a
    port column for fields whose setter takes one (``PortMap``).
    """

    field: str = ""
    opcode: Optional[str] = None
    port: Optional[int] = None
    values: Optional[List[int]] = None
    low: Optional[int] = None
    high: Optional[int] = None
    step: int = 1

    def validate(self) -> None:
        self._check_type("field", (str,))
        if not self.field:
            raise SpecValidationError("field", "must name a sweepable field")
        self._check_type("opcode", (str,), allow_none=True)
        self._check_type("port", (int,), allow_none=True)
        self._check_positive("step")
        if self.values is not None:
            if self.low is not None or self.high is not None:
                raise SpecValidationError(
                    "values", "pass either values or low/high, not both")
            if (not isinstance(self.values, (list, tuple)) or not self.values
                    or not all(isinstance(item, int) and not isinstance(item, bool)
                               for item in self.values)):
                raise SpecValidationError(
                    "values", f"expected a non-empty list of ints, got {self.values!r}")
        else:
            self._check_type("low", (int,))
            self._check_type("high", (int,))
            if self.high < self.low:
                raise SpecValidationError(
                    "high", f"must be >= low ({self.low}), got {self.high}")

    def value_list(self) -> List[int]:
        """The concrete swept values, in sweep order."""
        if self.values is not None:
            return [int(value) for value in self.values]
        return list(range(int(self.low), int(self.high) + 1, int(self.step)))

    def label(self) -> str:
        """Stable human-readable axis name (``field[@opcode][#port]``)."""
        label = self.field
        if self.opcode is not None:
            label += f"@{self.opcode}"
        if self.port is not None:
            label += f"#{self.port}"
        return label


@dataclass(frozen=True)
class ResolvedAxis:
    """An :class:`AxisSpec` bound to one simulator's setter."""

    label: str
    field: str
    values: Tuple[int, ...]
    apply: Callable[[Any, int], None]


def _axis_spec(payload: Any, index: int) -> AxisSpec:
    if isinstance(payload, AxisSpec):
        payload.validate()
        return payload
    if not isinstance(payload, dict):
        raise SpecValidationError(
            f"axes[{index}]", f"expected an axis dict, got {type(payload).__name__}")
    try:
        return AxisSpec.from_dict(payload)
    except SpecValidationError as error:
        raise SpecValidationError(f"axes[{index}].{error.field}",
                                  str(error).split(": ", 1)[-1]) from error


def resolve_axis(axis: AxisSpec, plugin: Any, index: int = 0) -> ResolvedAxis:
    """Bind one axis to ``plugin``'s global or per-opcode setter.

    Raises :class:`SpecValidationError` naming the bad field, with a
    did-you-mean suggestion over the plugin's sweepable fields or the
    opcode table's names.
    """
    where = f"axes[{index}]"
    per_opcode = axis.field in plugin.opcode_sweep_fields
    if axis.opcode is None and axis.field in plugin.sweep_fields:
        setter = plugin.sweep_fields[axis.field]

        def apply_global(table: Any, value: int, _setter=setter) -> None:
            _setter(table, int(value))

        return ResolvedAxis(axis.label(), axis.field, tuple(axis.value_list()),
                            apply_global)
    if not per_opcode:
        known = sorted(set(plugin.sweep_fields) | set(plugin.opcode_sweep_fields))
        close = difflib.get_close_matches(axis.field, known, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise SpecValidationError(
            f"{where}.field",
            f"simulator {plugin.name!r} cannot sweep {axis.field!r}{hint} "
            f"(sweepable fields: {', '.join(known) or '<none>'})")
    if axis.opcode is None:
        raise SpecValidationError(
            f"{where}.opcode",
            f"{axis.field!r} is a per-opcode field for simulator "
            f"{plugin.name!r}; name the opcode to sweep")
    from repro.isa.opcodes import DEFAULT_OPCODE_TABLE

    if axis.opcode not in DEFAULT_OPCODE_TABLE:
        close = difflib.get_close_matches(axis.opcode,
                                          DEFAULT_OPCODE_TABLE.names(), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise SpecValidationError(f"{where}.opcode",
                                  f"unknown opcode {axis.opcode!r}{hint}")
    opcode_index = DEFAULT_OPCODE_TABLE.index_of(axis.opcode)
    setter = plugin.opcode_sweep_fields[axis.field]
    if getattr(setter, "accepts_port", False):
        num_ports = int(getattr(setter, "num_ports", 0))
        if axis.port is None:
            raise SpecValidationError(
                f"{where}.port",
                f"{axis.field!r} sweeps one port column; pass port in "
                f"[0, {num_ports - 1}]")
        if not 0 <= axis.port < num_ports:
            raise SpecValidationError(
                f"{where}.port",
                f"must be in [0, {num_ports - 1}], got {axis.port}")

        def apply_port(table: Any, value: int, _setter=setter,
                       _opcode=opcode_index, _port=int(axis.port)) -> None:
            _setter(table, _opcode, _port, int(value))

        return ResolvedAxis(axis.label(), axis.field, tuple(axis.value_list()),
                            apply_port)
    if axis.port is not None:
        raise SpecValidationError(
            f"{where}.port", f"{axis.field!r} takes no port index")

    def apply_opcode(table: Any, value: int, _setter=setter,
                     _opcode=opcode_index) -> None:
        _setter(table, _opcode, int(value))

    return ResolvedAxis(axis.label(), axis.field, tuple(axis.value_list()),
                        apply_opcode)


def resolve_axes(axes: List[Any], simulator: str) -> List[ResolvedAxis]:
    """Resolve every axis payload against ``simulator``'s plugin."""
    plugin = SIMULATORS.get(simulator)
    resolved: List[ResolvedAxis] = []
    seen: Dict[str, int] = {}
    for index, payload in enumerate(axes):
        axis = resolve_axis(_axis_spec(payload, index), plugin, index)
        if axis.label in seen:
            raise SpecValidationError(
                f"axes[{index}]",
                f"duplicate axis {axis.label!r} (first at axes[{seen[axis.label]}])")
        seen[axis.label] = index
        resolved.append(axis)
    return resolved


@dataclass
class CampaignSpec(_SpecBase):
    """One declarative sweep campaign.

    ``axes`` lists axis dicts (see :class:`AxisSpec`); an empty list puts
    full-table strategies (``random``, ``adaptive``) into sampled-table mode,
    drawing whole parameter tables from the adapter's sampling distribution.
    ``strategy`` names a STRATEGIES entry; strategies that sample
    (``random``, ``adaptive``) require ``num_variants``.  Evaluation runs on
    the ``split`` examples of the dataset (generated from
    ``target``/``num_blocks``/``seed`` or loaded from ``dataset_path``),
    optionally truncated to ``max_blocks``.  ``chunk_size`` bounds one
    engine batch and is the checkpoint granularity: with ``checkpoint_dir``
    set, a killed campaign re-run with ``resume=True`` replays completed
    chunks from disk bit-identically.
    """

    target: str = "haswell"
    simulator: str = "mca"
    strategy: str = "grid"
    axes: List[Dict[str, Any]] = field(default_factory=list)
    #: Number of sampled variants (required by random/adaptive strategies;
    #: grid ignores it).
    num_variants: Optional[int] = None
    #: Extra strategy knobs (e.g. ``{"mode": "one_at_a_time"}`` for grid,
    #: ``{"eta": 3}`` for adaptive successive halving).
    strategy_options: Dict[str, Any] = field(default_factory=dict)
    num_blocks: int = 300
    seed: int = 0
    dataset_path: Optional[str] = None
    #: Directory of a pre-built sharded corpus (``repro corpus build``);
    #: mutually exclusive with ``dataset_path``.  Evaluation then streams
    #: blocks lazily from disk, and several campaigns (e.g. the cells of one
    #: matrix campaign, see :mod:`repro.distributed`) can share one corpus.
    corpus_path: Optional[str] = None
    split: str = "test"
    #: Evaluate on only the first ``max_blocks`` examples of the split.
    max_blocks: Optional[int] = None
    #: Base table JSON all axis variants start from; ``None`` uses the
    #: expert default table.
    table_path: Optional[str] = None
    #: Sampling distribution for full-table variants (matches the adapter
    #: default: wide paper ranges).
    narrow_sampling: bool = False
    #: Variants per engine batch; also the checkpoint granularity.
    chunk_size: int = 64
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    #: Streamed report destination (JSON, rewritten after every chunk).
    report_path: Optional[str] = None
    engine_workers: int = 0

    def validate(self) -> None:
        self._check_common()
        self._check_registry("strategy", STRATEGIES)
        if not isinstance(self.axes, (list, tuple)):
            raise SpecValidationError(
                "axes", f"expected a list of axis dicts, got {type(self.axes).__name__}")
        resolved = resolve_axes(list(self.axes), self.simulator)
        strategy_cls = STRATEGIES.get(self.strategy)
        if not self.axes and not getattr(strategy_cls, "supports_full_table", False):
            raise SpecValidationError(
                "axes", f"strategy {self.strategy!r} needs at least one axis "
                        f"(only sampling strategies support full-table mode)")
        if getattr(strategy_cls, "requires_num_variants", False):
            if self.num_variants is None:
                raise SpecValidationError(
                    "num_variants",
                    f"strategy {self.strategy!r} samples its population; "
                    f"set num_variants")
            self._check_positive("num_variants")
        elif self.num_variants is not None:
            self._check_positive("num_variants")
        if not isinstance(self.strategy_options, dict):
            raise SpecValidationError(
                "strategy_options",
                f"expected a dict, got {type(self.strategy_options).__name__}")
        if not all(isinstance(key, str) for key in self.strategy_options):
            raise SpecValidationError(
                "strategy_options",
                f"option names must be strings, got {list(self.strategy_options)!r}")
        try:
            strategy_cls(resolved, self.num_variants, self.strategy_options)
        except ValueError as error:
            raise SpecValidationError("strategy_options", str(error)) from error
        self._check_positive("num_blocks")
        self._check_non_negative("seed")
        self._check_type("dataset_path", (str,), allow_none=True)
        self._check_type("corpus_path", (str,), allow_none=True)
        if self.dataset_path is not None and self.corpus_path is not None:
            raise SpecValidationError(
                "corpus_path", "mutually exclusive with dataset_path; a corpus "
                               "carries its own blocks and timings")
        if self.corpus_path is not None:
            if self.split not in ("train", "validation", "test"):
                raise SpecValidationError(
                    "split", f"expected 'train', 'validation', or 'test', "
                             f"got {self.split!r}")
        elif self.split not in ("train", "test"):
            raise SpecValidationError(
                "split", f"expected 'train' or 'test', got {self.split!r}")
        if self.max_blocks is not None:
            self._check_positive("max_blocks")
        self._check_type("table_path", (str,), allow_none=True)
        self._check_type("narrow_sampling", (bool,))
        self._check_positive("chunk_size")
        self._check_type("checkpoint_dir", (str,), allow_none=True)
        self._check_type("resume", (bool,))
        self._check_type("report_path", (str,), allow_none=True)
        if self.resume and self.checkpoint_dir is None:
            raise SpecValidationError("resume", "requires checkpoint_dir to be set")

    def identity_dict(self) -> Dict[str, Any]:
        """The result-determining fields, for fingerprints and reports.

        Excludes execution-only knobs (checkpointing, report destination,
        worker count) that never change the numbers, so an interrupted run
        and its resumed continuation fingerprint alike and emit
        byte-identical reports.  ``corpus_path`` is excluded too: the
        corpus *content* is what determines results, and
        :func:`~repro.campaigns.runner.campaign_fingerprint` digests the
        actual blocks and timings — so moving a corpus directory (or
        sharing one across matrix cells) never changes a report.
        """
        payload = self.to_dict()
        for key in ("checkpoint_dir", "resume", "report_path", "corpus_path",
                    "engine_workers"):
            payload.pop(key)
        return payload
