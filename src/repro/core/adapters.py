"""Adapters binding the generic DiffTune machinery to concrete simulators.

A :class:`SimulatorAdapter` answers three questions for the optimizer:

1. what is the parameter space? (:meth:`SimulatorAdapter.parameter_spec`)
2. how do optimization arrays become a native parameter table, and how is the
   simulator run with them? (:meth:`SimulatorAdapter.build_simulator` /
   :meth:`SimulatorAdapter.predict_timings`)
3. what are sensible default parameters, for evaluation baselines?
   (:meth:`SimulatorAdapter.default_arrays`)

Two adapters are provided, matching the paper's two evaluation targets:
:class:`MCAAdapter` for the llvm-mca model (Table II parameters) and
:class:`LLVMSimAdapter` for llvm_sim (Table VII parameters).  Both register
:class:`~repro.api.plugins.SimulatorPlugin` records in the
:data:`repro.api.registries.SIMULATORS` registry at import time, which is how
the CLI, the pipeline, and the benchmark harness construct them; third-party
simulators join through the ``repro.simulators`` entry-point group.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.plugins import SimulatorPlugin
from repro.api.registries import SIMULATORS
from repro.core.parameters import (ParameterArrays, ParameterField, ParameterSpec,
                                   PORT_MAP_FIELD_NAME)
from repro.engine.binding import (LRUCache, llvm_sim_table_digest, mca_table_digest,
                                  parameter_arrays_digest)
from repro.engine.engine import SimulationEngine
from repro.isa.basic_block import BasicBlock
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE, OpcodeTable
from repro.llvm_mca.params import MCAParameterTable, NUM_PORTS, NUM_READ_ADVANCE_SLOTS
from repro.llvm_mca.simulator import MCASimulator
from repro.llvm_sim.params import LLVMSimParameterTable
from repro.llvm_sim.simulator import LLVMSimSimulator
from repro.targets.defaults import build_default_llvm_sim_table, build_default_mca_table
from repro.targets.uarch import UarchSpec


class SimulatorAdapter(abc.ABC):
    """Interface the DiffTune optimizer and black-box baselines program against."""

    opcode_table: OpcodeTable

    #: Capacity of the per-adapter ``arrays -> native table`` memoization.
    #: Black-box searchers hold a handful of live candidates at a time, so a
    #: small LRU captures nearly every repeat conversion.
    TABLE_CACHE_SIZE = 256

    @abc.abstractmethod
    def parameter_spec(self) -> ParameterSpec:
        """The simulator's parameter-space description."""

    @abc.abstractmethod
    def default_arrays(self) -> ParameterArrays:
        """The expert-provided default parameters, in optimization layout."""

    @abc.abstractmethod
    def predict_timings(self, arrays: ParameterArrays,
                        blocks: Sequence[BasicBlock]) -> np.ndarray:
        """Run the original (non-differentiable) simulator on ``blocks``."""

    def predict_timing(self, arrays: ParameterArrays, block: BasicBlock) -> float:
        return float(self.predict_timings(arrays, [block])[0])

    def predict_timings_batch(
            self, pairs: Sequence[Tuple[ParameterArrays, Sequence[BasicBlock]]]
    ) -> List[np.ndarray]:
        """Timings of each ``(arrays, blocks)`` pair, one array per pair.

        One :meth:`~repro.engine.engine.SimulationEngine.run_pairs` call
        when the adapter provides an engine — which parallelizes across
        pairs when workers are configured — and one :meth:`predict_timings`
        per pair otherwise.
        """
        try:
            engine = self.engine
        except NotImplementedError:
            return [self.predict_timings(arrays, blocks) for arrays, blocks in pairs]
        return engine.run_pairs([(self.native_table(arrays), blocks)
                                 for arrays, blocks in pairs])

    # ------------------------------------------------------------------
    # Shared simulation-engine plumbing
    # ------------------------------------------------------------------
    def create_engine(self) -> SimulationEngine:
        """Build the :class:`SimulationEngine` backing :attr:`engine`.

        Engine-backed adapters override this; adapters for custom simulators
        that implement :meth:`predict_timings` directly need not.
        """
        raise NotImplementedError(f"{type(self).__name__} does not provide a simulation engine")

    @property
    def engine(self) -> SimulationEngine:
        """The adapter's lazily constructed, shared simulation engine.

        All ``predict_timings`` traffic of an engine-backed adapter flows
        through this one instance, so block compilations and timing results
        are shared across dataset collection, baseline search, and
        evaluation.
        """
        engine = getattr(self, "_engine", None)
        if engine is None:
            engine = self.create_engine()
            self._engine = engine
        return engine

    def native_table(self, arrays: ParameterArrays):
        """``table_from_arrays`` memoized by the content digest of ``arrays``.

        Searchers re-evaluate the same candidate arrays against different
        block batches constantly; rebuilding the full native table on every
        call was pure waste.  Requires the adapter to define
        ``table_from_arrays`` (both built-in adapters do).
        """
        cache = getattr(self, "_native_table_cache", None)
        if cache is None:
            cache = LRUCache(self.TABLE_CACHE_SIZE)
            self._native_table_cache = cache
        digest = parameter_arrays_digest(arrays)
        table = cache.get(digest)
        if table is None:
            table = self.table_from_arrays(arrays)
            cache.put(digest, table)
        return table

    def freeze_unlearned_fields(self, arrays: ParameterArrays) -> ParameterArrays:
        """Replace fields that are not being learned with their default values.

        The base implementation is the identity (everything is learned).
        Adapters that support partial learning override this so that sampled
        tables — and therefore the surrogate's training inputs — agree with
        what the simulator will actually be run with.
        """
        return arrays

    def unlearned_dimension_masks(self):
        """Boolean masks over (per-instruction, global) dimensions that are frozen.

        Returns ``(None, None)`` when every parameter is learned.  The phase-2
        optimizer holds masked dimensions at their initial values.
        """
        return None, None


class MCAAdapter(SimulatorAdapter):
    """Adapter for the llvm-mca style simulator (Table II parameter set)."""

    def __init__(self, uarch: UarchSpec, opcode_table: Optional[OpcodeTable] = None,
                 learn_fields: Optional[Sequence[str]] = None,
                 narrow_sampling: bool = False,
                 engine_workers: int = 0) -> None:
        """Create an adapter.

        Args:
            uarch: Target microarchitecture (supplies the default table).
            opcode_table: Opcode universe.
            learn_fields: Optional subset of per-instruction field names to
                learn; fields not listed are frozen at their default values
                (used for the WriteLatency-only experiment of Section VI-B).
                ``None`` learns everything.
            narrow_sampling: Use tighter parameter sampling ranges
                (NumMicroOps 1–4, PortMap cycles 0–1, DispatchWidth 1–6).
                The paper's wider ranges (Section V-A) assume a surrogate
                trained on millions of examples; at this reproduction's scale
                the tighter — still expert-value-free — prior keeps the
                optimization well inside the region the surrogate models.
                Section VII of the paper discusses exactly this sensitivity
                to the sampling distributions.
            engine_workers: Opt-in process fan-out for batched table
                evaluation (``0`` = serial; see
                :class:`~repro.engine.engine.SimulationEngine`).
        """
        self.uarch = uarch
        self.opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        self.learn_fields = set(learn_fields) if learn_fields is not None else None
        self.narrow_sampling = narrow_sampling
        self.engine_workers = engine_workers
        self._default_table = build_default_mca_table(uarch, self.opcode_table)
        self._spec = self._build_spec()

    def _build_spec(self) -> ParameterSpec:
        if self.narrow_sampling:
            uops_high, port_high, dispatch_high = 4, 1, 6
        else:
            uops_high, port_high, dispatch_high = 10, 2, 10
        global_fields = [
            ParameterField("DispatchWidth", 1, lower_bound=1, integer=True,
                           sample_low=1, sample_high=dispatch_high),
            ParameterField("ReorderBufferSize", 1, lower_bound=1, integer=True,
                           sample_low=50, sample_high=250),
        ]
        per_instruction_fields = [
            ParameterField("NumMicroOps", 1, lower_bound=1, integer=True,
                           sample_low=1, sample_high=uops_high),
            ParameterField("WriteLatency", 1, lower_bound=0, integer=True,
                           sample_low=0, sample_high=5),
            ParameterField("ReadAdvanceCycles", NUM_READ_ADVANCE_SLOTS, lower_bound=0,
                           integer=True, sample_low=0, sample_high=5),
            ParameterField(PORT_MAP_FIELD_NAME, NUM_PORTS, lower_bound=0, integer=True,
                           sample_low=0, sample_high=port_high),
        ]
        return ParameterSpec(global_fields, per_instruction_fields,
                             num_opcodes=len(self.opcode_table))

    # ------------------------------------------------------------------
    # SimulatorAdapter interface
    # ------------------------------------------------------------------
    def parameter_spec(self) -> ParameterSpec:
        return self._spec

    def default_table(self) -> MCAParameterTable:
        return self._default_table.copy()

    def default_arrays(self) -> ParameterArrays:
        return self.arrays_from_table(self._default_table)

    def arrays_from_table(self, table: MCAParameterTable) -> ParameterArrays:
        """Convert a native table to optimization layout."""
        per_instruction = np.concatenate([
            table.num_micro_ops.astype(np.float64)[:, None],
            table.write_latency.astype(np.float64)[:, None],
            table.read_advance_cycles.astype(np.float64),
            table.port_map.astype(np.float64),
        ], axis=1)
        global_values = np.array([table.dispatch_width, table.reorder_buffer_size],
                                 dtype=np.float64)
        return ParameterArrays(global_values=global_values,
                               per_instruction_values=per_instruction)

    def table_from_arrays(self, arrays: ParameterArrays) -> MCAParameterTable:
        """Convert optimization-layout values into a native (valid) table.

        Values are clipped to their lower bounds and rounded; fields excluded
        from ``learn_fields`` are restored from the default table.
        """
        spec = self._spec
        clipped = spec.round_to_integers(spec.clip_to_bounds(arrays))
        per = clipped.per_instruction_values
        table = self._default_table.copy()
        dispatch, reorder = clipped.global_values[:2]
        learn_all = self.learn_fields is None

        def learning(name: str) -> bool:
            return learn_all or name in self.learn_fields

        if learning("DispatchWidth"):
            table.dispatch_width = int(max(1, round(dispatch)))
        if learning("ReorderBufferSize"):
            table.reorder_buffer_size = int(max(1, round(reorder)))
        if learning("NumMicroOps"):
            table.num_micro_ops = np.maximum(
                np.round(per[:, spec.per_instruction_field_slice("NumMicroOps")]).astype(np.int64),
                1).reshape(-1)
        if learning("WriteLatency"):
            table.write_latency = np.maximum(
                np.round(per[:, spec.per_instruction_field_slice("WriteLatency")]).astype(np.int64),
                0).reshape(-1)
        if learning("ReadAdvanceCycles"):
            table.read_advance_cycles = np.maximum(
                np.round(per[:, spec.per_instruction_field_slice("ReadAdvanceCycles")]).astype(np.int64),
                0)
        if learning(PORT_MAP_FIELD_NAME):
            table.port_map = np.maximum(
                np.round(per[:, spec.per_instruction_field_slice(PORT_MAP_FIELD_NAME)]).astype(np.int64),
                0)
        table.validate()
        return table

    def freeze_unlearned_fields(self, arrays: ParameterArrays) -> ParameterArrays:
        if self.learn_fields is None:
            return arrays
        spec = self._spec
        default = self.default_arrays()
        frozen = arrays.copy()
        for field_ in spec.per_instruction_fields:
            if field_.name not in self.learn_fields:
                field_slice = spec.per_instruction_field_slice(field_.name)
                frozen.per_instruction_values[:, field_slice] = \
                    default.per_instruction_values[:, field_slice]
        for field_ in spec.global_fields:
            if field_.name not in self.learn_fields:
                field_slice = spec.global_field_slice(field_.name)
                frozen.global_values[field_slice] = default.global_values[field_slice]
        return frozen

    def unlearned_dimension_masks(self):
        if self.learn_fields is None:
            return None, None
        spec = self._spec
        per_mask = np.zeros(spec.per_instruction_dim, dtype=bool)
        for field_ in spec.per_instruction_fields:
            if field_.name not in self.learn_fields:
                per_mask[spec.per_instruction_field_slice(field_.name)] = True
        global_mask = np.zeros(spec.global_dim, dtype=bool)
        for field_ in spec.global_fields:
            if field_.name not in self.learn_fields:
                global_mask[spec.global_field_slice(field_.name)] = True
        return per_mask, global_mask

    def simulator_factory(self) -> Callable[[MCAParameterTable], MCASimulator]:
        """Picklable ``table -> simulator`` used by the engine *and*
        :meth:`build_simulator`; override to customize simulator
        construction (warmup/measure windows, instruction caps) for both
        paths at once."""
        return MCASimulator

    def build_simulator(self, arrays: ParameterArrays) -> MCASimulator:
        return self.simulator_factory()(self.table_from_arrays(arrays))

    def create_engine(self) -> SimulationEngine:
        return SimulationEngine(self.simulator_factory(), mca_table_digest,
                                num_workers=self.engine_workers)

    def predict_timings(self, arrays: ParameterArrays,
                        blocks: Sequence[BasicBlock]) -> np.ndarray:
        return self.engine.run_one(self.native_table(arrays), blocks)


def _set_dispatch_width(table: MCAParameterTable, value: int) -> None:
    table.dispatch_width = max(1, int(value))


def _set_reorder_buffer_size(table: MCAParameterTable, value: int) -> None:
    table.reorder_buffer_size = max(1, int(value))


def _set_mca_write_latency(table: MCAParameterTable, opcode_index: int,
                           value: int) -> None:
    table.write_latency[opcode_index] = max(0, int(value))


def _set_mca_num_micro_ops(table: MCAParameterTable, opcode_index: int,
                           value: int) -> None:
    table.num_micro_ops[opcode_index] = max(1, int(value))


def _set_mca_port_map(table: MCAParameterTable, opcode_index: int, port: int,
                      value: int) -> None:
    table.port_map[opcode_index, port] = max(0, int(value))


_set_mca_port_map.accepts_port = True
_set_mca_port_map.num_ports = NUM_PORTS


def _mca_timeline_view(table: MCAParameterTable):
    from repro.llvm_mca.timeline import TimelineView

    return TimelineView(table)


def _mca_engine_factory(num_workers: int = 0):
    from repro.engine.factories import mca_engine

    return mca_engine(num_workers=num_workers)


class LLVMSimAdapter(SimulatorAdapter):
    """Adapter for the llvm_sim model (Table VII parameter set)."""

    def __init__(self, uarch: UarchSpec, opcode_table: Optional[OpcodeTable] = None,
                 engine_workers: int = 0) -> None:
        self.uarch = uarch
        self.opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        self.engine_workers = engine_workers
        self._default_table = build_default_llvm_sim_table(uarch, self.opcode_table)
        self._spec = ParameterSpec(
            global_fields=[],
            per_instruction_fields=[
                ParameterField("WriteLatency", 1, lower_bound=0, integer=True,
                               sample_low=0, sample_high=5),
                ParameterField(PORT_MAP_FIELD_NAME, NUM_PORTS, lower_bound=0, integer=True,
                               sample_low=0, sample_high=2),
            ],
            num_opcodes=len(self.opcode_table))

    def parameter_spec(self) -> ParameterSpec:
        return self._spec

    def default_table(self) -> LLVMSimParameterTable:
        return self._default_table.copy()

    def default_arrays(self) -> ParameterArrays:
        return self.arrays_from_table(self._default_table)

    def arrays_from_table(self, table: LLVMSimParameterTable) -> ParameterArrays:
        per_instruction = np.concatenate([
            table.write_latency.astype(np.float64)[:, None],
            table.port_uops.astype(np.float64),
        ], axis=1)
        return ParameterArrays(global_values=np.zeros(0),
                               per_instruction_values=per_instruction)

    def table_from_arrays(self, arrays: ParameterArrays) -> LLVMSimParameterTable:
        spec = self._spec
        clipped = spec.round_to_integers(spec.clip_to_bounds(arrays))
        per = clipped.per_instruction_values
        write_latency = np.maximum(
            np.round(per[:, spec.per_instruction_field_slice("WriteLatency")]).astype(np.int64),
            0).reshape(-1)
        port_uops = np.maximum(
            np.round(per[:, spec.per_instruction_field_slice(PORT_MAP_FIELD_NAME)]).astype(np.int64),
            0)
        return LLVMSimParameterTable(opcode_table=self.opcode_table,
                                     write_latency=write_latency, port_uops=port_uops)

    def simulator_factory(self) -> Callable[[LLVMSimParameterTable], LLVMSimSimulator]:
        """Picklable ``table -> simulator`` shared by the engine and
        :meth:`build_simulator` (see :meth:`MCAAdapter.simulator_factory`)."""
        return functools.partial(LLVMSimSimulator,
                                 frontend_uops_per_cycle=self.uarch.dispatch_width)

    def build_simulator(self, arrays: ParameterArrays) -> LLVMSimSimulator:
        return self.simulator_factory()(self.table_from_arrays(arrays))

    def create_engine(self) -> SimulationEngine:
        return SimulationEngine(self.simulator_factory(), llvm_sim_table_digest,
                                num_workers=self.engine_workers)

    def predict_timings(self, arrays: ParameterArrays,
                        blocks: Sequence[BasicBlock]) -> np.ndarray:
        return self.engine.run_one(self.native_table(arrays), blocks)


# ----------------------------------------------------------------------
# Registry entries (see repro.api)
# ----------------------------------------------------------------------
def _llvm_sim_adapter_factory(uarch: UarchSpec, *,
                              opcode_table: Optional[OpcodeTable] = None,
                              narrow_sampling: bool = True,
                              learn_fields: Optional[Sequence[str]] = None,
                              engine_workers: int = 0) -> LLVMSimAdapter:
    """Uniform-signature factory for :class:`LLVMSimAdapter`.

    ``narrow_sampling`` is accepted and ignored — llvm_sim's sampling ranges
    are already the narrow ones.  Partial learning is not supported by this
    parameter set, so ``learn_fields`` raises.
    """
    if learn_fields is not None:
        raise ValueError("the llvm_sim simulator learns its full parameter set; "
                         "learn_fields is not supported (use simulator 'mca')")
    return LLVMSimAdapter(uarch, opcode_table=opcode_table,
                          engine_workers=engine_workers)


def _llvm_sim_engine_factory(num_workers: int = 0):
    from repro.engine.factories import llvm_sim_engine

    return llvm_sim_engine(num_workers=num_workers)


def _set_llvm_sim_write_latency(table: LLVMSimParameterTable, opcode_index: int,
                                value: int) -> None:
    table.write_latency[opcode_index] = max(0, int(value))


def _set_llvm_sim_port_uops(table: LLVMSimParameterTable, opcode_index: int,
                            port: int, value: int) -> None:
    table.port_uops[opcode_index, port] = max(0, int(value))


_set_llvm_sim_port_uops.accepts_port = True
_set_llvm_sim_port_uops.num_ports = NUM_PORTS


SIMULATORS.register(
    "mca",
    SimulatorPlugin(
        name="mca",
        summary="llvm-mca style out-of-order model (Table II parameter set)",
        adapter_factory=MCAAdapter,
        load_table=MCAParameterTable.load_json,
        engine_factory=_mca_engine_factory,
        timeline_factory=_mca_timeline_view,
        sweep_fields={"DispatchWidth": _set_dispatch_width,
                      "ReorderBufferSize": _set_reorder_buffer_size},
        opcode_sweep_fields={"WriteLatency": _set_mca_write_latency,
                             "NumMicroOps": _set_mca_num_micro_ops,
                             "PortMap": _set_mca_port_map},
    ),
    aliases=("llvm-mca", "llvm_mca"))

SIMULATORS.register(
    "llvm_sim",
    SimulatorPlugin(
        name="llvm_sim",
        summary="llvm_sim style in-order-frontend model (Table VII parameter set)",
        adapter_factory=_llvm_sim_adapter_factory,
        load_table=LLVMSimParameterTable.load_json,
        engine_factory=_llvm_sim_engine_factory,
        opcode_sweep_fields={"WriteLatency": _set_llvm_sim_write_latency,
                             "PortMap": _set_llvm_sim_port_uops},
        supports_partial_learning=False,
    ),
    aliases=("llvm-sim", "llvmsim"))
