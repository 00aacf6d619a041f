"""The llvm-mca style basic-block simulator.

The simulator models the four-stage pipeline the paper describes for
llvm-mca's Intel x86 model (Section II-A):

* **dispatch** — instructions enter in program order; each cycle at most
  ``DispatchWidth`` micro-ops may dispatch, and an instruction needs free
  reorder-buffer slots for all of its micro-ops.
* **issue** — an instruction waits until its register source operands are
  ready.  A source produced by an earlier instruction becomes ready
  ``WriteLatency(producer) - ReadAdvanceCycles(consumer, slot)`` cycles after
  the producer issues (clamped at zero).
* **execute** — the instruction issues once its required execution ports are
  simultaneously free, then occupies each port for the cycles its PortMap
  specifies.
* **retire** — instructions retire in program order once executed; retirement
  frees their reorder-buffer slots.

Modeling assumptions (faithful to llvm-mca, and to the mismatches the paper
discusses): no frontend, no memory hierarchy, and **no memory dependency
tracking** — a load never waits for an earlier store (this is exactly why the
ADD32mr case study in Section VI-C cannot be fixed by any parameter value).

Timing follows the BHive convention: the block is unrolled for many
iterations as if executed in a loop, and the reported timing is cycles per
iteration (cycles for 100 iterations divided by 100).  For efficiency the
simulator measures the steady-state per-iteration cost using a warmup /
measurement window instead of literally unrolling 100 times; the result is
the asymptotic per-iteration timing, which is what 100 iterations
approximates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.binding import MCABoundBlock, bind_mca_block
from repro.engine.compile import BlockCompiler
from repro.isa.basic_block import BasicBlock
from repro.llvm_mca.params import MCAParameterTable, NUM_PORTS, NUM_READ_ADVANCE_SLOTS
from repro.llvm_mca.ports import PortSet
from repro.llvm_mca.reorder_buffer import ReorderBuffer

#: Number of block iterations the BHive timing convention divides by.
TIMING_ITERATIONS = 100


@dataclass
class SimulationResult:
    """Outcome of simulating a basic block.

    Attributes:
        cycles_per_iteration: Steady-state cycles per block iteration.
        total_cycles: Cycles consumed by the simulated window.
        iterations_simulated: How many iterations the window contained.
        retire_cycles: Retire cycle of every simulated dynamic instruction.
        dispatch_cycles: Dispatch cycle of every simulated dynamic instruction
            (aligned with ``retire_cycles``); used by the timeline view.
        issue_cycles: Issue (execute-start) cycle of every simulated dynamic
            instruction; used by the timeline and bottleneck views.
        port_busy_cycles: Total cycles each execution port was reserved over
            the whole simulated window; used by the resource-pressure view.
    """

    cycles_per_iteration: float
    total_cycles: int
    iterations_simulated: int
    retire_cycles: List[int]
    dispatch_cycles: List[int] = field(default_factory=list)
    issue_cycles: List[int] = field(default_factory=list)
    port_busy_cycles: List[int] = field(default_factory=list)

    @property
    def timing(self) -> float:
        """Timing in the BHive sense: cycles per single iteration of the block."""
        return self.cycles_per_iteration


def simulate_bound_mca(bound: MCABoundBlock, dispatch_width: int,
                       reorder_buffer_size: int, warmup: int, measure: int
                       ) -> SimulationResult:
    """Execute one compiled-and-bound block through the four-stage pipeline.

    This is the simulation kernel shared by :class:`MCASimulator` and the
    engine layer.  It operates purely on the bound per-instruction records
    (parameters gathered per opcode, registers interned to block-local
    integer ids), so the register scoreboard is a flat integer list instead
    of a string-keyed dictionary; the cycle-level semantics are identical to
    the original per-call implementation.
    """
    total_iterations = warmup + measure
    ports = PortSet(NUM_PORTS)
    reorder_buffer = ReorderBuffer(reorder_buffer_size)

    # Register scoreboard: interned register id -> cycle at which its value
    # becomes available.  The zero initialization is equivalent to "never
    # written": a ready cycle of 0 can never push operands_ready above the
    # dispatch cycle it is initialized to.
    register_ready = [0] * bound.compiled.num_registers

    # Dispatch bandwidth bookkeeping: current dispatch cycle and how many
    # micro-ops have been dispatched in it.
    dispatch_cycle = 0
    dispatched_micro_ops_this_cycle = 0

    # In-order retirement: an instruction retires no earlier than the one
    # before it.
    previous_retire_cycle = 0
    retire_cycles: List[int] = []
    dispatch_cycles: List[int] = []
    issue_cycles: List[int] = []
    port_busy_cycles = [0] * NUM_PORTS
    iteration_end_cycles: List[int] = []

    for _ in range(total_iterations):
        for (num_micro_ops, write_latency, read_advance, port_cycles,
             source_ids, destination_ids) in bound.instructions:
            # ----------------------------------------------------------
            # Dispatch stage
            # ----------------------------------------------------------
            micro_ops = max(1, num_micro_ops)
            # Advance the dispatch cycle until the bandwidth allows this
            # instruction.  Instructions wider than the dispatch width
            # consume whole cycles (they dispatch alone).
            needed = min(micro_ops, dispatch_width)
            if dispatched_micro_ops_this_cycle + needed > dispatch_width:
                dispatch_cycle += 1
                dispatched_micro_ops_this_cycle = 0
            # Wider instructions additionally block the dispatcher for the
            # extra cycles their remaining micro-ops need.
            extra_dispatch_cycles = 0
            if micro_ops > dispatch_width:
                extra_dispatch_cycles = (micro_ops - 1) // dispatch_width

            # Reorder-buffer space.
            dispatch_at = reorder_buffer.earliest_cycle_with_space(
                micro_ops, dispatch_cycle)
            if dispatch_at > dispatch_cycle:
                dispatch_cycle = dispatch_at
                dispatched_micro_ops_this_cycle = 0
            dispatched_micro_ops_this_cycle += needed

            # ----------------------------------------------------------
            # Issue stage: wait for register operands.
            # ----------------------------------------------------------
            operands_ready = dispatch_cycle
            for slot, register in enumerate(source_ids):
                ready = register_ready[register]
                advance = read_advance[min(slot, NUM_READ_ADVANCE_SLOTS - 1)]
                operands_ready = max(operands_ready, ready - advance, dispatch_cycle)

            # ----------------------------------------------------------
            # Execute stage: wait for ports, then reserve them.
            # ----------------------------------------------------------
            issue_cycle = ports.earliest_issue_cycle(port_cycles, operands_ready)
            resource_completion = ports.reserve(port_cycles, issue_cycle)

            # Destinations become readable WriteLatency cycles after issue.
            write_back_cycle = issue_cycle + write_latency
            for register in destination_ids:
                register_ready[register] = write_back_cycle

            # ----------------------------------------------------------
            # Retire stage: in order, after execution completes.
            # ----------------------------------------------------------
            completion = max(write_back_cycle, resource_completion,
                             issue_cycle + 1, dispatch_cycle + 1)
            retire_cycle = max(completion, previous_retire_cycle)
            previous_retire_cycle = retire_cycle
            reorder_buffer.allocate(micro_ops, retire_cycle)
            retire_cycles.append(retire_cycle)
            dispatch_cycles.append(dispatch_cycle)
            issue_cycles.append(issue_cycle)
            for port, cycles in enumerate(port_cycles):
                port_busy_cycles[port] += int(cycles)

            if extra_dispatch_cycles:
                dispatch_cycle += extra_dispatch_cycles
                dispatched_micro_ops_this_cycle = 0

        iteration_end_cycles.append(previous_retire_cycle)

    total_cycles = iteration_end_cycles[-1]
    if measure > 0 and total_iterations > warmup:
        start = iteration_end_cycles[warmup - 1] if warmup > 0 else 0
        cycles_per_iteration = (iteration_end_cycles[-1] - start) / measure
    else:
        cycles_per_iteration = iteration_end_cycles[-1] / max(1, total_iterations)
    cycles_per_iteration = max(cycles_per_iteration, 1.0 / TIMING_ITERATIONS)
    return SimulationResult(
        cycles_per_iteration=float(cycles_per_iteration),
        total_cycles=int(total_cycles),
        iterations_simulated=total_iterations,
        retire_cycles=retire_cycles,
        dispatch_cycles=dispatch_cycles,
        issue_cycles=issue_cycles,
        port_busy_cycles=port_busy_cycles,
    )


class MCASimulator:
    """Simulates basic blocks under a given :class:`MCAParameterTable`."""

    def __init__(self, parameters: MCAParameterTable,
                 warmup_iterations: int = 4,
                 measure_iterations: int = 8,
                 max_dynamic_instructions: int = 2048,
                 compiler: Optional[BlockCompiler] = None) -> None:
        """Create a simulator.

        Args:
            parameters: The parameter table driving the simulation.
            warmup_iterations: Iterations simulated before measurement starts,
                so the pipeline reaches steady state.
            measure_iterations: Iterations over which the per-iteration cost is
                measured.
            max_dynamic_instructions: Cap on the total unrolled instruction
                count, to bound simulation cost on very long blocks.
            compiler: Block compiler to use; pass a shared instance (as the
                :class:`~repro.engine.engine.SimulationEngine` does) to reuse
                block compilations across simulators.
        """
        if warmup_iterations < 1 or measure_iterations < 1:
            raise ValueError("warmup and measurement windows must be >= 1 iteration")
        self.parameters = parameters
        self.warmup_iterations = warmup_iterations
        self.measure_iterations = measure_iterations
        self.max_dynamic_instructions = max_dynamic_instructions
        self.compiler = compiler or BlockCompiler(parameters.opcode_table)

    def _iteration_counts(self, block_length: int) -> Tuple[int, int]:
        """Shrink the warmup/measure windows for very long blocks."""
        warmup = self.warmup_iterations
        measure = self.measure_iterations
        total = (warmup + measure) * block_length
        while total > self.max_dynamic_instructions and measure > 2:
            measure -= 1
            total = (warmup + measure) * block_length
        while total > self.max_dynamic_instructions and warmup > 1:
            warmup -= 1
            total = (warmup + measure) * block_length
        return warmup, measure

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, block: BasicBlock) -> SimulationResult:
        """Simulate ``block`` executed repeatedly and return its timing."""
        compiled = self.compiler.compile(block)
        bound = bind_mca_block(self.parameters, compiled)
        warmup, measure = self._iteration_counts(len(block))
        return simulate_bound_mca(bound, int(self.parameters.dispatch_width),
                                  int(self.parameters.reorder_buffer_size),
                                  warmup, measure)

    # ------------------------------------------------------------------
    # Convenience API
    # ------------------------------------------------------------------
    def predict_timing(self, block: BasicBlock) -> float:
        """Predicted timing of the block: steady-state cycles per iteration."""
        return self.simulate(block).cycles_per_iteration

    def predict_timing_batch(self, blocks: Sequence[BasicBlock],
                             chunk_size: Optional[int] = None,
                             compiled: Optional[Sequence] = None,
                             tables: Optional[Sequence[MCAParameterTable]] = None,
                             lane_table: Optional[Sequence[int]] = None
                             ) -> np.ndarray:
        """Predict timings for ``blocks`` through the megabatch kernel.

        Bit-identical to calling :meth:`predict_timing` per block (see
        :mod:`repro.llvm_mca.megabatch`), but every block advances one
        dynamic instruction per vectorized step instead of one per Python
        loop iteration.  Callers that already hold the blocks' compiled
        forms (the engine does) pass them via ``compiled`` to skip the
        compile-cache lookups.  With ``tables`` and ``lane_table``, block
        ``i`` runs under ``tables[lane_table[i]]`` instead of this
        simulator's table, so one call covers many tables; the iteration
        windows stay this simulator's.
        """
        from repro.engine.megabatch import (DEFAULT_MEGABATCH_CHUNK,
                                            megabatch_timings,
                                            shrink_iteration_counts)
        from repro.llvm_mca import megabatch

        if compiled is None:
            compiled = [self.compiler.compile(block) for block in blocks]
        if tables is None:
            tables = [self.parameters]
            lane_table = np.zeros(len(compiled), dtype=np.intp)
        lengths = np.fromiter((block.length for block in compiled),
                              dtype=np.int64, count=len(compiled))
        warmup, measure = shrink_iteration_counts(
            lengths, self.warmup_iterations, self.measure_iterations,
            self.max_dynamic_instructions)

        def kernel(corpus, chunk_tables, chunk_warmup, chunk_measure):
            return megabatch.simulate_packed_mca(tables, corpus, chunk_tables,
                                                 chunk_warmup, chunk_measure)

        def scalar_kernel(block, table_index, block_warmup, block_measure):
            table = tables[table_index]
            return simulate_bound_mca(
                bind_mca_block(table, block), int(table.dispatch_width),
                int(table.reorder_buffer_size), block_warmup,
                block_measure).cycles_per_iteration

        return megabatch_timings(
            compiled, lane_table, warmup, measure, kernel,
            chunk_size=chunk_size or DEFAULT_MEGABATCH_CHUNK,
            scalar_kernel=scalar_kernel)

    def predict_many(self, blocks: Sequence[BasicBlock]) -> np.ndarray:
        """Predict timings for a sequence of blocks."""
        from repro.engine.megabatch import predict_timings_megabatch

        return predict_timings_megabatch(self, blocks)
