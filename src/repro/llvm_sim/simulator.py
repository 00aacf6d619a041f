"""The llvm_sim-style micro-op-level simulator.

Pipeline (Appendix A of the paper):

1. instructions are fetched and decoded into micro-ops (frontend modeled);
2. registers are renamed with an unlimited physical register file — so only
   true (read-after-write) dependencies matter;
3. micro-ops dispatch out of order once their instruction's register sources
   are ready;
4. micro-ops execute on their assigned execution port (one micro-op per port
   per cycle);
5. instructions retire in order once all of their micro-ops have executed.

Timing follows the same convention as the llvm-mca simulator: steady-state
cycles per iteration of the block executed in a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.binding import LLVMSimBoundBlock, bind_llvm_sim_block
from repro.engine.compile import BlockCompiler
from repro.isa.basic_block import BasicBlock
from repro.llvm_sim.frontend import Frontend
from repro.llvm_sim.params import LLVMSimParameterTable, NUM_PORTS


@dataclass
class LLVMSimResult:
    """Outcome of an llvm_sim simulation."""

    cycles_per_iteration: float
    total_cycles: int
    iterations_simulated: int

    @property
    def timing(self) -> float:
        return self.cycles_per_iteration


def simulate_bound_llvm_sim(bound: LLVMSimBoundBlock, frontend_uops_per_cycle: int,
                            warmup: int, measure: int) -> LLVMSimResult:
    """Execute one compiled-and-bound block through the llvm_sim pipeline.

    The simulation kernel shared by :class:`LLVMSimSimulator` and the engine
    layer; registers are block-local integer ids (see
    :mod:`repro.engine.compile`), so the scoreboard is a flat list.  The
    cycle-level semantics are identical to the original per-call
    implementation.
    """
    total_iterations = warmup + measure
    frontend = Frontend(uops_per_cycle=frontend_uops_per_cycle)

    # Port availability: next free cycle per port.
    port_free = [0] * NUM_PORTS
    register_ready = [0] * bound.compiled.num_registers
    previous_retire = 0
    iteration_end_cycles: List[int] = []

    for _ in range(total_iterations):
        for sources, destinations, latency, micro_op_ports in bound.instructions:
            # Frontend: all the instruction's micro-ops must be delivered.
            delivery = 0
            for _ in micro_op_ports:
                delivery = max(delivery, frontend.next_delivery_cycle())

            # Rename/dispatch: wait for the instruction's register sources.
            ready = delivery
            for register in sources:
                ready = max(ready, register_ready[register])

            # Execute micro-ops: each occupies its port for one cycle;
            # the instruction's result is available WriteLatency cycles
            # after its last micro-op starts executing.
            last_start = ready
            for port in micro_op_ports:
                if port < 0:
                    start = ready
                else:
                    start = max(ready, port_free[port])
                    port_free[port] = start + 1
                last_start = max(last_start, start)
            write_back = last_start + latency
            for register in destinations:
                register_ready[register] = write_back

            # Retire in order once every micro-op has finished.
            completion = max(write_back, last_start + 1)
            previous_retire = max(previous_retire, completion)
        iteration_end_cycles.append(previous_retire)

    if total_iterations > warmup:
        start_cycle = iteration_end_cycles[warmup - 1] if warmup > 0 else 0
        cycles_per_iteration = (iteration_end_cycles[-1] - start_cycle) / measure
    else:
        cycles_per_iteration = iteration_end_cycles[-1] / max(1, total_iterations)
    return LLVMSimResult(
        cycles_per_iteration=float(max(cycles_per_iteration, 0.01)),
        total_cycles=int(iteration_end_cycles[-1]),
        iterations_simulated=total_iterations,
    )


class LLVMSimSimulator:
    """Simulates basic blocks under an :class:`LLVMSimParameterTable`."""

    def __init__(self, parameters: LLVMSimParameterTable,
                 frontend_uops_per_cycle: int = 4,
                 warmup_iterations: int = 4,
                 measure_iterations: int = 8,
                 max_dynamic_instructions: int = 2048,
                 compiler: Optional[BlockCompiler] = None) -> None:
        self.parameters = parameters
        self.frontend_uops_per_cycle = frontend_uops_per_cycle
        self.warmup_iterations = warmup_iterations
        self.measure_iterations = measure_iterations
        self.max_dynamic_instructions = max_dynamic_instructions
        self.compiler = compiler or BlockCompiler(parameters.opcode_table)

    def _iteration_counts(self, block_length: int) -> Tuple[int, int]:
        warmup = self.warmup_iterations
        measure = self.measure_iterations
        while (warmup + measure) * block_length > self.max_dynamic_instructions and measure > 2:
            measure -= 1
        while (warmup + measure) * block_length > self.max_dynamic_instructions and warmup > 1:
            warmup -= 1
        return warmup, measure

    def simulate(self, block: BasicBlock) -> LLVMSimResult:
        compiled = self.compiler.compile(block)
        bound = bind_llvm_sim_block(self.parameters, compiled)
        warmup, measure = self._iteration_counts(len(block))
        return simulate_bound_llvm_sim(bound, self.frontend_uops_per_cycle, warmup, measure)

    def predict_timing(self, block: BasicBlock) -> float:
        return self.simulate(block).cycles_per_iteration

    def predict_timing_batch(self, blocks: Sequence[BasicBlock],
                             chunk_size: Optional[int] = None,
                             compiled: Optional[Sequence] = None,
                             tables: Optional[Sequence[LLVMSimParameterTable]] = None,
                             lane_table: Optional[Sequence[int]] = None
                             ) -> np.ndarray:
        """Predict timings for ``blocks`` through the megabatch kernel.

        Bit-identical to calling :meth:`predict_timing` per block (see
        :mod:`repro.llvm_sim.megabatch`).  Degenerate iteration windows
        (``measure_iterations < 1``) fall back to the scalar path, whose
        averaging semantics the megabatch kernel does not model.  Callers
        that already hold the blocks' compiled forms (the engine does) pass
        them via ``compiled`` to skip the compile-cache lookups.  With
        ``tables`` and ``lane_table``, block ``i`` runs under
        ``tables[lane_table[i]]`` instead of this simulator's table; the
        frontend and iteration windows stay this simulator's.
        """
        from repro.engine.megabatch import (DEFAULT_MEGABATCH_CHUNK,
                                            megabatch_timings,
                                            shrink_iteration_counts)
        from repro.llvm_sim import megabatch

        if compiled is None:
            compiled = [self.compiler.compile(block) for block in blocks]
        if tables is None:
            tables = [self.parameters]
            lane_table = np.zeros(len(compiled), dtype=np.intp)

        def scalar_kernel(block, table_index, block_warmup, block_measure):
            bound = bind_llvm_sim_block(tables[table_index], block)
            return simulate_bound_llvm_sim(
                bound, self.frontend_uops_per_cycle, block_warmup,
                block_measure).cycles_per_iteration

        if self.measure_iterations < 1 or self.warmup_iterations < 0:
            return np.array([scalar_kernel(block, index,
                                           *self._iteration_counts(block.length))
                             for block, index in zip(compiled, lane_table)],
                            dtype=np.float64)
        frontend = Frontend(uops_per_cycle=self.frontend_uops_per_cycle)
        lengths = np.fromiter((block.length for block in compiled),
                              dtype=np.int64, count=len(compiled))
        warmup, measure = shrink_iteration_counts(
            lengths, self.warmup_iterations, self.measure_iterations,
            self.max_dynamic_instructions)

        def kernel(corpus, chunk_tables, chunk_warmup, chunk_measure):
            return megabatch.simulate_packed_llvm_sim(
                tables, corpus, chunk_tables, frontend.uops_per_cycle,
                frontend.decode_latency, chunk_warmup, chunk_measure)

        return megabatch_timings(compiled, lane_table, warmup, measure, kernel,
                                 chunk_size=chunk_size or DEFAULT_MEGABATCH_CHUNK,
                                 scalar_kernel=scalar_kernel)

    def predict_many(self, blocks: Sequence[BasicBlock]) -> np.ndarray:
        from repro.engine.megabatch import predict_timings_megabatch

        return predict_timings_megabatch(self, blocks)
