"""Concrete engine constructions for the two simulators.

These helpers wire :class:`~repro.engine.engine.SimulationEngine` to the
llvm-mca and llvm_sim backends with picklable simulator factories, so the
same engine instance works for serial, cached, and multiprocess execution.
"""

from __future__ import annotations

import functools

from repro.engine.binding import llvm_sim_table_digest, mca_table_digest
from repro.engine.engine import DEFAULT_CACHE_SIZE, SimulationEngine
from repro.llvm_mca.simulator import MCASimulator
from repro.llvm_sim.simulator import LLVMSimSimulator


def mca_engine(warmup_iterations: int = 4, measure_iterations: int = 8,
               max_dynamic_instructions: int = 2048,
               cache_size: int = DEFAULT_CACHE_SIZE,
               num_workers: int = 0) -> SimulationEngine:
    """An engine running the llvm-mca style simulator."""
    factory = functools.partial(MCASimulator,
                                warmup_iterations=warmup_iterations,
                                measure_iterations=measure_iterations,
                                max_dynamic_instructions=max_dynamic_instructions)
    return SimulationEngine(factory, mca_table_digest,
                            cache_size=cache_size, num_workers=num_workers)


def llvm_sim_engine(frontend_uops_per_cycle: int = 4,
                    warmup_iterations: int = 4, measure_iterations: int = 8,
                    max_dynamic_instructions: int = 2048,
                    cache_size: int = DEFAULT_CACHE_SIZE,
                    num_workers: int = 0) -> SimulationEngine:
    """An engine running the llvm_sim style simulator."""
    factory = functools.partial(LLVMSimSimulator,
                                frontend_uops_per_cycle=frontend_uops_per_cycle,
                                warmup_iterations=warmup_iterations,
                                measure_iterations=measure_iterations,
                                max_dynamic_instructions=max_dynamic_instructions)
    return SimulationEngine(factory, llvm_sim_table_digest,
                            cache_size=cache_size, num_workers=num_workers)
