"""Shared simulation-engine layer: compile -> bind -> execute.

The engine separates the three concerns that were fused inside each
simulator:

1. **compile** (:mod:`repro.engine.compile`) — table-independent block
   structure (opcode indices, interned register ids), computed once per
   block and reused across every parameter table;
2. **bind** (:mod:`repro.engine.binding`) — per-opcode parameter lookups
   gathered into arrays with one vectorized step per field, plus the
   content digests and LRU caches the layer is built on;
3. **execute** (:mod:`repro.engine.engine`) — the
   :class:`SimulationEngine` batch API ``run(tables, blocks)`` with an LRU
   result cache keyed by ``(table_digest, block_id)``, misses of every
   table in a call gathered into one multi-table megabatch through the
   numpy-vectorized timing kernels (:mod:`repro.engine.megabatch`), and an
   opt-in ``multiprocessing`` executor that chunks the lanes across
   workers.

:mod:`repro.engine.factories` builds ready-to-use engines for the two
simulators the paper evaluates (llvm-mca and llvm_sim); it is loaded
lazily because the simulator modules themselves import this package.
"""

from repro.engine.compile import BlockCompiler, CompiledBlock, block_digest, compile_block
from repro.engine.binding import (LRUCache, LLVMSimBoundBlock, MCABoundBlock,
                                  bind_llvm_sim_block, bind_mca_block,
                                  llvm_sim_table_digest, mca_table_digest,
                                  parameter_arrays_digest)
from repro.engine.engine import DEFAULT_CACHE_SIZE, SimulationEngine
from repro.engine.megabatch import (DEFAULT_MEGABATCH_CHUNK, MIN_LOCKSTEP_BLOCKS,
                                    PackedCorpus, megabatch_timings, pack_corpus,
                                    predict_timings_megabatch,
                                    shrink_iteration_counts)

__all__ = [
    "BlockCompiler",
    "CompiledBlock",
    "block_digest",
    "compile_block",
    "LRUCache",
    "MCABoundBlock",
    "LLVMSimBoundBlock",
    "bind_mca_block",
    "bind_llvm_sim_block",
    "mca_table_digest",
    "llvm_sim_table_digest",
    "parameter_arrays_digest",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_MEGABATCH_CHUNK",
    "MIN_LOCKSTEP_BLOCKS",
    "PackedCorpus",
    "SimulationEngine",
    "llvm_sim_engine",
    "mca_engine",
    "megabatch_timings",
    "pack_corpus",
    "predict_timings_megabatch",
    "shrink_iteration_counts",
]

_LAZY_FACTORY_EXPORTS = ("mca_engine", "llvm_sim_engine")


def __getattr__(name):
    # The factory helpers import the simulator modules, which in turn import
    # this package; resolving them lazily keeps the import graph acyclic.
    if name in _LAZY_FACTORY_EXPORTS:
        from repro.engine import factories

        return getattr(factories, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
