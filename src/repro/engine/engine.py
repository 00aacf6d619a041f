"""The shared simulation engine: batched, cached, optionally parallel.

Every stage of the DiffTune pipeline — simulated-dataset collection, the
black-box baselines, evaluation — reduces to the same request: *the timings
of these blocks under these parameter tables*.  :class:`SimulationEngine`
serves that request through one path:

1. blocks are compiled once (table-independent structure, see
   :mod:`repro.engine.compile`) and reused across every table;
2. results are cached in an LRU keyed by ``(table_digest, block_id)``, so
   searchers that re-evaluate overlapping table/block pairs (random search,
   annealing, genetic, coordinate descent) never recompute a pair;
3. cache misses are gathered and executed as *megabatches* — one
   numpy-vectorized kernel invocation per table over every missing block
   (see :mod:`repro.engine.megabatch`) — and scattered back through the
   cache; a simulator without ``predict_timing_batch`` is stepped one block
   at a time through ``predict_timing`` instead;
4. with workers configured, megabatches are chunked across a
   ``multiprocessing`` pool (several tasks per worker rather than one
   monolithic task per table) with deterministic reassembly.

The engine is simulator-agnostic: it is constructed from a
``simulator_factory`` (native table -> simulator with ``predict_timing``
and optionally ``predict_timing_batch``) and a ``table_digest`` function.
:mod:`repro.engine.factories` provides the two concrete constructions for
llvm-mca and llvm_sim.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.binding import LRUCache
from repro.engine.compile import BlockCompiler
from repro.isa.basic_block import BasicBlock

#: Default result-cache capacity: comfortably holds a full black-box search
#: (tens of thousands of table evaluations x a batch of blocks).
DEFAULT_CACHE_SIZE = 1 << 17


def _simulate_blocks_task(task: Any) -> List[float]:
    """Worker entry point: simulate ``blocks`` under one table.

    Module-level so it pickles under every multiprocessing start method.
    Routes through the simulator's megabatch kernel when it provides one;
    both paths produce identical bits.
    """
    simulator_factory, table, blocks = task
    simulator = simulator_factory(table)
    batch = getattr(simulator, "predict_timing_batch", None)
    if batch is not None:
        return [float(value) for value in batch(blocks)]
    return [float(simulator.predict_timing(block)) for block in blocks]


class SimulationEngine:
    """Batched execution of (parameter table, basic block) pairs.

    Args:
        simulator_factory: Builds a simulator from a native parameter table.
            Must be picklable (a class or :func:`functools.partial` of one)
            when ``num_workers > 1``.
        table_digest: Content digest of a native table; together with the
            block digest it keys the result cache.
        cache_size: Capacity of the timing LRU cache.
        num_workers: Opt-in process fan-out for :meth:`run`.  ``0`` or ``1``
            executes serially in-process; ``>= 2`` chunks the missing
            blocks of every table across a pool.  Results are deterministic
            and identical to the serial path either way.

    Cache misses run through the simulator's vectorized megabatch kernel
    (``predict_timing_batch``, bit-identical to ``predict_timing`` and
    roughly an order of magnitude faster) whenever the simulator has one.
    """

    def __init__(self, simulator_factory: Callable[[Any], Any],
                 table_digest: Callable[[Any], str],
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 num_workers: int = 0) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self._factory = simulator_factory
        self._table_digest = table_digest
        self.num_workers = num_workers
        self._results = LRUCache(cache_size)
        self._compilers: Dict[int, BlockCompiler] = {}
        self._parallel_batches = 0
        self._megabatch_batches = 0
        self._executed = 0

    # ------------------------------------------------------------------
    # Compilation sharing
    # ------------------------------------------------------------------
    def _compiler_for(self, opcode_table: Any) -> BlockCompiler:
        compiler = self._compilers.get(id(opcode_table))
        if compiler is None:
            compiler = BlockCompiler(opcode_table)
            self._compilers[id(opcode_table)] = compiler
        return compiler

    def _build_simulator(self, table: Any, compiler: BlockCompiler) -> Any:
        simulator = self._factory(table)
        if hasattr(simulator, "compiler"):
            simulator.compiler = compiler
        return simulator

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(self, table: Any, blocks: Sequence[BasicBlock]) -> np.ndarray:
        """Timings of ``blocks`` under one table, shape ``(len(blocks),)``."""
        digest = self._table_digest(table)
        compiler = self._compiler_for(table.opcode_table)
        timings = np.empty(len(blocks), dtype=np.float64)
        # Misses are gathered (deduplicated by block content) into one
        # megabatch per table, then scattered back through the cache.
        missing: Dict[str, List[int]] = {}
        unique_blocks: List[BasicBlock] = []
        unique_compiled: List[Any] = []
        for position, block in enumerate(blocks):
            compiled_block = compiler.compile(block)
            block_id = compiled_block.block_id
            cached = self._results.get((digest, block_id))
            if cached is None:
                if block_id not in missing:
                    unique_blocks.append(block)
                    unique_compiled.append(compiled_block)
                missing.setdefault(block_id, []).append(position)
            else:
                timings[position] = cached
        if missing:
            simulator = self._build_simulator(table, compiler)
            values = self._predict_missing(simulator, unique_blocks,
                                           unique_compiled)
            self._executed += len(values)
            for (block_id, positions), value in zip(missing.items(), values):
                for position in positions:
                    timings[position] = value
                self._results.put((digest, block_id), value)
        return timings

    def _predict_missing(self, simulator: Any, blocks: Sequence[BasicBlock],
                         compiled: Sequence[Any]) -> List[float]:
        """Simulate uncached blocks, vectorized when the simulator can."""
        batch = getattr(simulator, "predict_timing_batch", None)
        if batch is not None:
            self._megabatch_batches += 1
            values = batch(blocks, compiled=compiled)
            # ndarray -> Python floats in one C call rather than a scalar
            # conversion per element (the cache stores plain floats).
            return np.asarray(values, dtype=np.float64).tolist()
        return [float(simulator.predict_timing(block)) for block in blocks]

    def run(self, tables: Sequence[Any], blocks: Sequence[BasicBlock]) -> np.ndarray:
        """Timings of every block under every table.

        Returns a ``(len(tables), len(blocks))`` array whose row order
        matches ``tables`` and column order matches ``blocks``, regardless
        of caching or parallel scheduling.
        """
        blocks = list(blocks)
        if not tables:
            return np.empty((0, len(blocks)), dtype=np.float64)
        rows = self.run_pairs([(table, blocks) for table in tables])
        return np.stack(rows)

    def run_pairs(self, pairs: Sequence[Tuple[Any, Sequence[BasicBlock]]]
                  ) -> List[np.ndarray]:
        """Timings for heterogeneous ``(table, blocks)`` pairs.

        The workhorse behind :meth:`run` and the chunked dataset-collection
        path, where every sampled table is evaluated on its own block draw.
        Returns one timing array per pair, in input order; uncached pairs
        fan out across the process pool when workers are configured.
        """
        results: List[Optional[np.ndarray]] = [None] * len(pairs)
        if not (self.num_workers > 1 and len(pairs) > 1):
            for index, (table, blocks) in enumerate(pairs):
                results[index] = self.run_one(table, blocks)
            return results

        pending: List[Any] = []  # (pair_index, digest, {id: positions}, blocks, table)
        for index, (table, blocks) in enumerate(pairs):
            digest = self._table_digest(table)
            compiler = self._compiler_for(table.opcode_table)
            timings = np.empty(len(blocks), dtype=np.float64)
            # Deduplicate misses by block content so each unique block is
            # simulated once per table, as the serial path's cache ensures.
            missing: Dict[str, List[int]] = {}
            unique_blocks: List[BasicBlock] = []
            for position, block in enumerate(blocks):
                block_id = compiler.compile(block).block_id
                cached = self._results.get((digest, block_id))
                if cached is None:
                    if block_id not in missing:
                        unique_blocks.append(block)
                    missing.setdefault(block_id, []).append(position)
                else:
                    timings[position] = cached
            results[index] = timings
            if missing:
                pending.append((index, digest, missing, unique_blocks, table))
        if not pending:
            return results

        self._parallel_batches += 1
        # Fan-out granularity: one monolithic task per table would leave
        # most workers idle whenever tables are fewer than workers (a single
        # megabatched table is the common evaluate/sweep shape), so each
        # table's missing blocks are chunked into a few tasks per worker.
        # ``pool.map`` preserves task order, so reassembly is deterministic.
        total_missing = sum(len(entry[3]) for entry in pending)
        target_tasks = max(self.num_workers * 2, len(pending))
        chunk = max(1, -(-total_missing // target_tasks))
        tasks: List[Any] = []
        segments: List[Any] = []  # (pair_index, digest, missing, ids) per task
        for index, digest, missing, unique_blocks, table in pending:
            ids = list(missing.keys())
            for start in range(0, len(ids), chunk):
                tasks.append((self._factory, table,
                              unique_blocks[start:start + chunk]))
                segments.append((index, digest, missing,
                                 ids[start:start + chunk]))
        self._megabatch_batches += len(tasks)
        start_methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in start_methods else start_methods[0])
        processes = min(self.num_workers, len(tasks))
        with context.Pool(processes=processes) as pool:
            computed = pool.map(_simulate_blocks_task, tasks)
        for (index, digest, missing, ids), values in zip(segments, computed):
            self._executed += len(values)
            for block_id, value in zip(ids, values):
                for position in missing[block_id]:
                    results[index][position] = value
                self._results.put((digest, block_id), value)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Cache and execution counters.

        ``executed`` counts simulations actually run; ``result_misses``
        counts cache lookups that failed, which can exceed ``executed`` when
        the parallel path deduplicates repeated blocks within one batch.
        """
        return {
            "result_hits": self._results.hits,
            "result_misses": self._results.misses,
            "result_entries": len(self._results),
            "executed": self._executed,
            "compile_hits": sum(compiler.hits for compiler in self._compilers.values()),
            "compile_misses": sum(compiler.misses for compiler in self._compilers.values()),
            "parallel_batches": self._parallel_batches,
            "megabatch_batches": self._megabatch_batches,
        }

    def clear_cache(self) -> None:
        self._results.clear()
        for compiler in self._compilers.values():
            compiler.clear()
        self._parallel_batches = 0
        self._megabatch_batches = 0
        self._executed = 0

    def clear_results(self) -> None:
        """Drop cached timings but keep compiled blocks.

        The next run re-simulates every block without re-compiling — what a
        throughput benchmark wants between repetitions, and cheaper than
        :meth:`clear_cache` when only the result LRU must be invalidated.
        """
        self._results.clear()
