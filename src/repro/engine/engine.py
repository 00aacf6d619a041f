"""The shared simulation engine: batched, cached, optionally parallel.

Every stage of the DiffTune pipeline — simulated-dataset collection, the
black-box baselines, evaluation — reduces to the same request: *the timings
of these blocks under these parameter tables*.  :class:`SimulationEngine`
serves that request through one path, :meth:`SimulationEngine.run_pairs`:

1. blocks are compiled once (table-independent structure, see
   :mod:`repro.engine.compile`) and reused across every table;
2. results are cached in an LRU keyed by ``(table_digest, block_id)``, so
   searchers that re-evaluate overlapping table/block pairs (random search,
   annealing, genetic, coordinate descent) never recompute a pair;
3. cache misses of every table in the call are gathered, deduplicated by
   ``(table_digest, block_id)``, and executed as one multi-table
   *megabatch* — each lane carries its own table through the
   numpy-vectorized kernels (see :mod:`repro.engine.megabatch`) — and
   scattered back through the cache; a simulator without
   ``predict_timing_batch`` steps each lane through its own table's
   ``predict_timing`` instead;
4. with workers configured, the same lane list is chunked across a
   process pool (several tasks per worker) with deterministic reassembly;
   a worker that dies mid-call raises ``BrokenProcessPool`` instead of
   leaving the call waiting forever.

The engine is simulator-agnostic: it is constructed from a
``simulator_factory`` (native table -> simulator with ``predict_timing``
and optionally ``predict_timing_batch``) and a ``table_digest`` function.
:mod:`repro.engine.factories` provides the two concrete constructions for
llvm-mca and llvm_sim.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.binding import LRUCache
from repro.engine.compile import BlockCompiler
from repro.isa.basic_block import BasicBlock

#: Default result-cache capacity: comfortably holds a full black-box search
#: (tens of thousands of table evaluations x a batch of blocks).
DEFAULT_CACHE_SIZE = 1 << 17


def process_context() -> Any:
    """The ``multiprocessing`` context every process fan-out uses.

    ``fork`` where the platform offers it, so workers inherit loaded
    modules and warm caches instead of re-importing; the platform's first
    start method otherwise.
    """
    start_methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in start_methods else start_methods[0])


def _simulate_lanes(task: Any) -> List[float]:
    """Simulate ``blocks[i]`` under ``tables[lane_table[i]]``.

    Module-level so it pickles as the pool workers' entry point (workers
    get no compiled forms and compile themselves); the serial path calls
    it in-process with the blocks' compiled forms and the engine's shared
    compiler.  Routes through the simulator's multi-table megabatch kernel
    when it has one; otherwise each lane steps through ``predict_timing``
    of its own table's simulator.  Both paths produce identical bits.
    """
    simulator_factory, tables, lane_table, blocks, compiled, compiler = task
    simulators = [simulator_factory(table) for table in tables]
    if compiler is not None:
        for simulator in simulators:
            if hasattr(simulator, "compiler"):
                simulator.compiler = compiler
    batch = getattr(simulators[0], "predict_timing_batch", None)
    if batch is not None:
        values = batch(blocks, compiled=compiled, tables=tables,
                       lane_table=lane_table)
        # ndarray -> Python floats in one C call rather than a scalar
        # conversion per element (the cache stores plain floats).
        return np.asarray(values, dtype=np.float64).tolist()
    return [float(simulators[index].predict_timing(block))
            for index, block in zip(lane_table, blocks)]


class SimulationEngine:
    """Batched execution of (parameter table, basic block) pairs.

    Args:
        simulator_factory: Builds a simulator from a native parameter table.
            Must be picklable (a class or :func:`functools.partial` of one)
            when ``num_workers > 1``.
        table_digest: Content digest of a native table; together with the
            block digest it keys the result cache.
        cache_size: Capacity of the timing LRU cache.
        num_workers: Opt-in process fan-out for calls that span more than
            one ``(table, blocks)`` pair.  ``0`` or ``1`` executes serially
            in-process; ``>= 2`` chunks the call's missing lanes across a
            pool.  Results are deterministic and identical to the serial
            path either way.

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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(self, table: Any, blocks: Sequence[BasicBlock]) -> np.ndarray:
        """Timings of ``blocks`` under one table, shape ``(len(blocks),)``."""
        return self.run_pairs([(table, blocks)])[0]

    def run(self, tables: Sequence[Any], blocks: Sequence[BasicBlock]) -> np.ndarray:
        """Timings of every block under every table.

        Returns a ``(len(tables), len(blocks))`` array whose row order
        matches ``tables`` and column order matches ``blocks``, regardless
        of caching or parallel scheduling.
        """
        blocks = list(blocks)
        if not tables:
            return np.empty((0, len(blocks)), dtype=np.float64)
        return np.stack(self.run_pairs([(table, blocks) for table in tables]))

    def run_pairs(self, pairs: Sequence[Tuple[Any, Sequence[BasicBlock]]]
                  ) -> List[np.ndarray]:
        """Timings for heterogeneous ``(table, blocks)`` pairs.

        The one execution path: :meth:`run_one` and :meth:`run` wrap it,
        and dataset collection sends it one pair per sampled table.
        Returns one timing array per pair, in input order.  Cache misses
        are gathered across all pairs, deduplicated by
        ``(table_digest, block_id)``, and the misses of tables sharing an
        opcode table run as one multi-table batch — chunked across the
        process pool when workers are configured and the call spans more
        than one pair.
        """
        results: List[np.ndarray] = []
        # (digest, block_id) -> (table, block, compiled), first-seen order.
        missing: Dict[Tuple[str, str], Tuple[Any, BasicBlock, Any]] = {}
        pending: List[Tuple[int, int, Tuple[str, str]]] = []
        for index, (table, blocks) in enumerate(pairs):
            digest = self._table_digest(table)
            compiler = self._compiler_for(table.opcode_table)
            timings = np.empty(len(blocks), dtype=np.float64)
            results.append(timings)
            for position, block in enumerate(blocks):
                compiled = compiler.compile(block)
                key = (digest, compiled.block_id)
                cached = self._results.get(key)
                if cached is None:
                    if key not in missing:
                        missing[key] = (table, block, compiled)
                    pending.append((index, position, key))
                else:
                    timings[position] = cached
        if missing:
            computed = self._execute(missing, pooled=(self.num_workers > 1
                                                      and len(pairs) > 1))
            for index, position, key in pending:
                results[index][position] = computed[key]
        return results

    def _execute(self, missing: Dict[Tuple[str, str], Tuple[Any, BasicBlock, Any]],
                 pooled: bool) -> Dict[Tuple[str, str], float]:
        """Simulate the gathered misses and store them in the result cache."""
        # Compiled opcode indices are per opcode table, so only tables
        # sharing one can share a batch (in practice every table does).
        groups: Dict[int, List[Tuple[str, str]]] = {}
        for key, (table, _block, _compiled) in missing.items():
            groups.setdefault(id(table.opcode_table), []).append(key)
        computed: Dict[Tuple[str, str], float] = {}
        for keys in groups.values():
            tables: List[Any] = []
            slots: Dict[str, int] = {}
            lane_table = np.empty(len(keys), dtype=np.intp)
            for lane, key in enumerate(keys):
                slot = slots.get(key[0])
                if slot is None:
                    slot = slots[key[0]] = len(tables)
                    tables.append(missing[key][0])
                lane_table[lane] = slot
            blocks = [missing[key][1] for key in keys]
            if pooled:
                values = self._execute_pooled(tables, lane_table, blocks)
            else:
                self._megabatch_batches += 1
                values = _simulate_lanes((
                    self._factory, tables, lane_table, blocks,
                    [missing[key][2] for key in keys],
                    self._compiler_for(tables[0].opcode_table)))
            self._executed += len(values)
            for key, value in zip(keys, values):
                computed[key] = value
                self._results.put(key, value)
        return computed

    def _execute_pooled(self, tables: List[Any], lane_table: np.ndarray,
                        blocks: List[BasicBlock]) -> List[float]:
        """Run one lane list across the pool, a few chunks per worker.

        Each task carries only the tables its chunk uses; ``pool.map``
        preserves task order, so reassembly is deterministic.  A killed
        worker raises :class:`~concurrent.futures.process.BrokenProcessPool`.
        """
        self._parallel_batches += 1
        size = -(-len(blocks) // (self.num_workers * 2))
        tasks: List[Any] = []
        for start in range(0, len(blocks), size):
            used, local = np.unique(lane_table[start:start + size],
                                    return_inverse=True)
            tasks.append((self._factory, [tables[slot] for slot in used],
                          local, blocks[start:start + size], None, None))
        self._megabatch_batches += len(tasks)
        with ProcessPoolExecutor(max_workers=min(self.num_workers, len(tasks)),
                                 mp_context=process_context()) as pool:
            chunks = list(pool.map(_simulate_lanes, tasks))
        return [value for chunk in chunks for value in chunk]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Cache and execution counters.

        ``executed`` counts simulations actually run; ``result_misses``
        counts cache lookups that failed, which can exceed ``executed``
        because every call deduplicates repeated ``(table, block)`` pairs
        before running them.  ``megabatch_batches`` counts the multi-table
        batches handed to the simulators (one per serial call, one per pool
        task) and ``parallel_batches`` the calls that fanned out to a pool.
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
