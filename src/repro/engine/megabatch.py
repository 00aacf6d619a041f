"""Megabatch lowering: the whole compiled-block corpus as structure-of-arrays.

The per-block simulation kernels (:func:`repro.llvm_mca.simulator.simulate_bound_mca`,
:func:`repro.llvm_sim.simulator.simulate_bound_llvm_sim`) step one dynamic
instruction per Python bytecode loop iteration.  That loop is the last
per-block interpreter hot path left in the pipeline: blocks are already
compiled once and tables bound vectorized, but ``SimulationEngine.run`` still
walks blocks one at a time.

This module provides the batch-major counterpart, mirroring what
``PackedBlockBatch`` did for the surrogates: a :class:`PackedCorpus` lowers a
list of :class:`~repro.engine.compile.CompiledBlock` into padded NumPy
matrices (opcode indices, interned source/destination register ids, validity
implied by ``-1`` padding and per-block lengths; each block's operand rows
come memoized from :meth:`~repro.engine.compile.CompiledBlock.operand_rows`),
over which the numpy-vectorized timing kernels in
:mod:`repro.llvm_mca.megabatch` and :mod:`repro.llvm_sim.megabatch` advance
*every* block one dynamic instruction per step.  All kernel arithmetic is int64 cycle math, so the megabatch
timings are bit-identical to the scalar reference kernels (property-tested
in ``tests/test_megabatch.py``).

:func:`megabatch_timings` is the shared driver: it sorts blocks by their
total dynamic instruction count so lockstep chunks waste few inactive lanes,
packs each chunk, runs the kernel, and scatters timings back into input
order.  Every lane carries its own parameter table (an index into the
tables of the call), so one call covers many ``(table, block)`` pairs; a
single table is the case of one table index.  The schedule helpers both
kernels share (:func:`lane_runs`, :func:`tile_rows`, :func:`gather_pattern`,
:func:`port_slots`, :func:`stack_rows`, :func:`used_opcodes`) live here
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.engine.compile import CompiledBlock

#: Maximum blocks per lockstep kernel invocation.  Chunks bound peak state
#: memory (register scoreboards, reorder-buffer histories are ``O(B * T)``)
#: and keep each step's working set cache-sized; combined with the sorted
#: homogeneous chunking in :func:`megabatch_timings`, blocks of similar
#: dynamic length share a chunk so few lanes idle.  512 rather than 1024:
#: multi-table calls fill every chunk (a sweep's two-table calls fill
#: 1024-lane chunks where one table filled about 750), and kernel scratch
#: grows with lanes x horizon, so on the benchmark's sweep workload 1024
#: lanes raised peak RSS by about 14% over one-table calls, 512 by about 4%.
#: Dataset collection sizes its rounds from this constant too.
DEFAULT_MEGABATCH_CHUNK = 512

#: A chunk never mixes blocks whose total dynamic step counts differ by more
#: than this factor (plus a small absolute slack for very short blocks).
#: Lockstep cost is ``O(B * max_steps)``, so homogeneity keeps the padded
#: lane-step volume within ~2x of the useful work.
_CHUNK_STEP_RATIO = 2
_CHUNK_STEP_SLACK = 16

#: Below this many lanes a lockstep chunk cannot amortize the fixed numpy
#: dispatch overhead of each step (~20 ufunc calls) against the scalar
#: kernels' few microseconds per dynamic instruction, so chunks this skinny
#: run the per-block scalar kernel instead when the caller provides one.
#: Long-tailed corpora (BHive-style lengths) put their few longest blocks
#: in exactly such chunks.
MIN_LOCKSTEP_BLOCKS = 8


@dataclass(frozen=True)
class PackedCorpus:
    """A compiled-block corpus lowered to padded structure-of-arrays form.

    Attributes:
        lengths: ``(B,)`` int64 instruction counts per block.
        opcode_indices: ``(B, L)`` int64 opcode-table indices, zero-padded
            past each block's length (padded positions are never stepped —
            kernels mask lanes by ``lengths``).
        source_ids: ``(B, L, S)`` int64 interned source-register ids, padded
            with ``-1`` (both past a block's length and past an
            instruction's operand count).
        destination_ids: ``(B, L, D)`` int64 interned destination-register
            ids, ``-1``-padded like ``source_ids``.
        num_registers: ``(B,)`` int64 block-local register-universe sizes.
    """

    lengths: np.ndarray
    opcode_indices: np.ndarray
    source_ids: np.ndarray
    destination_ids: np.ndarray
    num_registers: np.ndarray

    @property
    def num_blocks(self) -> int:
        return int(self.lengths.shape[0])

    @property
    def max_length(self) -> int:
        return int(self.opcode_indices.shape[1])


def pack_corpus(compiled: Sequence[CompiledBlock]) -> PackedCorpus:
    """Lower ``compiled`` blocks into one :class:`PackedCorpus`.

    Operand matrices are padded to at least one slot so kernels never deal
    with zero-width gather/scatter axes.
    """
    count = len(compiled)
    lengths = np.fromiter((block.length for block in compiled), dtype=np.int64,
                          count=count)
    max_length = int(lengths.max(initial=1))
    operand_rows = [block.operand_rows() for block in compiled]
    max_sources = max((src.shape[1] for src, _ in operand_rows), default=1)
    max_destinations = max((dst.shape[1] for _, dst in operand_rows),
                           default=1)

    opcode_indices = np.zeros((count, max_length), dtype=np.int64)
    source_ids = np.full((count, max_length, max_sources), -1, dtype=np.int64)
    destination_ids = np.full((count, max_length, max_destinations), -1,
                              dtype=np.int64)
    for row, block in enumerate(compiled):
        opcode_indices[row, :block.length] = block.opcode_indices
        src, dst = operand_rows[row]
        source_ids[row, :src.shape[0], :src.shape[1]] = src
        destination_ids[row, :dst.shape[0], :dst.shape[1]] = dst
    num_registers = np.fromiter((block.num_registers for block in compiled),
                                dtype=np.int64, count=count)
    return PackedCorpus(lengths=lengths, opcode_indices=opcode_indices,
                        source_ids=source_ids, destination_ids=destination_ids,
                        num_registers=num_registers)


def shrink_iteration_counts(lengths: np.ndarray, warmup_iterations: int,
                            measure_iterations: int,
                            max_dynamic_instructions: int
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``_iteration_counts``: shrink windows for long blocks.

    Replicates the simulators' per-block loop exactly — first the
    measurement window shrinks (never below 2), then the warmup window
    (never below 1) — element-wise over ``lengths``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    warmup = np.full(lengths.shape, int(warmup_iterations), dtype=np.int64)
    measure = np.full(lengths.shape, int(measure_iterations), dtype=np.int64)

    def over_cap() -> np.ndarray:
        return (warmup + measure) * lengths > max_dynamic_instructions

    shrink = over_cap() & (measure > 2)
    while shrink.any():
        measure[shrink] -= 1
        shrink = over_cap() & (measure > 2)
    shrink = over_cap() & (warmup > 1)
    while shrink.any():
        warmup[shrink] -= 1
        shrink = over_cap() & (warmup > 1)
    return warmup, measure


# ----------------------------------------------------------------------
# Schedule helpers shared by the lockstep kernels
# ----------------------------------------------------------------------
def lane_runs(lengths: np.ndarray, warmup: np.ndarray,
              measure: np.ndarray) -> List[tuple]:
    """Split lanes (sorted by key) into ``(c0, c1)`` runs of equal keys."""
    change = np.nonzero((np.diff(lengths) != 0) | (np.diff(warmup) != 0)
                        | (np.diff(measure) != 0))[0] + 1
    bounds = [0, *change.tolist(), int(lengths.shape[0])]
    return list(zip(bounds[:-1], bounds[1:]))


def tile_rows(pattern: np.ndarray, repeats: int) -> np.ndarray:
    """Repeat ``pattern`` ``repeats`` times along axis 0 (memcpy speed)."""
    return np.tile(pattern, (repeats,) + (1,) * (pattern.ndim - 1))


def used_opcodes(opcode_indices: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct opcodes of ``opcode_indices`` and the matrix over them.

    Returns ``(opcodes, renumbered)``: ``renumbered`` indexes ``opcodes``
    with the shape of ``opcode_indices``.  Kernels derive their per-opcode
    tables only at these opcodes, so a call over many tables costs
    ``T x (opcodes used)`` rather than ``T x (opcode table size)``, and the
    port slots are sized by the opcodes that actually run.
    """
    opcodes, inverse = np.unique(opcode_indices, return_inverse=True)
    return opcodes, inverse.reshape(opcode_indices.shape)


def stack_rows(arrays: Sequence[np.ndarray], opcodes: np.ndarray) -> np.ndarray:
    """One per-opcode array per table, at ``opcodes``, stacked ``(T, O, ...)``."""
    return np.stack([np.asarray(array, dtype=np.int64)[opcodes]
                     for array in arrays])


def gather_pattern(stacked: np.ndarray, lane_table: np.ndarray,
                   opcode_pattern: np.ndarray) -> np.ndarray:
    """One run's per-lane rows of a table-stacked per-opcode array.

    ``stacked`` is ``(T, O, ...)``: one derived per-opcode array per table.
    ``opcode_pattern`` is a run's ``(L, nc)`` period of opcode indices and
    ``lane_table`` its ``(nc,)`` lane -> table indices.  Returns the
    pattern step-major and lane-minor: ``(L, nc)``, or ``(L, ..., nc)``
    with the trailing axes moved in front of the lane axis.
    """
    gathered = stacked[lane_table[None, :], opcode_pattern]
    if gathered.ndim > 2:
        gathered = np.moveaxis(gathered, 1, -1)
    return gathered


def port_slots(port_counts: np.ndarray,
               dummy_port: int) -> Tuple[np.ndarray, np.ndarray]:
    """Compress ``(T, O, P)`` per-port counts into per-opcode used-port slots.

    Returns ``(port_id, counts)``, each ``(T, O, U)`` where ``U`` is the
    largest number of ports any opcode of any table uses (at least 1):
    slot ``u`` of opcode ``o`` holds the index of its ``u``-th used port
    and that port's count.  Unused slots point at ``dummy_port`` with a
    zero count; the kernels turn those into hugely negative values, so
    padding loses every max and scatters only into the dummy row of the
    port state.
    """
    port_counts = np.asarray(port_counts, dtype=np.int64)
    used = port_counts > 0
    max_used = max(int(used.sum(axis=-1).max(initial=0)), 1)
    # Stable argsort of (not used) floats used ports to the front in
    # ascending port order, matching the scalar kernels' iteration order
    # (order does not affect results, but determinism is free).
    front = np.argsort(~used, axis=-1, kind="stable")[..., :max_used]
    counts = np.take_along_axis(port_counts, front, axis=-1)
    used_slots = counts > 0
    return (np.where(used_slots, front, dummy_port),
            np.where(used_slots, counts, 0))


#: A megabatch kernel:
#: ``(corpus, lane_table, warmup, measure) -> (B,) float64 timings``.
MegabatchKernel = Callable[[PackedCorpus, np.ndarray, np.ndarray, np.ndarray],
                           np.ndarray]

#: A per-block scalar kernel: ``(compiled, table_index, warmup, measure)
#: -> timing``.
ScalarKernel = Callable[[CompiledBlock, int, int, int], float]


def megabatch_timings(compiled: Sequence[CompiledBlock], lane_table: np.ndarray,
                      warmup: np.ndarray, measure: np.ndarray,
                      kernel: MegabatchKernel,
                      chunk_size: int = DEFAULT_MEGABATCH_CHUNK,
                      scalar_kernel: ScalarKernel = None) -> np.ndarray:
    """Run ``kernel`` over ``compiled`` in sorted lockstep chunks.

    Block ``i`` runs under table ``lane_table[i]`` (an index into the
    tables ``kernel`` and ``scalar_kernel`` close over), so chunks may mix
    tables freely.

    Blocks are ordered by total dynamic instruction count
    (``(warmup + measure) * length``), then split greedily into chunks of at
    most ``chunk_size`` blocks whose step counts stay within a small factor
    of the chunk's shortest block — lockstep lanes padded far past their own
    work would otherwise dominate both memory traffic and per-step overhead.
    Results are scattered back into input order.  The sort is stable, so
    equal-cost blocks keep their relative order and the chunking is fully
    deterministic.  Chunk membership never changes a block's timing (the
    kernels are bit-exact per lane), only throughput.

    Chunks with fewer than :data:`MIN_LOCKSTEP_BLOCKS` lanes run
    ``scalar_kernel`` per block, each under its own table, instead when one
    is provided: with so few lanes the vectorized step overhead exceeds the
    scalar kernels' cost, and the scalar kernels produce the same bits.
    """
    count = len(compiled)
    timings = np.empty(count, dtype=np.float64)
    if count == 0:
        return timings
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    lane_table = np.asarray(lane_table, dtype=np.intp)
    lengths = np.fromiter((block.length for block in compiled), dtype=np.int64,
                          count=count)
    total_steps = (np.asarray(warmup, dtype=np.int64)
                   + np.asarray(measure, dtype=np.int64)) * lengths
    order = np.argsort(total_steps, kind="stable")
    sorted_steps = total_steps[order]
    start = 0
    while start < count:
        ceiling = (max(int(sorted_steps[start]), 1) * _CHUNK_STEP_RATIO
                   + _CHUNK_STEP_SLACK)
        stop = min(count, start + chunk_size)
        limit = start + 1
        while limit < stop and int(sorted_steps[limit]) <= ceiling:
            limit += 1
        selected = order[start:limit]
        if scalar_kernel is not None and limit - start < MIN_LOCKSTEP_BLOCKS:
            for index in selected:
                timings[index] = scalar_kernel(compiled[index],
                                               int(lane_table[index]),
                                               int(warmup[index]),
                                               int(measure[index]))
        else:
            corpus = pack_corpus([compiled[index] for index in selected])
            timings[selected] = kernel(corpus, lane_table[selected],
                                       warmup[selected], measure[selected])
        start = limit
    return timings


def predict_timings_megabatch(simulator, blocks: Sequence) -> np.ndarray:
    """Shared ``predict_many`` implementation for both simulators.

    Routes batch prediction through the simulator's megabatch kernel
    (:meth:`predict_timing_batch`), falling back to the per-block scalar
    loop for simulators that do not provide one.
    """
    blocks = list(blocks)
    batch = getattr(simulator, "predict_timing_batch", None)
    if batch is not None:
        return np.asarray(batch(blocks), dtype=np.float64)
    return np.array([simulator.predict_timing(block) for block in blocks],
                    dtype=np.float64)


__all__ = [
    "DEFAULT_MEGABATCH_CHUNK",
    "MIN_LOCKSTEP_BLOCKS",
    "MegabatchKernel",
    "PackedCorpus",
    "ScalarKernel",
    "gather_pattern",
    "lane_runs",
    "megabatch_timings",
    "pack_corpus",
    "port_slots",
    "predict_timings_megabatch",
    "shrink_iteration_counts",
    "stack_rows",
    "tile_rows",
    "used_opcodes",
]
