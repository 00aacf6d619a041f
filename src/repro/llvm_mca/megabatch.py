"""Numpy-vectorized llvm-mca timing kernel over a whole packed corpus.

:func:`simulate_packed_mca` advances *every* block of a
:class:`~repro.engine.megabatch.PackedCorpus` through the four-stage
pipeline of :func:`repro.llvm_mca.simulator.simulate_bound_mca` in lockstep:
one step of the loop executes dynamic instruction ``t`` of every still-active
block, with the per-block scalar state (dispatch bandwidth, register
scoreboard, port reservations, reorder-buffer occupancy) held in
``(B,)``-shaped int64 arrays.

Equivalence with the scalar kernel is exact, not approximate: every quantity
is integer cycle arithmetic, each vectorized statement mirrors one statement
of the scalar loop, and the final per-iteration division happens in float64
on identical integers — so timings are bit-identical (pinned by the property
tests in ``tests/test_megabatch.py``).

The per-step cost is dominated by fixed numpy dispatch overhead and memory
traffic rather than element arithmetic, so both the step loop and the
schedule construction are engineered to stay minimal:

* everything derivable from the static schedule — per-step micro-op counts,
  operand indices, port-slot lists, stall thresholds — is materialized once
  up front, **step-major and lane-minor** (``(H, B)`` / ``(H, S, B)``), so
  each step slices contiguous rows and every 2D reduction runs over the
  fast axis;
* a lane's schedule repeats with period = its block length, so lanes are
  grouped into runs of identical (length, warmup, measure) — the kernel
  permutes lanes so equal keys are adjacent — and each run's schedule is
  gathered once at pattern size ``(L, ..., nc)`` and then *tiled* down the
  horizon at memcpy speed instead of fancy-gathered element by element;
* the port dimension is compressed from ``NUM_PORTS`` to the maximum
  number of ports any opcode of any table uses: each instruction carries a
  short list of (scaled port index, busy cycles) slots, padded with a
  dummy port row and hugely negative cycles so padding loses every max and
  scatters only into the dummy row of the port state;
* within a run every lane finishes at the same step, so there is no
  per-element activity masking at all: steps past a run's end are filled
  with constant pad rows (zero micro-ops, dummy ports, sentinel operand
  reads, sink writes), and the finished lanes step on garbage confined to
  their own state, snapshotted at their last active step;
* the reorder buffer exploits that retire cycles are non-decreasing per
  lane: entry ``t`` of lane ``b`` retires at ``rob_retire[t, b]``, so
  occupancy at any head position is a difference of prefix sums of the
  (static) per-entry micro-op counts, and the head only has to move — via
  a per-lane scalar bisection over the retire history — in the rare steps
  where a lane's buffer looks full.  Chunks whose lanes cannot fill the
  buffer at all (total micro-ops <= capacity) skip the stage entirely.

Every lane carries its own parameter table: the per-opcode quantities
derived from the tables are stacked ``(T, O, ...)`` over the opcodes the
chunk uses, and each run gathers them at pattern size with
``[lane_table, opcode]`` before tiling, while
``DispatchWidth`` and ``ReorderBufferSize`` become per-lane ``(B,)``
arrays.  One call therefore covers many ``(table, block)`` pairs; a single
table is the case ``T = 1``.

All scratch arrays are preallocated, so steps allocate nothing.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.engine.megabatch import (PackedCorpus, gather_pattern, lane_runs,
                                    port_slots, stack_rows, tile_rows,
                                    used_opcodes)
from repro.llvm_mca.params import (MCAParameterTable, NUM_PORTS,
                                   NUM_READ_ADVANCE_SLOTS)
from repro.llvm_mca.simulator import TIMING_ITERATIONS

#: Ready cycle of the per-lane sentinel register slot that invalid operand
#: reads are redirected to; low enough that it never wins an operand max,
#: high enough that subtracting any ReadAdvance cannot underflow int64.
_NEVER_READY = np.int64(-(2 ** 40))


def _first_unretired(retire_column: np.ndarray, lo: int, hi: int,
                     cycle: int) -> int:
    """First index in ``[lo, hi)`` whose retire cycle exceeds ``cycle``.

    A scalar bisection over a (strided) column view: ``np.searchsorted``
    would copy the column into a contiguous buffer on every call, which
    dominates the slow path for long histories.
    """
    while lo < hi:
        mid = (lo + hi) >> 1
        if retire_column[mid] <= cycle:
            lo = mid + 1
        else:
            hi = mid
    return lo


def simulate_packed_mca(tables: Sequence[MCAParameterTable],
                        corpus: PackedCorpus, lane_table: np.ndarray,
                        warmup: np.ndarray, measure: np.ndarray) -> np.ndarray:
    """Steady-state cycles/iteration of every corpus block under its table.

    Args:
        tables: The parameter tables the lanes draw from.
        corpus: Packed blocks (see :func:`repro.engine.megabatch.pack_corpus`).
        lane_table: ``(B,)`` index into ``tables`` per block.
        warmup: ``(B,)`` warmup iterations per block (>= 0).
        measure: ``(B,)`` measurement iterations per block (>= 1).

    Returns:
        ``(B,)`` float64 timings, bit-identical to running
        :func:`~repro.llvm_mca.simulator.simulate_bound_mca` per block under
        ``tables[lane_table[b]]``.
    """
    num_blocks = corpus.num_blocks
    if num_blocks == 0:
        return np.empty(0, dtype=np.float64)
    warmup = np.asarray(warmup, dtype=np.int64)
    measure = np.asarray(measure, dtype=np.int64)
    if np.any(measure < 1):
        raise ValueError("megabatch kernel requires measure >= 1 per block")

    # Lanes are permuted so equal (length, warmup, measure) keys become
    # adjacent runs: within a run every schedule is periodic with the same
    # period and every lane ends at the same step, so schedules are built
    # once per run at pattern size and tiled down the horizon.  All
    # simulation state lives in permuted lane space; timings scatter back
    # through ``perm`` at the end.
    perm = np.lexsort((measure, warmup, corpus.lengths))
    lengths = np.maximum(corpus.lengths[perm], 1)
    warmup = warmup[perm]
    measure = measure[perm]
    lane_table = np.asarray(lane_table, dtype=np.intp)[perm]
    opcodes, opcode_rows = used_opcodes(corpus.opcode_indices[perm])
    source_rows = corpus.source_ids[perm]
    destination_rows = corpus.destination_ids[perm]

    total_steps = (warmup + measure) * lengths
    warmup_steps = warmup * lengths
    horizon = int(total_steps.max(initial=1))
    rows = np.arange(num_blocks)
    runs = lane_runs(lengths, warmup, measure)

    # The two global parameters, per table and per lane.
    widths = np.array([int(table.dispatch_width) for table in tables],
                      dtype=np.int64)
    capacities = np.array([int(table.reorder_buffer_size) for table in tables],
                          dtype=np.int64)
    width = widths[lane_table]
    capacity = capacities[lane_table]

    # Per-opcode tables stacked (T, O, ...) over the opcodes the corpus
    # uses, gathered per run at pattern size below.
    table_width = widths[:, None]
    uops_table = np.maximum(
        stack_rows([table.num_micro_ops for table in tables], opcodes), 1)
    needed_table = np.minimum(uops_table, table_width)
    extra_table = np.where(uops_table > table_width,
                           (uops_table - 1) // table_width, 0)
    rob_table = np.minimum(uops_table, capacities[:, None])
    port_maps = stack_rows([table.port_map for table in tables], opcodes)
    span_table = np.maximum(port_maps.max(axis=2), 1)
    latency_table = stack_rows([table.write_latency for table in tables],
                               opcodes)
    port_id_table, port_busy_table = port_slots(port_maps, NUM_PORTS)
    port_busy_table = np.where(port_busy_table > 0, port_busy_table,
                               _NEVER_READY)
    num_slots = port_id_table.shape[2]
    scaled_port_table = port_id_table * num_blocks                # (T, O, U)
    num_sources = source_rows.shape[2]
    slot_clamp = np.minimum(np.arange(num_sources), NUM_READ_ADVANCE_SLOTS - 1)
    advance_table = stack_rows([table.read_advance_cycles[:, slot_clamp]
                                for table in tables], opcodes)    # (T, O, S)
    num_destinations = destination_rows.shape[2]

    # Register file: per-lane block of ``R`` real slots plus a sentinel slot
    # (invalid reads, hugely negative) and a sink slot (invalid writes).
    registers = max(int(corpus.num_registers.max(initial=0)), 1) + 2
    lane_base = rows * registers
    sentinel = lane_base + registers - 2
    sink = lane_base + registers - 1

    # Step-major schedules, filled run by run: ``x[step]`` is one
    # contiguous row per step.
    needed_sched = np.empty((horizon, num_blocks), dtype=np.int64)
    dispatch_thresh = np.empty((horizon, num_blocks), dtype=np.int64)
    extra_sched = np.empty((horizon, num_blocks), dtype=np.int64)
    rob_request = np.empty((horizon, num_blocks), dtype=np.int64)
    write_latency = np.empty((horizon, num_blocks), dtype=np.int64)
    resource_span = np.empty((horizon, num_blocks), dtype=np.int64)
    advance = np.empty((horizon, num_sources, num_blocks), dtype=np.int64)
    flat_sources = np.empty((horizon, num_sources, num_blocks), dtype=np.int64)
    flat_destinations = np.empty((horizon, num_destinations, num_blocks),
                                 dtype=np.int64)
    port_index = np.empty((horizon, num_slots, num_blocks), dtype=np.int64)
    port_busy = np.empty((horizon, num_slots, num_blocks), dtype=np.int64)
    lane_total_uops = np.empty(num_blocks, dtype=np.int64)
    have_extra = False
    warm_parts: Dict[int, List[np.ndarray]] = {}
    final_parts: Dict[int, List[np.ndarray]] = {}

    for c0, c1 in runs:
        length = int(lengths[c0])
        iterations = int(warmup[c0] + measure[c0])
        run_end = iterations * length
        cols = rows[c0:c1]
        # One period of the run's schedule: (L, nc) per-opcode gathers,
        # each lane from its own table.
        opcode_pat = np.ascontiguousarray(opcode_rows[c0:c1, :length].T)
        lanes_pat = lane_table[c0:c1]
        needed_pat = gather_pattern(needed_table, lanes_pat, opcode_pat)
        extra_pat = gather_pattern(extra_table, lanes_pat, opcode_pat)
        rob_pat = gather_pattern(rob_table, lanes_pat, opcode_pat)
        needed_sched[:run_end, c0:c1] = tile_rows(needed_pat, iterations)
        dispatch_thresh[:run_end, c0:c1] = tile_rows(width[c0:c1] - needed_pat,
                                                     iterations)
        extra_sched[:run_end, c0:c1] = tile_rows(extra_pat, iterations)
        rob_request[:run_end, c0:c1] = tile_rows(rob_pat, iterations)
        write_latency[:run_end, c0:c1] = tile_rows(
            gather_pattern(latency_table, lanes_pat, opcode_pat), iterations)
        resource_span[:run_end, c0:c1] = tile_rows(
            gather_pattern(span_table, lanes_pat, opcode_pat), iterations)
        have_extra = have_extra or bool(extra_pat.any())
        lane_total_uops[c0:c1] = rob_pat.sum(axis=0) * iterations

        advance[:run_end, :, c0:c1] = tile_rows(
            gather_pattern(advance_table, lanes_pat, opcode_pat), iterations)
        port_index_pat = (gather_pattern(scaled_port_table, lanes_pat,
                                         opcode_pat) + cols[None, None, :])
        port_index[:run_end, :, c0:c1] = tile_rows(port_index_pat, iterations)
        port_busy[:run_end, :, c0:c1] = tile_rows(
            gather_pattern(port_busy_table, lanes_pat, opcode_pat), iterations)

        # Operand ids: -1 padding redirects to the sentinel / sink slots on
        # the pattern, before tiling.
        source_pat = np.where(
            source_rows[c0:c1, :length] >= 0,
            source_rows[c0:c1, :length] + lane_base[c0:c1, None, None],
            sentinel[c0:c1, None, None]).transpose(1, 2, 0)
        flat_sources[:run_end, :, c0:c1] = tile_rows(source_pat, iterations)
        destination_pat = np.where(
            destination_rows[c0:c1, :length] >= 0,
            destination_rows[c0:c1, :length] + lane_base[c0:c1, None, None],
            sink[c0:c1, None, None]).transpose(1, 2, 0)
        flat_destinations[:run_end, :, c0:c1] = tile_rows(destination_pat,
                                                          iterations)

        # Pad rows past the run's end: zero micro-ops, dummy ports, sentinel
        # reads, sink writes — the finished lanes' bookkeeping freezes and
        # their garbage stays confined to their own state, which was
        # snapshotted at their last active step.
        if run_end < horizon:
            needed_sched[run_end:, c0:c1] = 0
            dispatch_thresh[run_end:, c0:c1] = width[c0:c1]
            extra_sched[run_end:, c0:c1] = 0
            rob_request[run_end:, c0:c1] = 0
            write_latency[run_end:, c0:c1] = 0
            resource_span[run_end:, c0:c1] = 1
            advance[run_end:, :, c0:c1] = 0
            port_index[run_end:, :, c0:c1] = (NUM_PORTS * num_blocks
                                              + cols)[None, None, :]
            port_busy[run_end:, :, c0:c1] = _NEVER_READY
            flat_sources[run_end:, :, c0:c1] = sentinel[c0:c1][None, None, :]
            flat_destinations[run_end:, :, c0:c1] = sink[c0:c1][None, None, :]

        warm_end = int(warmup_steps[c0])
        if warm_end > 0:
            warm_parts.setdefault(warm_end - 1, []).append(cols)
        final_parts.setdefault(run_end - 1, []).append(cols)

    warm_lanes = {step: np.concatenate(parts)
                  for step, parts in warm_parts.items()}
    final_lanes = {step: np.concatenate(parts)
                   for step, parts in final_parts.items()}

    # Reorder buffer: entry ``t`` of each lane is allocated at step ``t``
    # (finished lanes allocate zero-micro-op entries), so occupancy between
    # head and tail is a prefix-sum difference of the static request counts.
    # A lane is apparently full iff
    #   cum[step] - head_cum + request > capacity,
    # rewritten as ``head_cum < rob_thresh[step]`` with a static threshold
    # (hugely negative past a run's end so finished lanes never re-trigger);
    # ``capacity`` is each lane's own table's.  Chunks that cannot fill the
    # buffer at all skip the stage entirely.
    track_rob = bool((lane_total_uops > capacity).any())
    if track_rob:
        rob_cumulative = np.zeros((horizon + 1, num_blocks), dtype=np.int64)
        np.cumsum(rob_request, axis=0, out=rob_cumulative[1:])
        rob_thresh = rob_cumulative[:horizon] + rob_request
        rob_thresh -= capacity[None, :]
        for c0, c1 in runs:
            run_end = int(total_steps[c0])
            if run_end < horizon:
                rob_thresh[run_end:, c0:c1] = _NEVER_READY
        rob_retire = np.zeros((horizon, num_blocks), dtype=np.int64)

    register_ready = np.zeros(num_blocks * registers, dtype=np.int64)
    register_ready[sentinel] = _NEVER_READY
    port_free = np.zeros((NUM_PORTS + 1) * num_blocks, dtype=np.int64)
    dispatch_cycle = np.zeros(num_blocks, dtype=np.int64)
    dispatched = np.zeros(num_blocks, dtype=np.int64)
    previous_retire = np.zeros(num_blocks, dtype=np.int64)
    rob_head = np.zeros(num_blocks, dtype=np.int64)
    # Prefix sum of micro-ops already popped at each lane's head; only
    # changes when the head moves, so it is cached instead of re-gathered.
    rob_head_cumulative = np.zeros(num_blocks, dtype=np.int64)
    warmup_end = np.zeros(num_blocks, dtype=np.int64)
    final_end = np.zeros(num_blocks, dtype=np.int64)

    # Scratch buffers so the step loop allocates nothing.
    lane_i64 = np.empty(num_blocks, dtype=np.int64)
    lane_bool = np.empty(num_blocks, dtype=bool)
    source_ready = np.empty((num_sources, num_blocks), dtype=np.int64)
    operands_ready = np.empty(num_blocks, dtype=np.int64)
    issue_cycle = np.empty(num_blocks, dtype=np.int64)
    completion = np.empty(num_blocks, dtype=np.int64)
    slot_scratch = np.empty((num_slots, num_blocks), dtype=np.int64)

    take = np.take
    maximum = np.maximum
    add = np.add

    for step in range(horizon):
        # --------------------------------------------------------------
        # Dispatch stage: bandwidth, then reorder-buffer space.
        # --------------------------------------------------------------
        rollover = np.greater(dispatched, dispatch_thresh[step], out=lane_bool)
        add(dispatch_cycle, rollover, out=dispatch_cycle)
        dispatched[rollover] = 0

        if track_rob:
            # Deferred drain: lanes that still fit skip the buffer.
            apparently_full = np.less(rob_head_cumulative, rob_thresh[step],
                                      out=lane_bool)
            if apparently_full.any():
                for lane in np.nonzero(apparently_full)[0]:
                    lane = int(lane)
                    retires = rob_retire[:, lane]
                    cumulative = rob_cumulative[:, lane]
                    allocated = int(cumulative[step])
                    head = int(rob_head[lane])
                    cycle = int(dispatch_cycle[lane])
                    request = int(rob_request[step, lane])
                    lane_capacity = int(capacity[lane])
                    # Drain entries retired by the current cycle, then walk
                    # the clock forward entry by entry until the request
                    # fits — exactly ``ReorderBuffer.earliest_cycle_with_space``.
                    head = _first_unretired(retires, head, step, cycle)
                    while (allocated - int(cumulative[head]) + request
                           > lane_capacity and head < step):
                        retire = int(retires[head])
                        if retire > cycle:
                            cycle = retire
                        head = _first_unretired(retires, head, step, cycle)
                    rob_head[lane] = head
                    rob_head_cumulative[lane] = cumulative[head]
                    if cycle > dispatch_cycle[lane]:
                        dispatch_cycle[lane] = cycle
                        dispatched[lane] = 0
        add(dispatched, needed_sched[step], out=dispatched)

        # --------------------------------------------------------------
        # Issue stage: wait for register operands.
        # --------------------------------------------------------------
        take(register_ready, flat_sources[step], out=source_ready,
             mode="clip")
        np.subtract(source_ready, advance[step], out=source_ready)
        maximum.reduce(source_ready, axis=0, out=operands_ready)
        maximum(operands_ready, dispatch_cycle, out=operands_ready)

        # --------------------------------------------------------------
        # Execute stage: wait for the instruction's ports, then reserve
        # them.  Pad slots read the dummy port row (zero, then hugely
        # negative once written) and scatter back into it.
        # --------------------------------------------------------------
        indices = port_index[step]
        take(port_free, indices, out=slot_scratch, mode="clip")
        maximum.reduce(slot_scratch, axis=0, out=issue_cycle)
        maximum(issue_cycle, operands_ready, out=issue_cycle)
        add(port_busy[step], issue_cycle, out=slot_scratch)
        port_free[indices] = slot_scratch

        # Destinations become readable WriteLatency cycles after issue.
        add(issue_cycle, write_latency[step], out=lane_i64)
        register_ready[flat_destinations[step]] = lane_i64

        # --------------------------------------------------------------
        # Retire stage: in order, after execution completes.
        # --------------------------------------------------------------
        add(issue_cycle, resource_span[step], out=completion)
        maximum(completion, lane_i64, out=completion)
        add(dispatch_cycle, 1, out=lane_i64)
        maximum(completion, lane_i64, out=completion)
        maximum(previous_retire, completion, out=previous_retire)
        if track_rob:
            rob_retire[step] = previous_retire

        if have_extra:
            # Wider-than-dispatch instructions block the dispatcher for
            # their extra cycles.
            extra = extra_sched[step]
            add(dispatch_cycle, extra, out=dispatch_cycle)
            wide = np.not_equal(extra, 0, out=lane_bool)
            dispatched[wide] = 0

        lanes = warm_lanes.get(step)
        if lanes is not None:
            warmup_end[lanes] = previous_retire[lanes]
        lanes = final_lanes.get(step)
        if lanes is not None:
            final_end[lanes] = previous_retire[lanes]

    cycles_per_iteration = (final_end - warmup_end) / measure
    np.maximum(cycles_per_iteration, 1.0 / TIMING_ITERATIONS,
               out=cycles_per_iteration)
    timings = np.empty(num_blocks, dtype=np.float64)
    timings[perm] = cycles_per_iteration
    return timings


__all__ = ["simulate_packed_mca"]
