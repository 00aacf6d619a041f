"""Numpy-vectorized llvm_sim timing kernel over a whole packed corpus.

The lockstep counterpart of
:func:`repro.llvm_sim.simulator.simulate_bound_llvm_sim`: every block of a
:class:`~repro.engine.megabatch.PackedCorpus` advances one dynamic
instruction per step, with the frontend delivery counter, register
scoreboard, and per-port next-free cycles held in int64 arrays.

Two scalar inner loops collapse into closed forms:

* **frontend** — per-micro-op delivery cycles are non-decreasing, so the
  instruction's delivery cycle is that of its *last* micro-op:
  ``decode_latency + (delivered + n - 1) // uops_per_cycle``;
* **port execution** — the decoded micro-op list groups micro-ops by port
  (``np.repeat`` order), so ``k`` micro-ops on port ``p`` start at
  ``max(ready, port_free[p])`` and serialize one per cycle: the last starts
  ``k - 1`` cycles later and the port frees ``k`` cycles after the base.
  The bookkeeping micro-op of a portless instruction contributes
  ``start == ready``, restored by a final ``max(last_start, ready)``.

The loop follows the same engineering rules as the llvm-mca kernel (see
:mod:`repro.llvm_mca.megabatch`): static schedules are precomputed
step-major / lane-minor so each step slices contiguous rows and reductions
run over the fast axis; lanes are permuted so runs of equal
(length, warmup, measure) keys are adjacent, each run's periodic schedule is
gathered once at pattern size and tiled down the horizon at memcpy speed;
the port axis is compressed to the few slots each opcode actually uses
(padded slots carry the dummy port and hugely negative counts, losing every
max and scattering only into the dummy row); finished lanes step on garbage
state instead of being masked — constant pad rows past a run's end freeze
their frontend and ports, operand reads redirect to a per-lane sentinel
slot, register writes stay confined to the lane's own scoreboard — and
iteration boundaries are snapshotted at each lane's last active step, before
garbage can reach them.

Each lane carries its own parameter table, as in the llvm-mca kernel: the
per-opcode quantities are stacked ``(T, O, ...)`` over the call's tables and
the opcodes the chunk uses, and gathered per run with
``[lane_table, opcode]``, so one call covers many ``(table, block)`` pairs.

All arithmetic is int64 cycle math over the same integers the scalar kernel
produces, so timings are bit-identical (pinned by the property tests in
``tests/test_megabatch.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.engine.megabatch import (PackedCorpus, gather_pattern, lane_runs,
                                    port_slots, stack_rows, tile_rows,
                                    used_opcodes)
from repro.llvm_sim.params import LLVMSimParameterTable, NUM_PORTS

#: Ready cycle of the per-lane sentinel register slot; never wins an
#: operand max against a non-negative delivery cycle.
_NEVER_READY = np.int64(-(2 ** 40))


def simulate_packed_llvm_sim(tables: Sequence[LLVMSimParameterTable],
                             corpus: PackedCorpus, lane_table: np.ndarray,
                             uops_per_cycle: int, decode_latency: int,
                             warmup: np.ndarray, measure: np.ndarray
                             ) -> np.ndarray:
    """Steady-state cycles/iteration of every corpus block under its table.

    Args:
        tables: The llvm_sim parameter tables the lanes draw from.
        corpus: Packed blocks (see :func:`repro.engine.megabatch.pack_corpus`).
        lane_table: ``(B,)`` index into ``tables`` per block.
        uops_per_cycle: Frontend delivery throughput.
        decode_latency: Fixed frontend pipeline depth in cycles.
        warmup: ``(B,)`` warmup iterations per block (>= 0).
        measure: ``(B,)`` measurement iterations per block (>= 1).

    Returns:
        ``(B,)`` float64 timings, bit-identical to running
        :func:`~repro.llvm_sim.simulator.simulate_bound_llvm_sim` per block
        under ``tables[lane_table[b]]``.
    """
    num_blocks = corpus.num_blocks
    if num_blocks == 0:
        return np.empty(0, dtype=np.float64)
    warmup = np.asarray(warmup, dtype=np.int64)
    measure = np.asarray(measure, dtype=np.int64)
    if np.any(measure < 1):
        raise ValueError("megabatch kernel requires measure >= 1 per block")
    if uops_per_cycle < 1:
        raise ValueError("frontend must deliver at least one micro-op per cycle")
    uops_per_cycle = np.int64(uops_per_cycle)
    decode_latency = np.int64(decode_latency)

    # Lanes permuted so equal (length, warmup, measure) keys form adjacent
    # runs; schedules are built once per run and tiled (see module docs).
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

    # Per-opcode tables stacked (T, O, ...) over the opcodes the corpus
    # uses, gathered per run at pattern size below.  A zero PortMap row
    # still decodes one bookkeeping micro-op.
    port_counts = stack_rows([table.port_uops for table in tables], opcodes)
    decoded_table = np.maximum(port_counts.sum(axis=2), 1)
    latency_table = stack_rows([table.write_latency for table in tables],
                               opcodes)
    # Retire lower-bounds completion by last_start + 1, so fold the clamp
    # into the latency: completion = last_start + max(latency, 1).
    retire_table = np.maximum(latency_table, 1)
    # Slot ``u`` carries ``k - 1`` for the opcode's ``k`` micro-ops on its
    # ``u``-th used port.
    port_id_table, count_table = port_slots(port_counts, NUM_PORTS)
    count_table = np.where(count_table > 0, count_table - 1, _NEVER_READY)
    num_slots = port_id_table.shape[2]
    scaled_port_table = port_id_table * num_blocks                # (T, O, U)
    num_sources = source_rows.shape[2]
    num_destinations = destination_rows.shape[2]

    # Register file: per-lane real slots plus a sentinel slot (invalid
    # reads, hugely negative) and a sink slot (invalid writes).
    registers = max(int(corpus.num_registers.max(initial=0)), 1) + 2
    lane_base = rows * registers
    sentinel = lane_base + registers - 2
    sink = lane_base + registers - 1

    # Step-major schedules, filled run by run.
    decoded_uops = np.empty((horizon, num_blocks), dtype=np.int64)
    uops_minus_one = np.empty((horizon, num_blocks), dtype=np.int64)
    write_latency = np.empty((horizon, num_blocks), dtype=np.int64)
    retire_latency = np.empty((horizon, num_blocks), dtype=np.int64)
    port_index = np.empty((horizon, num_slots, num_blocks), dtype=np.int64)
    count_minus_one = np.empty((horizon, num_slots, num_blocks),
                               dtype=np.int64)
    flat_sources = np.empty((horizon, num_sources, num_blocks), dtype=np.int64)
    flat_destinations = np.empty((horizon, num_destinations, num_blocks),
                                 dtype=np.int64)
    warm_parts: Dict[int, List[np.ndarray]] = {}
    final_parts: Dict[int, List[np.ndarray]] = {}

    for c0, c1 in runs:
        length = int(lengths[c0])
        iterations = int(warmup[c0] + measure[c0])
        run_end = iterations * length
        cols = rows[c0:c1]
        opcode_pat = np.ascontiguousarray(opcode_rows[c0:c1, :length].T)
        lanes_pat = lane_table[c0:c1]
        decoded_pat = gather_pattern(decoded_table, lanes_pat, opcode_pat)
        decoded_uops[:run_end, c0:c1] = tile_rows(decoded_pat, iterations)
        uops_minus_one[:run_end, c0:c1] = tile_rows(decoded_pat - 1,
                                                    iterations)
        write_latency[:run_end, c0:c1] = tile_rows(
            gather_pattern(latency_table, lanes_pat, opcode_pat), iterations)
        retire_latency[:run_end, c0:c1] = tile_rows(
            gather_pattern(retire_table, lanes_pat, opcode_pat), iterations)
        port_index_pat = (gather_pattern(scaled_port_table, lanes_pat,
                                         opcode_pat) + cols[None, None, :])
        port_index[:run_end, :, c0:c1] = tile_rows(port_index_pat, iterations)
        count_minus_one[:run_end, :, c0:c1] = tile_rows(
            gather_pattern(count_table, lanes_pat, opcode_pat), iterations)

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
        # reads, sink writes — finished lanes' bookkeeping freezes and their
        # garbage stays confined to their own state, snapshotted at their
        # last active step.
        if run_end < horizon:
            decoded_uops[run_end:, c0:c1] = 0
            uops_minus_one[run_end:, c0:c1] = -1
            write_latency[run_end:, c0:c1] = 0
            retire_latency[run_end:, c0:c1] = 1
            port_index[run_end:, :, c0:c1] = (NUM_PORTS * num_blocks
                                              + cols)[None, None, :]
            count_minus_one[run_end:, :, c0:c1] = _NEVER_READY
            flat_sources[run_end:, :, c0:c1] = sentinel[c0:c1][None, None, :]
            flat_destinations[run_end:, :, c0:c1] = sink[c0:c1][None, None, :]

        warm_end = int(warmup_steps[c0])
        if warm_end > 0:
            warm_parts.setdefault(warm_end - 1, []).append(cols)
        final_parts.setdefault(run_end - 1, []).append(cols)

    warm_map = {step: np.concatenate(parts)
                for step, parts in warm_parts.items()}
    final_map = {step: np.concatenate(parts)
                 for step, parts in final_parts.items()}

    register_ready = np.zeros(num_blocks * registers, dtype=np.int64)
    register_ready[sentinel] = _NEVER_READY
    port_free = np.zeros((NUM_PORTS + 1) * num_blocks, dtype=np.int64)
    delivered = np.zeros(num_blocks, dtype=np.int64)
    previous_retire = np.zeros(num_blocks, dtype=np.int64)
    warmup_end = np.zeros(num_blocks, dtype=np.int64)
    final_end = np.zeros(num_blocks, dtype=np.int64)

    # Scratch buffers so the step loop allocates nothing.
    lane_i64 = np.empty(num_blocks, dtype=np.int64)
    ready = np.empty(num_blocks, dtype=np.int64)
    last_start = np.empty(num_blocks, dtype=np.int64)
    source_ready = np.empty((num_sources, num_blocks), dtype=np.int64)
    slot_scratch = np.empty((num_slots, num_blocks), dtype=np.int64)

    take = np.take
    maximum = np.maximum
    add = np.add

    for step in range(horizon):
        # Frontend: the instruction waits for its last micro-op's delivery.
        add(delivered, uops_minus_one[step], out=lane_i64)
        np.floor_divide(lane_i64, uops_per_cycle, out=lane_i64)
        add(lane_i64, decode_latency, out=lane_i64)
        add(delivered, decoded_uops[step], out=delivered)

        # Rename/dispatch: wait for the instruction's register sources.
        take(register_ready, flat_sources[step], out=source_ready,
             mode="clip")
        maximum.reduce(source_ready, axis=0, out=ready)
        maximum(ready, lane_i64, out=ready)

        # Execute: k micro-ops on one port serialize one per cycle starting
        # at max(ready, port_free); the last starts k - 1 cycles later and
        # the port frees one cycle after that.  Pad slots go hugely
        # negative (losing every max) and scatter into the dummy row.
        indices = port_index[step]
        take(port_free, indices, out=slot_scratch, mode="clip")
        maximum(slot_scratch, ready, out=slot_scratch)
        add(slot_scratch, count_minus_one[step], out=slot_scratch)
        maximum.reduce(slot_scratch, axis=0, out=last_start)
        maximum(last_start, ready, out=last_start)
        add(slot_scratch, 1, out=slot_scratch)
        port_free[indices] = slot_scratch

        # Destinations become readable WriteLatency cycles after the last
        # micro-op starts.
        add(last_start, write_latency[step], out=lane_i64)
        register_ready[flat_destinations[step]] = lane_i64

        # Retire in order once every micro-op has finished.
        add(last_start, retire_latency[step], out=lane_i64)
        maximum(previous_retire, lane_i64, out=previous_retire)

        lanes = warm_map.get(step)
        if lanes is not None:
            warmup_end[lanes] = previous_retire[lanes]
        lanes = final_map.get(step)
        if lanes is not None:
            final_end[lanes] = previous_retire[lanes]

    cycles_per_iteration = (final_end - warmup_end) / measure
    np.maximum(cycles_per_iteration, 0.01, out=cycles_per_iteration)
    timings = np.empty(num_blocks, dtype=np.float64)
    timings[perm] = cycles_per_iteration
    return timings


__all__ = ["simulate_packed_llvm_sim"]
