"""Collection of the simulated dataset used to train the surrogate.

Following Section III of the paper, the simulated dataset is built by
repeatedly (a) sampling a basic block from the ground-truth dataset,
(b) sampling a parameter table from the field sampling distributions,
(c) instantiating the original simulator with that table, and (d) recording
the simulator's prediction for the block.  The surrogate is then trained to
map ``(parameters, block) -> simulated timing``.

Simulation requests flow through the adapter's shared
:class:`~repro.engine.engine.SimulationEngine`, so block compilations are
reused across all sampled tables and any (table, block) pair already
evaluated elsewhere in the pipeline is served from the engine's result
cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adapters import SimulatorAdapter
from repro.core.parameters import ParameterArrays
from repro.engine.megabatch import DEFAULT_MEGABATCH_CHUNK
from repro.isa.basic_block import BasicBlock


@dataclass
class SimulatedExample:
    """One ``(parameter table, block, simulated timing)`` triple.

    The parameter table is stored once per sampled table (by reference) and
    shared between the examples generated with it, so memory stays
    proportional to the number of sampled tables rather than examples.
    """

    arrays: ParameterArrays
    block_index: int
    block: BasicBlock
    simulated_timing: float


def collect_simulated_dataset(adapter: SimulatorAdapter, blocks: Sequence[BasicBlock],
                              num_examples: int, rng: np.random.Generator,
                              blocks_per_table: int = 16,
                              progress: Optional[Callable[[int, int], None]] = None,
                              table_sampler: Optional[Callable[[np.random.Generator],
                                                               ParameterArrays]] = None
                              ) -> List[SimulatedExample]:
    """Build the simulated dataset.

    Args:
        adapter: Simulator adapter (defines the sampling distributions and
            runs the original simulator).
        blocks: Ground-truth training blocks to sample from.
        num_examples: Total number of (table, block, timing) examples.
        rng: Random generator for both table and block sampling.
        blocks_per_table: Number of blocks simulated per sampled table.
            Sampling several blocks per table amortizes simulator construction
            without changing the distribution materially (the paper samples a
            fresh table per block; with hundreds of tables the surrogate sees
            comparable parameter diversity).
        progress: Optional callback ``(done, total)`` for long runs.
        table_sampler: Optional override for the table sampling distribution
            (used by the local-refinement rounds to sample near the current
            estimate instead of from the global distribution).

    Returns:
        A list of :class:`SimulatedExample`.
    """
    examples: List[SimulatedExample] = []
    for arrays, block_indices, selected, timings, _rng_state in iter_simulated_rounds(
            adapter, blocks, num_examples, rng, blocks_per_table=blocks_per_table,
            table_sampler=table_sampler):
        for block_index, block, timing in zip(block_indices, selected, timings):
            examples.append(SimulatedExample(arrays=arrays, block_index=int(block_index),
                                             block=block, simulated_timing=float(timing)))
        if progress is not None:
            progress(len(examples), num_examples)
    return examples


def iter_simulated_rounds(adapter: SimulatorAdapter, blocks: Sequence[BasicBlock],
                          num_examples: int, rng: np.random.Generator,
                          blocks_per_table: int = 16,
                          table_sampler: Optional[Callable[[np.random.Generator],
                                                           ParameterArrays]] = None,
                          already_collected: int = 0
                          ) -> Iterator[Tuple[ParameterArrays, np.ndarray,
                                              List[BasicBlock], np.ndarray,
                                              Dict[str, Any]]]:
    """Stream the simulated dataset one sampled table at a time.

    Yields ``(arrays, block_indices, selected_blocks, timings, rng_state)``
    per sampled table, in exactly the order
    :func:`collect_simulated_dataset` records examples.  ``rng_state`` is
    the rng's bit-generator state right after that table's draws: the
    position a checkpoint taken after this table must record, since the
    live rng is already past the rest of its round.

    Tables are drawn in rounds of a fixed size,
    ``ceil(DEFAULT_MEGABATCH_CHUNK / blocks_per_table)`` tables (one kernel
    chunk's worth of lanes), whatever the engine's worker count, and each
    round's simulations go to the engine in one
    :meth:`~repro.engine.engine.SimulationEngine.run_pairs` call.  The last
    round draws only the tables still planned.  Each table draw is followed
    immediately by its block-index draw and evaluation draws nothing, so
    the draw stream, the dataset and the rng position after the stage are
    those of drawing one table at a time — and a run resumed from
    ``already_collected`` examples (with the rng restored to the state
    recorded after them) continues bit-identically, whatever worker count
    either run used.

    Args:
        already_collected: Number of examples already produced by a previous
            (checkpointed) run; iteration resumes mid-stream after them.
            Must sit on a table boundary — i.e. be a value some prefix of
            tables adds up to — which every multiple of ``blocks_per_table``
            (and ``num_examples`` itself) is.
    """
    if num_examples < 1:
        raise ValueError("num_examples must be >= 1")
    if len(blocks) == 0:
        raise ValueError("need at least one block to build the simulated dataset")
    if already_collected < 0 or already_collected > num_examples:
        raise ValueError("already_collected must be within [0, num_examples]")
    spec = adapter.parameter_spec()
    try:
        engine = adapter.engine
    except NotImplementedError:
        engine = None
    tables_per_round = -(-DEFAULT_MEGABATCH_CHUNK // blocks_per_table)

    collected = already_collected
    while collected < num_examples:
        planned = collected
        drawn = []
        while len(drawn) < tables_per_round and planned < num_examples:
            arrays = table_sampler(rng) if table_sampler is not None else spec.sample(rng)
            chunk = min(blocks_per_table, num_examples - planned)
            block_indices = rng.integers(0, len(blocks), size=chunk)
            selected = [blocks[int(index)] for index in block_indices]
            drawn.append((arrays, block_indices, selected,
                          rng.bit_generator.state))
            planned += chunk
        if engine is not None:
            timing_rows = engine.run_pairs(
                [(adapter.native_table(arrays), selected)
                 for arrays, _, selected, _ in drawn])
        else:
            timing_rows = [adapter.predict_timings(arrays, selected)
                           for arrays, _, selected, _ in drawn]
        for (arrays, block_indices, selected, rng_state), timings in zip(
                drawn, timing_rows):
            collected += len(block_indices)
            yield (arrays, block_indices, selected,
                   np.asarray(timings, dtype=np.float64), rng_state)


def random_table_errors(adapter: SimulatorAdapter, blocks: Sequence[BasicBlock],
                        true_timings: np.ndarray, num_tables: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Error of randomly sampled parameter tables against the ground truth.

    Reproduces the sanity number from Section V-A: a random table drawn from
    the sampling distribution has error 171.4% ± 95.7% on Haswell.
    """
    spec = adapter.parameter_spec()
    true_timings = np.asarray(true_timings, dtype=np.float64)
    # Sampling draws nothing from ``rng`` between tables, so all candidates
    # can be drawn up front and evaluated through the adapter's batch API
    # (which parallelizes across tables when workers are configured) without
    # changing the sampled sequence.
    candidates = [spec.sample(rng) for _ in range(num_tables)]
    predictions = adapter.predict_timings_batch(candidates, blocks)
    errors = np.mean(np.abs(predictions - true_timings[None, :]) /
                     np.maximum(true_timings, 1e-9)[None, :], axis=1)
    return errors.astype(np.float64)
