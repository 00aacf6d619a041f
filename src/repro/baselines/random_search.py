"""Plain random search over parameter tables.

The paper notes (Section I) that classic strategies like random search are
intractable for llvm-mca's parameter space; this module provides the
baseline so the claim can be checked directly, and is also used to compute
the "random parameter table" error reported in Section V-A.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.adapters import SimulatorAdapter
from repro.core.losses import mape_loss_value
from repro.core.parameters import ParameterArrays
from repro.isa.basic_block import BasicBlock


def random_search(adapter: SimulatorAdapter, blocks: Sequence[BasicBlock],
                  true_timings: np.ndarray, num_samples: int,
                  seed: int = 0,
                  blocks_per_evaluation: Optional[int] = None
                  ) -> Tuple[ParameterArrays, float]:
    """Evaluate ``num_samples`` random tables and return the best one.

    Args:
        adapter: Simulator adapter defining the sampling distribution.
        blocks: Evaluation blocks.
        true_timings: Ground-truth timings aligned with ``blocks``.
        num_samples: Number of random tables to draw.
        seed: Random seed.
        blocks_per_evaluation: Evaluate each table on a random subset of this
            many blocks (defaults to all blocks).

    Returns:
        ``(best_arrays, best_error)``.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if blocks_per_evaluation is not None and blocks_per_evaluation < 1:
        raise ValueError("blocks_per_evaluation must be >= 1")
    if not blocks:
        raise ValueError("need at least one evaluation block")
    spec = adapter.parameter_spec()
    rng = np.random.default_rng(seed)
    true_timings = np.asarray(true_timings, dtype=np.float64)

    if blocks_per_evaluation is None or blocks_per_evaluation >= len(blocks):
        # Full-dataset evaluation draws nothing from ``rng`` besides the
        # tables themselves, so candidates can be sampled a chunk at a time
        # and handed to the adapter's batch API — which fans tables out
        # across processes when engine workers are configured — without
        # changing the sampled sequence.  Chunking keeps memory proportional
        # to the chunk, not the full sample budget.
        chunk_size = 32
        best_arrays = None
        best_error = float("inf")
        remaining = num_samples
        while remaining > 0:
            candidates = [spec.sample(rng) for _ in range(min(chunk_size, remaining))]
            remaining -= len(candidates)
            predictions = adapter.predict_timings_batch(candidates, blocks)
            for arrays, row in zip(candidates, predictions):
                error = mape_loss_value(row, true_timings)
                if error < best_error:
                    best_arrays, best_error = arrays, error
        assert best_arrays is not None
        return best_arrays, best_error

    best_arrays: Optional[ParameterArrays] = None
    best_error = float("inf")
    for _ in range(num_samples):
        arrays = spec.sample(rng)
        indices = rng.choice(len(blocks), size=blocks_per_evaluation, replace=False)
        subset = [blocks[int(index)] for index in indices]
        targets = true_timings[indices]
        error = mape_loss_value(adapter.predict_timings(arrays, subset), targets)
        if error < best_error:
            best_arrays, best_error = arrays, error
    assert best_arrays is not None
    return best_arrays, best_error
