"""Plain random search over parameter tables.

The paper notes (Section I) that classic strategies like random search are
intractable for llvm-mca's parameter space; this module provides the
baseline so the claim can be checked directly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.baselines.search import CandidateScorer
from repro.core.adapters import SimulatorAdapter
from repro.core.parameters import ParameterArrays
from repro.isa.basic_block import BasicBlock

#: Tables drawn and scored per batched call; memory stays proportional to
#: the chunk, not the sample budget.
CHUNK_SIZE = 32


def random_search(adapter: SimulatorAdapter, blocks: Sequence[BasicBlock],
                  true_timings: np.ndarray, num_samples: int,
                  seed: int = 0) -> Tuple[ParameterArrays, float]:
    """Evaluate ``num_samples`` random tables on every block; return the best.

    Scoring draws nothing from the rng, so tables are drawn a chunk at a
    time and each chunk is scored in one batched call without changing the
    sampled sequence.

    Returns:
        ``(best_arrays, best_error)``.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    spec = adapter.parameter_spec()
    rng = np.random.default_rng(seed)
    scorer = CandidateScorer(adapter, blocks, true_timings, rng)
    best_arrays: Optional[ParameterArrays] = None
    best_error = float("inf")
    for start in range(0, num_samples, CHUNK_SIZE):
        candidates = [spec.sample(rng)
                      for _ in range(min(CHUNK_SIZE, num_samples - start))]
        for arrays, error in zip(candidates, scorer.score(candidates)):
            if error < best_error:
                best_arrays, best_error = arrays, error
    assert best_arrays is not None
    return best_arrays, best_error
