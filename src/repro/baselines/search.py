"""The scorer every black-box search baseline evaluates its candidates with.

A searcher proposes candidate parameter tables; a :class:`CandidateScorer`
simulates each one on a block batch and returns its MAPE against the
measured timings.  It is the one place the searchers touch the simulator:

* an empty block list is rejected once, when the scorer is built;
* each candidate's batch, ``min(blocks_per_evaluation, len(blocks))`` block
  indices drawn with replacement, comes from the searcher's rng in candidate
  order; a scorer built without ``blocks_per_evaluation`` scores on every
  block and draws nothing;
* all ``(table, batch)`` pairs of one :meth:`~CandidateScorer.score` call
  go through the adapter's batch API, one engine ``run_pairs`` call;
* a call charges ``len(candidates) * batch_size`` block evaluations, and
  :meth:`~CandidateScorer.affords` checks a call against the budget by the
  same amount;
* :meth:`~CandidateScorer.full_error` scores the final table on the full
  block set, uncharged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.adapters import SimulatorAdapter
from repro.core.losses import mape_loss_value
from repro.core.parameters import ParameterArrays
from repro.isa.basic_block import BasicBlock


class CandidateScorer:
    """Scores candidate tables on block batches and charges a block budget."""

    def __init__(self, adapter: SimulatorAdapter, blocks: Sequence[BasicBlock],
                 true_timings: np.ndarray, rng: np.random.Generator, *,
                 blocks_per_evaluation: Optional[int] = None,
                 budget: float = float("inf")) -> None:
        if not blocks:
            raise ValueError("need at least one evaluation block")
        self.adapter = adapter
        self.blocks = list(blocks)
        self.true_timings = np.asarray(true_timings, dtype=np.float64)
        self.rng = rng
        self.draws_batches = blocks_per_evaluation is not None
        self.batch_size = (min(blocks_per_evaluation, len(self.blocks))
                           if self.draws_batches else len(self.blocks))
        self.budget = budget
        #: Block evaluations charged so far.
        self.evaluations = 0

    def affords(self, num_candidates: int = 1) -> bool:
        """Whether scoring ``num_candidates`` more stays within the budget."""
        return self.evaluations + num_candidates * self.batch_size <= self.budget

    def score(self, candidates: Sequence[ParameterArrays]) -> List[float]:
        """MAPE of each candidate on its own block batch, in candidate order."""
        pairs, targets = [], []
        for arrays in candidates:
            if self.draws_batches:
                batch = self.rng.integers(0, len(self.blocks), size=self.batch_size)
                pairs.append((arrays, [self.blocks[int(index)] for index in batch]))
                targets.append(self.true_timings[batch])
            else:
                pairs.append((arrays, self.blocks))
                targets.append(self.true_timings)
        rows = self.adapter.predict_timings_batch(pairs)
        self.evaluations += len(pairs) * self.batch_size
        return [mape_loss_value(row, target) for row, target in zip(rows, targets)]

    def full_error(self, arrays: ParameterArrays) -> float:
        """MAPE of ``arrays`` on every block (not charged to the budget)."""
        (row,) = self.adapter.predict_timings_batch([(arrays, self.blocks)])
        return mape_loss_value(row, self.true_timings)
