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

The dataset is one :class:`SimulatedDataset` whatever the block source — a
block list or a lazy :class:`~repro.corpus.sharded.CorpusView`: the sampled
tables, stacked into one array per kind, plus three flat lists holding
each example's table index, block position and timing, with no
per-example objects, so a million-example dataset costs megabytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.adapters import SimulatorAdapter
from repro.core.parameters import ParameterArrays, TableStack
from repro.engine.megabatch import DEFAULT_MEGABATCH_CHUNK
from repro.isa.basic_block import BasicBlock


@dataclass(eq=False)
class SimulatedDataset:
    """``(parameter table, block, simulated timing)`` triples as flat rows.

    Example ``i`` is ``tables[example_table[i]]`` applied to
    ``blocks[example_block[i]]``, timed at ``example_timing[i]``.  Each
    sampled table is stored once, in sampling order, as one row of a
    :class:`~repro.core.parameters.TableStack`, so memory stays
    proportional to the number of tables plus three scalars per example and
    a minibatch gathers its parameter rows in one index.  ``blocks`` is the
    source the block positions index; nothing here parses it, so a corpus
    view stays lazy.
    """

    blocks: Sequence[BasicBlock]
    tables: TableStack = field(default_factory=TableStack)
    example_table: List[int] = field(default_factory=list)
    example_block: List[int] = field(default_factory=list)
    example_timing: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.tables = TableStack.from_tables(self.tables)

    def __len__(self) -> int:
        return len(self.example_timing)

    def append_round(self, arrays: ParameterArrays, block_indices: np.ndarray,
                     timings: np.ndarray) -> None:
        """Append one sampled table and the examples drawn with it."""
        table_index = len(self.tables)
        self.tables.append(arrays)
        for block_index, timing in zip(block_indices, timings):
            self.example_table.append(table_index)
            self.example_block.append(int(block_index))
            self.example_timing.append(float(timing))

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The array layout of the pipeline's ``simulated_dataset.npz``.

        The table arrays are views of the stored stack, not copies.
        """
        if not len(self.tables):
            raise ValueError("cannot serialize an empty simulated dataset")
        return {
            "table_global_values": self.tables.global_values,
            "table_per_instruction_values": self.tables.per_instruction_values,
            "example_table": np.asarray(self.example_table, dtype=np.int64),
            "example_block": np.asarray(self.example_block, dtype=np.int64),
            "example_timing": np.asarray(self.example_timing, dtype=np.float64),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray],
                    blocks: Sequence[BasicBlock]) -> "SimulatedDataset":
        """Rebuild over ``blocks`` from the layout of :meth:`to_arrays`."""
        tables = TableStack(global_values=arrays["table_global_values"],
                            per_instruction_values=arrays["table_per_instruction_values"])
        return cls(blocks, tables, arrays["example_table"].tolist(),
                   arrays["example_block"].tolist(),
                   arrays["example_timing"].tolist())


def collect_simulated_dataset(adapter: SimulatorAdapter, blocks: Sequence[BasicBlock],
                              num_examples: int, rng: np.random.Generator,
                              blocks_per_table: int = 16,
                              table_sampler: Optional[Callable[[np.random.Generator],
                                                               ParameterArrays]] = None
                              ) -> SimulatedDataset:
    """Build the simulated dataset.

    Args:
        adapter: Simulator adapter (defines the sampling distributions and
            runs the original simulator).
        blocks: Ground-truth training blocks to sample from: a list or a
            lazy corpus view, which collection parses only where it draws.
        num_examples: Total number of (table, block, timing) examples.
        rng: Random generator for both table and block sampling.
        blocks_per_table: Number of blocks simulated per sampled table.
            Sampling several blocks per table amortizes simulator construction
            without changing the distribution materially (the paper samples a
            fresh table per block; with hundreds of tables the surrogate sees
            comparable parameter diversity).
        table_sampler: Optional override for the table sampling distribution
            (used by the local-refinement rounds to sample near the current
            estimate instead of from the global distribution).

    Tables are drawn in rounds of a fixed size,
    ``ceil(DEFAULT_MEGABATCH_CHUNK / blocks_per_table)`` tables (one kernel
    chunk's worth of lanes), whatever the engine's worker count, and each
    round's simulations go to
    :meth:`~repro.core.adapters.SimulatorAdapter.predict_timings_batch` in
    one call (one engine ``run_pairs`` call).  The last
    round draws only the tables still planned.  Each table draw is followed
    immediately by its block-index draw and evaluation draws nothing, so
    the draw stream, the dataset and the rng position after the stage are
    those of drawing one table at a time, whatever the engine's worker
    count.
    """
    if num_examples < 1:
        raise ValueError("num_examples must be >= 1")
    if len(blocks) == 0:
        raise ValueError("need at least one block to build the simulated dataset")
    dataset = SimulatedDataset(blocks)
    spec = adapter.parameter_spec()
    tables_per_round = -(-DEFAULT_MEGABATCH_CHUNK // blocks_per_table)
    # Every table gets its row of the stack up front.
    dataset.tables.reserve(-(-num_examples // blocks_per_table))

    while len(dataset) < num_examples:
        planned = len(dataset)
        drawn = []
        while len(drawn) < tables_per_round and planned < num_examples:
            arrays = table_sampler(rng) if table_sampler is not None else spec.sample(rng)
            chunk = min(blocks_per_table, num_examples - planned)
            block_indices = rng.integers(0, len(blocks), size=chunk)
            selected = [blocks[int(index)] for index in block_indices]
            drawn.append((arrays, block_indices, selected))
            planned += chunk
        timing_rows = adapter.predict_timings_batch(
            [(arrays, selected) for arrays, _, selected in drawn])
        for (arrays, block_indices, _selected), timings in zip(drawn, timing_rows):
            dataset.append_round(arrays, block_indices, timings)
    return dataset
