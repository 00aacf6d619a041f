"""Streaming simulated-dataset collection and shard-backed training sources.

Three pieces turn phase one of DiffTune into a corpus-scale streaming
pipeline:

* :class:`StreamingSimulatedDataset` — the simulated dataset held as flat
  index/timing arrays plus one table list (never a per-example object list);
  converts losslessly to/from the exact ``simulated_dataset.npz`` layout the
  pipeline's :class:`~repro.pipeline.stages.CollectDatasetStage` archives.
* :func:`collect_simulated_dataset_streaming` — drives
  :func:`repro.core.simulated_dataset.iter_simulated_rounds` over any
  random-access block source (a list, a :class:`~repro.corpus.sharded.CorpusView`),
  appending rounds to a :class:`StreamingSimulatedDataset` and checkpointing
  every ``checkpoint_every`` examples through a
  :class:`CollectionCheckpoint`.  The rng stream is pinned per checkpoint, so
  a killed run resumes **bit-identically**: the final dataset equals an
  uninterrupted run's byte for byte.
* :class:`StreamingExamples` — the duck-typed example source
  :func:`repro.core.surrogate_training.train_surrogate` streams from:
  per-example timings/tables by index, per-block packed arrays served from a
  :class:`~repro.corpus.store.ShardedFeaturizationStore` mmap when available
  (falling back to bounded in-memory featurization).
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import storage
from repro.core.parameters import ParameterArrays
from repro.core.simulated_dataset import SimulatedExample, iter_simulated_rounds
from repro.core.surrogate import FeaturizationCache

PARTIAL_NAME = "partial_dataset.npz"
#: Archive member holding the checkpoint's JSON progress record.
PROGRESS_KEY = "progress"


class StreamingSimulatedDataset:
    """A simulated dataset as flat arrays: tables + (table, block, timing) rows.

    Memory is proportional to the number of sampled *tables* plus three
    scalars per example — no per-example Python objects, no block
    references — so a million-example dataset costs megabytes, not
    gigabytes.
    """

    def __init__(self, tables: Optional[List[ParameterArrays]] = None,
                 example_table: Optional[List[int]] = None,
                 example_block: Optional[List[int]] = None,
                 example_timing: Optional[List[float]] = None) -> None:
        self.tables: List[ParameterArrays] = tables if tables is not None else []
        self.example_table: List[int] = (example_table if example_table is not None
                                         else [])
        self.example_block: List[int] = (example_block if example_block is not None
                                         else [])
        self.example_timing: List[float] = (example_timing
                                            if example_timing is not None else [])

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
        """The exact array layout of the pipeline's ``simulated_dataset.npz``.

        Byte-identical to ``_examples_to_arrays`` over the equivalent
        in-memory example list: tables appear in sampling order (which is
        first-appearance order there too) and the per-example rows align.
        """
        if not self.tables:
            raise ValueError("cannot serialize an empty simulated dataset")
        return {
            "table_global_values": np.stack(
                [table.global_values for table in self.tables]),
            "table_per_instruction_values": np.stack(
                [table.per_instruction_values for table in self.tables]),
            "example_table": np.asarray(self.example_table, dtype=np.int64),
            "example_block": np.asarray(self.example_block, dtype=np.int64),
            "example_timing": np.asarray(self.example_timing, dtype=np.float64),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "StreamingSimulatedDataset":
        """Rebuild from the npz layout of :meth:`to_arrays`."""
        example_table = arrays["example_table"]
        num_tables = int(example_table.max()) + 1 if len(example_table) else 0
        tables = [ParameterArrays(
            global_values=np.asarray(arrays["table_global_values"][index]),
            per_instruction_values=np.asarray(
                arrays["table_per_instruction_values"][index]))
            for index in range(num_tables)]
        return cls(tables=tables,
                   example_table=[int(value) for value in example_table],
                   example_block=[int(value) for value in arrays["example_block"]],
                   example_timing=[float(value) for value in arrays["example_timing"]])

    def materialize(self, blocks: Sequence[Any]) -> List[SimulatedExample]:
        """Expand into the classic per-example object list (small datasets)."""
        return [SimulatedExample(arrays=self.tables[table_index],
                                 block_index=block_index,
                                 block=blocks[block_index],
                                 simulated_timing=timing)
                for table_index, block_index, timing in zip(
                    self.example_table, self.example_block, self.example_timing)]


class CollectionCheckpoint:
    """Partial-collection checkpoint: one ``.npz`` under ``directory``.

    The archive holds the dataset collected so far plus a JSON progress
    record (the target example count and the rng bit-generator state after
    the collected rows), written atomically in one piece so the two can
    never disagree.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    @property
    def path(self) -> str:
        return os.path.join(self.directory, PARTIAL_NAME)

    def save(self, dataset: StreamingSimulatedDataset, rng: np.random.Generator,
             num_examples: int) -> None:
        progress = storage.encode_json({
            "num_examples": int(num_examples),
            "rng_state": storage.encode_rng_state(rng.bit_generator.state),
        })
        arrays = dataset.to_arrays()
        arrays[PROGRESS_KEY] = np.frombuffer(progress, dtype=np.uint8)
        storage.atomic_write(self.path,
                             storage.encode_arrays(arrays, compressed=False))

    def load(self) -> Optional["tuple[StreamingSimulatedDataset, Any, int]"]:
        """The saved partial dataset, rng state, and target example count."""
        if not os.path.exists(self.path):
            return None
        arrays = storage.read_arrays(self.path)
        if PROGRESS_KEY not in arrays:
            raise storage.CorruptArtifactError(
                f"{self.path} holds no {PROGRESS_KEY!r} record")
        progress = storage.decode_json(arrays.pop(PROGRESS_KEY).tobytes(),
                                       self.path)
        return (StreamingSimulatedDataset.from_arrays(arrays),
                storage.decode_rng_state(progress["rng_state"]),
                int(progress["num_examples"]))

    def clear(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)


def collect_simulated_dataset_streaming(
        adapter: Any, blocks: Sequence[Any], num_examples: int,
        rng: np.random.Generator, blocks_per_table: int = 16,
        table_sampler: Optional[Callable[[np.random.Generator],
                                         ParameterArrays]] = None,
        checkpoint: Optional[CollectionCheckpoint] = None,
        checkpoint_every: int = 0,
        progress: Optional[Callable[[int, int], None]] = None
        ) -> StreamingSimulatedDataset:
    """Collect the simulated dataset as flat arrays, checkpointing mid-stage.

    Draw-stream equivalent to
    :func:`repro.core.simulated_dataset.collect_simulated_dataset` — the
    returned dataset's :meth:`~StreamingSimulatedDataset.to_arrays` is
    byte-identical to archiving the in-memory collector's output — but
    memory stays flat in ``num_examples`` and the engine's parallel
    megabatch path is fed round by round.

    With a ``checkpoint``, progress is persisted every ``checkpoint_every``
    collected examples (and the rng stream position with it); a later call
    with the same arguments resumes mid-collection bit-identically.
    """
    dataset = StreamingSimulatedDataset()
    if checkpoint is not None:
        loaded = checkpoint.load()
        if loaded is not None:
            dataset, rng_state, recorded_target = loaded
            if recorded_target != num_examples:
                raise ValueError(
                    f"collection checkpoint targets {recorded_target} "
                    f"examples; this run asks for {num_examples} — clear the "
                    f"checkpoint or match the configuration")
            if len(dataset) > num_examples:
                raise ValueError("collection checkpoint is ahead of the "
                                 "requested example count")
            rng.bit_generator.state = rng_state
    last_saved = len(dataset)
    for arrays, block_indices, _selected, timings in iter_simulated_rounds(
            adapter, blocks, num_examples, rng,
            blocks_per_table=blocks_per_table, table_sampler=table_sampler,
            already_collected=len(dataset)):
        dataset.append_round(arrays, block_indices, timings)
        if progress is not None:
            progress(len(dataset), num_examples)
        if (checkpoint is not None and checkpoint_every > 0
                and len(dataset) - last_saved >= checkpoint_every
                and len(dataset) < num_examples):
            checkpoint.save(dataset, rng, num_examples)
            last_saved = len(dataset)
    return dataset


class StreamingExamples:
    """Shard-streaming example source for surrogate training/evaluation.

    Presents a :class:`StreamingSimulatedDataset` to
    :func:`~repro.core.surrogate_training.train_surrogate` through the
    index-addressed protocol its streaming branch consumes (``__len__``,
    ``timing``, ``table``, ``block_arrays``) — per-block
    arrays come from the featurization store's memory maps when one is
    attached, otherwise from bounded on-the-fly featurization of the (lazily
    parsed) blocks.
    """

    def __init__(self, dataset: StreamingSimulatedDataset, blocks: Sequence[Any],
                 cache: FeaturizationCache,
                 store: Optional[Any] = None) -> None:
        self.dataset = dataset
        self.blocks = blocks
        self.cache = cache
        self.store = store

    def __len__(self) -> int:
        return len(self.dataset)

    def _block_position(self, index: int) -> int:
        return int(self.dataset.example_block[int(index)])

    def _global_block_index(self, position: int) -> int:
        # A CorpusView remaps positions to corpus-global indices (what the
        # store is addressed by); a plain list or whole corpus is identity.
        if hasattr(self.blocks, "global_index"):
            return self.blocks.global_index(position)
        return position

    def timing(self, index: int) -> float:
        return float(self.dataset.example_timing[int(index)])

    def table(self, index: int) -> ParameterArrays:
        return self.dataset.tables[int(self.dataset.example_table[int(index)])]

    def block_arrays(self, index: int) -> Dict[str, np.ndarray]:
        position = self._block_position(index)
        if self.store is not None:
            return self.store.arrays_for_index(self._global_block_index(position))
        return self.cache.arrays_for(self.cache.featurize(self.blocks[position]))
