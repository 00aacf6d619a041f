"""Dataset container: labeled blocks, splits, statistics, serialization.

A :class:`BasicBlockDataset` holds basic blocks together with their measured
timings for one microarchitecture, split 80/10/10 into train / validation /
test sets that are block-wise disjoint (no identical block text appears in
two splits), matching the protocol in Section V-A of the paper.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import storage
from repro.bhive.categories import BlockCategory, categorize_block
from repro.bhive.generator import BlockGenerator
from repro.bhive.measurement import MeasurementHarness
from repro.isa.basic_block import BasicBlock
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE, OpcodeTable
from repro.isa.parser import parse_block
from repro.targets import get_uarch
from repro.targets.hardware import HardwareModel


@dataclass(frozen=True)
class LabeledBlock:
    """A basic block with its measured ground-truth timing."""

    block: BasicBlock
    timing: float

    @property
    def category(self) -> BlockCategory:
        return categorize_block(self.block)


@dataclass
class DatasetSplits:
    """Index lists defining the train / validation / test partition."""

    train: List[int]
    validation: List[int]
    test: List[int]

    def all_indices(self) -> List[int]:
        return list(self.train) + list(self.validation) + list(self.test)


class BasicBlockDataset:
    """Labeled basic blocks for one microarchitecture, with splits."""

    def __init__(self, examples: Sequence[LabeledBlock], uarch_name: str,
                 splits: Optional[DatasetSplits] = None, seed: int = 0) -> None:
        if not examples:
            raise ValueError("dataset requires at least one example")
        self.examples: List[LabeledBlock] = list(examples)
        self.uarch_name = uarch_name
        self.splits = splits or self._default_splits(seed)

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def _default_splits(self, seed: int) -> DatasetSplits:
        """80/10/10 split, block-wise disjoint on the assembly text."""
        rng = np.random.default_rng(seed)
        by_key: Dict[Tuple[str, ...], List[int]] = {}
        for index, example in enumerate(self.examples):
            by_key.setdefault(example.block.structural_key(), []).append(index)
        unique_keys = list(by_key.keys())
        order = rng.permutation(len(unique_keys))
        train_count = int(0.8 * len(unique_keys))
        validation_count = int(0.1 * len(unique_keys))
        train, validation, test = [], [], []
        for position, key_index in enumerate(order):
            indices = by_key[unique_keys[key_index]]
            if position < train_count:
                train.extend(indices)
            elif position < train_count + validation_count:
                validation.extend(indices)
            else:
                test.extend(indices)
        if not validation:
            validation = train[-1:]
        if not test:
            test = train[-1:]
        return DatasetSplits(train=train, validation=validation, test=test)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, index: int) -> LabeledBlock:
        return self.examples[index]

    def __iter__(self) -> Iterator[LabeledBlock]:
        return iter(self.examples)

    def subset(self, indices: Sequence[int]) -> List[LabeledBlock]:
        return [self.examples[index] for index in indices]

    @property
    def train_examples(self) -> List[LabeledBlock]:
        return self.subset(self.splits.train)

    @property
    def validation_examples(self) -> List[LabeledBlock]:
        return self.subset(self.splits.validation)

    @property
    def test_examples(self) -> List[LabeledBlock]:
        return self.subset(self.splits.test)

    def blocks(self) -> List[BasicBlock]:
        return [example.block for example in self.examples]

    def timings(self) -> np.ndarray:
        return np.array([example.timing for example in self.examples], dtype=np.float64)

    # ------------------------------------------------------------------
    # Statistics (Table III)
    # ------------------------------------------------------------------
    def summary_statistics(self) -> Dict[str, float]:
        """Summary statistics mirroring Table III of the paper."""
        lengths = np.array([len(example.block) for example in self.examples])
        timings = self.timings()
        unique_opcodes = set()
        train_opcodes, validation_opcodes, test_opcodes = set(), set(), set()
        for split_name, indices, bucket in (
                ("train", self.splits.train, train_opcodes),
                ("validation", self.splits.validation, validation_opcodes),
                ("test", self.splits.test, test_opcodes)):
            for index in indices:
                names = self.examples[index].block.unique_opcode_names()
                bucket.update(names)
                unique_opcodes.update(names)
        return {
            "num_blocks_total": len(self.examples),
            "num_blocks_train": len(self.splits.train),
            "num_blocks_validation": len(self.splits.validation),
            "num_blocks_test": len(self.splits.test),
            "block_length_min": int(lengths.min()),
            "block_length_median": float(np.median(lengths)),
            "block_length_mean": float(lengths.mean()),
            "block_length_max": int(lengths.max()),
            "median_block_timing": float(np.median(timings)),
            "unique_opcodes_train": len(train_opcodes),
            "unique_opcodes_validation": len(validation_opcodes),
            "unique_opcodes_test": len(test_opcodes),
            "unique_opcodes_total": len(unique_opcodes),
        }

    def per_application_indices(self) -> Dict[str, List[int]]:
        """Test-set indices grouped by source application (Table V, top)."""
        groups: Dict[str, List[int]] = {}
        for index in self.splits.test:
            for application in self.examples[index].block.source_applications:
                groups.setdefault(application, []).append(index)
        return groups

    def per_category_indices(self) -> Dict[BlockCategory, List[int]]:
        """Test-set indices grouped by resource category (Table V, bottom)."""
        groups: Dict[BlockCategory, List[int]] = {}
        for index in self.splits.test:
            category = self.examples[index].category
            groups.setdefault(category, []).append(index)
        return groups

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save_json(self, path: str) -> None:
        payload = {
            "uarch": self.uarch_name,
            "examples": [
                {
                    "assembly": example.block.to_assembly(),
                    "applications": list(example.block.source_applications),
                    "timing": example.timing,
                }
                for example in self.examples
            ],
            "splits": {
                "train": self.splits.train,
                "validation": self.splits.validation,
                "test": self.splits.test,
            },
        }
        storage.atomic_write(path, json.dumps(payload).encode())

    @classmethod
    def load_json(cls, path: str,
                  opcode_table: Optional[OpcodeTable] = None) -> "BasicBlockDataset":
        opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        payload = storage.read_json(path)
        examples = []
        for entry in payload["examples"]:
            block = parse_block(entry["assembly"], opcode_table,
                                source_applications=entry.get("applications", ()))
            examples.append(LabeledBlock(block=block, timing=float(entry["timing"])))
        splits = DatasetSplits(train=payload["splits"]["train"],
                               validation=payload["splits"]["validation"],
                               test=payload["splits"]["test"])
        return cls(examples=examples, uarch_name=payload["uarch"], splits=splits)


def build_dataset(uarch_name: str = "haswell", num_blocks: int = 2000, seed: int = 0,
                  opcode_table: Optional[OpcodeTable] = None,
                  generator: Optional[BlockGenerator] = None) -> BasicBlockDataset:
    """Generate and measure a dataset for one microarchitecture.

    This is the top-level convenience used by the experiments: generate
    ``num_blocks`` synthetic blocks, time them on the target's hardware model
    (dropping unstable measurements), and wrap them with an 80/10/10 split.
    """
    spec = get_uarch(uarch_name)
    generator = generator or BlockGenerator(opcode_table=opcode_table, seed=seed)
    hardware = HardwareModel(spec, seed=seed + 1)
    harness = MeasurementHarness(hardware, seed=seed + 2)
    blocks = generator.generate_blocks(num_blocks)
    kept_blocks, timings = harness.measure_blocks(blocks)
    examples = [LabeledBlock(block=block, timing=float(timing))
                for block, timing in zip(kept_blocks, timings)]
    return BasicBlockDataset(examples=examples, uarch_name=spec.name, seed=seed)
