"""Tests for the BHive-like dataset substrate: generator, categories,
measurement harness, dataset container."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bhive import (APPLICATION_PROFILES, BasicBlockDataset, BlockCategory, BlockGenerator,
                         LabeledBlock, MeasurementHarness, build_dataset, categorize_block)
from repro.bhive.applications import application_weights
from repro.bhive.dataset import DatasetSplits
from repro.isa.parser import parse_block
from repro.targets import HASWELL
from repro.targets.hardware import HardwareModel


class TestApplicationProfiles:
    def test_all_paper_applications_present(self):
        names = {profile.name for profile in APPLICATION_PROFILES}
        expected = {"OpenBLAS", "Redis", "SQLite", "GZip", "TensorFlow", "Clang/LLVM",
                    "Eigen", "Embree", "FFmpeg"}
        assert expected == names

    def test_weights_normalized(self):
        weights = application_weights()
        assert abs(sum(weights.values()) - 1.0) < 1e-9
        assert weights["Clang/LLVM"] == max(weights.values())

    def test_profile_mixes_are_positive(self):
        for profile in APPLICATION_PROFILES:
            assert all(weight > 0 for weight in profile.class_mix.values())
            assert profile.max_block_length >= profile.mean_block_length


class TestCategories:
    def test_scalar_block(self):
        block = parse_block("addq %rax, %rbx\nsubq %rcx, %rdx")
        assert categorize_block(block) == BlockCategory.SCALAR

    def test_vector_block(self):
        block = parse_block("mulps %xmm1, %xmm2\naddps %xmm2, %xmm3")
        assert categorize_block(block) == BlockCategory.VEC

    def test_scalar_vec_block(self):
        block = parse_block("addq %rax, %rbx\nmulps %xmm1, %xmm2")
        assert categorize_block(block) == BlockCategory.SCALAR_VEC

    def test_load_block(self):
        block = parse_block("movq 8(%rsp), %rax\nmovq 16(%rsp), %rbx")
        assert categorize_block(block) == BlockCategory.LD

    def test_store_block(self):
        block = parse_block("movq %rax, 8(%rsp)\nmovq %rbx, 16(%rsp)")
        assert categorize_block(block) == BlockCategory.ST

    def test_load_store_block(self):
        block = parse_block("movq 8(%rsp), %rax\nmovq %rax, 16(%rsp)")
        assert categorize_block(block) == BlockCategory.LD_ST

    def test_category_str(self):
        assert str(BlockCategory.SCALAR_VEC) == "Scalar/Vec"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=50_000))
    def test_every_generated_block_gets_a_category(self, seed):
        block = BlockGenerator(seed=seed).generate_block()
        assert isinstance(categorize_block(block), BlockCategory)


class TestGenerator:
    def test_block_count(self, block_generator):
        blocks = block_generator.generate_blocks(25)
        assert len(blocks) == 25

    def test_length_distribution_shape(self):
        generator = BlockGenerator(seed=3)
        lengths = [len(block) for block in generator.generate_blocks(400)]
        assert 2 <= np.median(lengths) <= 8
        assert np.mean(lengths) >= np.median(lengths) - 1  # long tail
        assert max(lengths) > 10

    def test_source_applications_assigned(self, block_generator):
        blocks = block_generator.generate_blocks(50)
        assert all(len(block.source_applications) >= 1 for block in blocks)
        names = {application for block in blocks for application in block.source_applications}
        assert len(names) >= 3

    def test_profile_specific_generation(self):
        generator = BlockGenerator(seed=5)
        eigen_profile = next(profile for profile in APPLICATION_PROFILES
                             if profile.name == "Eigen")
        blocks = [generator.generate_block(eigen_profile) for _ in range(30)]
        vector_fraction = np.mean([block.num_vector_instructions() / len(block)
                                   for block in blocks])
        assert vector_fraction > 0.25

    def test_determinism_given_seed(self):
        first = BlockGenerator(seed=11).generate_blocks(10)
        second = BlockGenerator(seed=11).generate_blocks(10)
        assert [b.to_assembly() for b in first] == [b.to_assembly() for b in second]

    def test_contains_zero_idioms_and_stack_traffic(self):
        generator = BlockGenerator(seed=13)
        blocks = generator.generate_blocks(300)
        opcode_names = {name for block in blocks for name in block.opcode_names()}
        assert "XOR32rr" in opcode_names
        assert "PUSH64r" in opcode_names or "POP64r" in opcode_names
        assert any(name.endswith("rm") for name in opcode_names)


class TestMeasurementHarness:
    def test_measure_block_returns_median(self, haswell_hardware, simple_block):
        harness = MeasurementHarness(haswell_hardware, runs=5, seed=1)
        result = harness.measure_block(simple_block)
        assert min(result.runs) <= result.timing <= max(result.runs)

    def test_stability_filtering(self, simple_block):
        hardware = HardwareModel(HASWELL, seed=0)
        strict = MeasurementHarness(hardware, runs=3, stability_threshold=0.0, seed=2)
        kept, timings = strict.measure_blocks([simple_block] * 5)
        assert len(kept) == len(timings) <= 5

    def test_keep_unstable_when_requested(self, haswell_hardware, sample_blocks):
        harness = MeasurementHarness(haswell_hardware, runs=3, stability_threshold=0.0, seed=3)
        kept, timings = harness.measure_blocks(sample_blocks[:10], drop_unstable=False)
        assert len(kept) == 10 and len(timings) == 10

    def test_invalid_runs(self, haswell_hardware):
        with pytest.raises(ValueError):
            MeasurementHarness(haswell_hardware, runs=0)


class TestDataset:
    def test_build_dataset_structure(self, small_dataset):
        assert len(small_dataset) > 100
        assert small_dataset.uarch_name == "Haswell"
        splits = small_dataset.splits
        total = len(splits.train) + len(splits.validation) + len(splits.test)
        assert total == len(small_dataset)
        assert len(splits.train) > len(splits.test)

    def test_split_ratios(self, small_dataset):
        fraction_train = len(small_dataset.splits.train) / len(small_dataset)
        assert 0.7 < fraction_train < 0.9

    def test_splits_are_block_disjoint(self, small_dataset):
        train_keys = {small_dataset[i].block.structural_key()
                      for i in small_dataset.splits.train}
        test_keys = {small_dataset[i].block.structural_key()
                     for i in small_dataset.splits.test}
        assert not (train_keys & test_keys)

    def test_summary_statistics_fields(self, small_dataset):
        stats = small_dataset.summary_statistics()
        for key in ["num_blocks_total", "num_blocks_train", "num_blocks_test",
                    "block_length_min", "block_length_median", "block_length_mean",
                    "block_length_max", "median_block_timing", "unique_opcodes_total"]:
            assert key in stats
        assert stats["num_blocks_total"] == len(small_dataset)
        assert stats["block_length_min"] >= 1
        assert stats["unique_opcodes_train"] <= stats["unique_opcodes_total"]

    def test_timings_positive(self, small_dataset):
        assert np.all(small_dataset.timings() > 0)

    def test_per_application_groups(self, small_dataset):
        groups = small_dataset.per_application_indices()
        assert groups
        for indices in groups.values():
            assert all(index in small_dataset.splits.test for index in indices)

    def test_per_category_groups(self, small_dataset):
        groups = small_dataset.per_category_indices()
        assert sum(len(indices) for indices in groups.values()) == \
            len(small_dataset.splits.test)

    def test_labeled_block_category(self, small_dataset):
        example = small_dataset[0]
        assert isinstance(example, LabeledBlock)
        assert isinstance(example.category, BlockCategory)

    def test_serialization_roundtrip(self, small_dataset, tmp_path):
        path = os.path.join(tmp_path, "dataset.json")
        small_dataset.save_json(path)
        restored = BasicBlockDataset.load_json(path)
        assert len(restored) == len(small_dataset)
        assert restored.splits.train == small_dataset.splits.train
        np.testing.assert_allclose(restored.timings(), small_dataset.timings())
        assert restored[0].block.opcode_names() == small_dataset[0].block.opcode_names()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            BasicBlockDataset(examples=[], uarch_name="Haswell")

    def test_explicit_splits_respected(self, small_dataset):
        examples = small_dataset.examples[:10]
        splits = DatasetSplits(train=list(range(8)), validation=[8], test=[9])
        dataset = BasicBlockDataset(examples, "Haswell", splits=splits)
        assert dataset.splits.test == [9]
        assert len(dataset.train_examples) == 8

    def test_accessors_follow_the_splits(self, small_dataset):
        assert sorted(small_dataset.splits.all_indices()) == list(range(len(small_dataset)))
        assert list(small_dataset) == small_dataset.examples
        assert small_dataset.validation_examples == small_dataset.subset(
            small_dataset.splits.validation)
        assert small_dataset.blocks() == [example.block for example in small_dataset]

    def test_tiny_dataset_borrows_validation_and_test_from_train(self, small_dataset):
        dataset = BasicBlockDataset(small_dataset.examples[:3], "Haswell")
        assert len(dataset.splits.train) == 2
        assert dataset.splits.validation == dataset.splits.train[-1:]
        assert len(dataset.splits.test) == 1

    def test_different_uarch_datasets_have_different_timings(self):
        haswell = build_dataset("haswell", num_blocks=60, seed=4)
        zen2 = build_dataset("zen2", num_blocks=60, seed=4)
        assert haswell.uarch_name != zen2.uarch_name
        # Same generator seed gives the same blocks, but measured timings differ.
        assert not np.allclose(haswell.timings()[:40], zen2.timings()[:40])
