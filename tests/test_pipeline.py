"""Tests for the resumable tuning pipeline (repro.pipeline).

Covers the stage sequence, the checkpoint store (fingerprint pinning, rng
snapshots), bit-identical resume after an interruption — including
mid-refinement — deterministic refinement rounds, the multi-target runner,
and the ParameterArrays codec the per-stage table artifacts are built on.
"""

import json
import logging
import multiprocessing
import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import storage
from repro.autodiff.serialization import decode_parameter_arrays, encode_parameter_arrays
from repro.core.adapters import MCAAdapter
from repro.core.difftune import DiffTune
from repro.core.parameters import ParameterArrays
from repro.core.config import test_config as tiny_config
from repro.api import SpecValidationError, TuneSpec
from repro.pipeline import (CheckpointMismatchError, CheckpointStore,
                            CollectDatasetStage, PipelineState, build_stages,
                            tune_target, tune_targets)
from repro.storage import CorruptArtifactError
from repro.targets import HASWELL


@pytest.fixture(scope="module")
def training_data(small_dataset):
    train = small_dataset.train_examples[:40]
    blocks = [example.block for example in train]
    timings = np.array([example.timing for example in train])
    return blocks, timings


def _make_difftune(refinement_rounds=0, seed=0):
    config = tiny_config(seed)
    config.refinement_rounds = refinement_rounds
    config.refinement_dataset_size = 48
    return DiffTune(MCAAdapter(HASWELL, narrow_sampling=True), config)


def _tables_equal(a: ParameterArrays, b: ParameterArrays) -> bool:
    return (np.array_equal(a.per_instruction_values, b.per_instruction_values)
            and np.array_equal(a.global_values, b.global_values))


class TestStageSequence:
    def test_stage_names_without_refinement(self):
        names = [stage.name for stage in build_stages(tiny_config())]
        assert names == ["collect_dataset", "train_surrogate", "optimize_table",
                         "extract_evaluate"]

    def test_refinement_rounds_become_stages(self):
        config = tiny_config()
        config.refinement_rounds = 2
        names = [stage.name for stage in build_stages(config)]
        assert names == ["collect_dataset", "train_surrogate", "optimize_table",
                         "refinement_round_01", "refinement_round_02",
                         "extract_evaluate"]

    def test_unknown_stop_after_rejected(self, training_data):
        blocks, timings = training_data
        difftune = _make_difftune()
        with pytest.raises(ValueError, match="unknown stage"):
            difftune.learn(blocks, timings, stop_after="nope")

    def test_resume_requires_checkpoint_dir(self, training_data):
        blocks, timings = training_data
        with pytest.raises(ValueError, match="requires a checkpoint directory"):
            _make_difftune().learn(blocks, timings, resume=True)

    def test_stop_after_requires_checkpoint_dir(self, training_data):
        """Stopping early without checkpoints would silently throw the
        completed stages' work away; it must be rejected up front."""
        blocks, timings = training_data
        with pytest.raises(ValueError, match="checkpoint directory"):
            _make_difftune().learn(blocks, timings, stop_after="train_surrogate")


class TestResume:
    @pytest.mark.parametrize("stop_after", ["collect_dataset", "train_surrogate",
                                            "optimize_table"])
    def test_interrupted_run_resumes_bit_identically(self, training_data, tmp_path,
                                                     stop_after):
        """The acceptance criterion: a run killed after any stage, resumed
        with ``resume=True``, yields a bit-identical learned table to an
        uninterrupted run with the same seed."""
        blocks, timings = training_data
        full = _make_difftune(refinement_rounds=1).learn(blocks, timings)
        checkpoint_dir = str(tmp_path / stop_after)
        stopped = _make_difftune(refinement_rounds=1).learn(
            blocks, timings, checkpoint_dir=checkpoint_dir, stop_after=stop_after)
        assert stopped is None
        resumed = _make_difftune(refinement_rounds=1).learn(
            blocks, timings, checkpoint_dir=checkpoint_dir, resume=True)
        assert _tables_equal(full.learned_arrays, resumed.learned_arrays)
        assert resumed.train_error == full.train_error
        assert resumed.resumed_stages[-1] == stop_after

    def test_mid_refinement_resume(self, training_data, tmp_path):
        """Resume inside the refinement sequence: round 1 done, round 2 not."""
        blocks, timings = training_data
        full = _make_difftune(refinement_rounds=2).learn(blocks, timings)
        checkpoint_dir = str(tmp_path / "refine")
        _make_difftune(refinement_rounds=2).learn(
            blocks, timings, checkpoint_dir=checkpoint_dir,
            stop_after="refinement_round_01")
        resumed = _make_difftune(refinement_rounds=2).learn(
            blocks, timings, checkpoint_dir=checkpoint_dir, resume=True)
        assert _tables_equal(full.learned_arrays, resumed.learned_arrays)
        assert "refinement_round_01" in resumed.resumed_stages
        assert "refinement_round_02" not in resumed.resumed_stages

    def test_resume_of_finished_run_replays_from_checkpoints(self, training_data,
                                                             tmp_path, caplog):
        blocks, timings = training_data
        checkpoint_dir = str(tmp_path / "done")
        first = _make_difftune().learn(blocks, timings, checkpoint_dir=checkpoint_dir)
        with caplog.at_level(logging.INFO, logger="repro"):
            replayed = _make_difftune().learn(
                blocks, timings, checkpoint_dir=checkpoint_dir, resume=True)
        assert _tables_equal(first.learned_arrays, replayed.learned_arrays)
        # Every stage came from disk; nothing was recomputed.
        assert len(replayed.resumed_stages) == 4
        restored = [record.getMessage() for record in caplog.records
                    if record.name == "repro.core.difftune"
                    and record.getMessage().startswith("resume:")]
        assert restored == [f"resume: restored completed stage '{stage}' "
                            f"from {checkpoint_dir}"
                            for stage in replayed.resumed_stages]
        assert not any("collecting simulated dataset" in record.getMessage()
                       for record in caplog.records)

    def test_resume_restores_simulated_dataset(self, training_data, tmp_path):
        blocks, timings = training_data
        checkpoint_dir = str(tmp_path / "dataset")
        difftune = _make_difftune()
        difftune.learn(blocks, timings, checkpoint_dir=checkpoint_dir,
                       stop_after="collect_dataset")
        state = PipelineState(adapter=difftune.adapter, config=difftune.config,
                              blocks=blocks, true_timings=timings,
                              rng=np.random.default_rng(0),
                              featurizer=difftune.featurizer)
        CollectDatasetStage().load(state, CheckpointStore(checkpoint_dir))
        dataset = state.simulated_dataset
        assert len(dataset) == state.config.simulated_dataset_size
        # Table sharing survives the round-trip: examples drawn with the same
        # sampled table share one stored table.
        assert len(dataset.tables) < len(dataset)
        assert dataset.blocks is state.blocks
        assert all(0 <= index < len(blocks) for index in dataset.example_block)

    def test_resume_rejects_edited_stage_artifact(self, training_data,
                                                  tmp_path):
        """A completed stage's files are checked against the digests its
        manifest entry recorded: an edited summary is never returned."""
        blocks, timings = training_data
        checkpoint_dir = str(tmp_path / "edited")
        _make_difftune().learn(blocks, timings, checkpoint_dir=checkpoint_dir)
        path = os.path.join(checkpoint_dir, "extract_evaluate", "summary.json")
        with open(path) as handle:
            summary = json.load(handle)
        summary["train_error"] = 0.0
        with open(path, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        with pytest.raises(CorruptArtifactError) as excinfo:
            _make_difftune().learn(blocks, timings,
                                   checkpoint_dir=checkpoint_dir, resume=True)
        message = str(excinfo.value)
        for part in (checkpoint_dir, "extract_evaluate", "summary.json"):
            assert part in message

    def test_resume_rejects_truncated_surrogate_state(self, training_data,
                                                      tmp_path):
        blocks, timings = training_data
        checkpoint_dir = str(tmp_path / "truncated")
        _make_difftune().learn(blocks, timings, checkpoint_dir=checkpoint_dir,
                               stop_after="train_surrogate")
        path = os.path.join(checkpoint_dir, "train_surrogate",
                            "surrogate_state.npz")
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[:len(payload) // 2])
        with pytest.raises(CorruptArtifactError) as excinfo:
            _make_difftune().learn(blocks, timings,
                                   checkpoint_dir=checkpoint_dir, resume=True)
        message = str(excinfo.value)
        for part in (checkpoint_dir, "train_surrogate", "surrogate_state.npz"):
            assert part in message

    def test_mismatched_config_is_rejected(self, training_data, tmp_path):
        blocks, timings = training_data
        checkpoint_dir = str(tmp_path / "mismatch")
        _make_difftune(seed=0).learn(blocks, timings, checkpoint_dir=checkpoint_dir,
                                     stop_after="collect_dataset")
        with pytest.raises(CheckpointMismatchError):
            _make_difftune(seed=1).learn(blocks, timings,
                                         checkpoint_dir=checkpoint_dir, resume=True)

    def test_fresh_run_over_same_config_resets_completions(self, training_data,
                                                           tmp_path):
        blocks, timings = training_data
        checkpoint_dir = str(tmp_path / "fresh")
        _make_difftune().learn(blocks, timings, checkpoint_dir=checkpoint_dir)
        store = CheckpointStore(checkpoint_dir)
        assert len(store.completed_stages()) == 4
        # A non-resume run over the same directory starts from scratch.
        _make_difftune().learn(blocks, timings, checkpoint_dir=checkpoint_dir,
                               stop_after="collect_dataset")
        store = CheckpointStore(checkpoint_dir)
        assert store.completed_stages() == ["collect_dataset"]


class TestRefinementDeterminism:
    def test_refinement_rounds_deterministic_under_fixed_seed(self, training_data):
        """ISSUE 4 satellite: refinement re-collects near the estimate,
        fine-tunes, and re-optimizes deterministically under a fixed seed."""
        blocks, timings = training_data
        first = _make_difftune(refinement_rounds=1).learn(blocks, timings)
        second = _make_difftune(refinement_rounds=1).learn(blocks, timings)
        assert _tables_equal(first.learned_arrays, second.learned_arrays)
        assert first.train_error == second.train_error
        assert first.table_result.epoch_losses == second.table_result.epoch_losses

    def test_refinement_logs_and_improves_or_keeps_best(self, training_data, caplog):
        blocks, timings = training_data
        no_refinement = _make_difftune().learn(blocks, timings)
        with caplog.at_level(logging.INFO, logger="repro"):
            refined = _make_difftune(refinement_rounds=2).learn(blocks, timings)
        messages = [record.getMessage() for record in caplog.records]
        assert any("refinement round 1" in message for message in messages)
        assert any("refinement round 2" in message for message in messages)
        assert refined.train_error <= no_refinement.train_error + 1e-12


class TestMultiTarget:
    def test_tune_target_matches_difftune(self):
        spec = TuneSpec(target="haswell", num_blocks=60, seed=0, preset="test")
        outcome = tune_target(spec)
        assert outcome.completed
        assert outcome.train_error is not None
        assert outcome.test_error is not None
        outcome.learned_table.validate()

    def test_sequential_multi_target(self, tmp_path):
        specs = [TuneSpec(target=target, num_blocks=60, seed=0, preset="test",
                          checkpoint_dir=str(tmp_path / target))
                 for target in ("haswell", "zen2")]
        outcomes = tune_targets(specs, workers=0)
        assert set(outcomes) == {"haswell", "zen2"}
        assert all(outcome.completed for outcome in outcomes.values())

    def test_duplicate_targets_rejected(self):
        # An alias names the same target as its canonical key.
        for names in (("haswell", "haswell"), ("zen2", "znver2")):
            with pytest.raises(ValueError, match="duplicate targets"):
                tune_targets([TuneSpec(target=name) for name in names])

    def test_unknown_preset_rejected(self):
        specs = [TuneSpec(target="haswell", num_blocks=60, preset="test"),
                 TuneSpec(target="zen2", num_blocks=60, preset="huge")]
        with pytest.raises(SpecValidationError) as excinfo:
            tune_targets(specs)
        assert excinfo.value.field == "preset"

    def test_failing_target_recorded_without_sinking_siblings(self, tmp_path):
        from repro.corpus import ShardedCorpus

        # A zen2 corpus handed to a haswell run passes spec validation and
        # fails once the run opens it.
        corpus_dir = str(tmp_path / "corpus")
        ShardedCorpus.build(corpus_dir, uarch_name="zen2", num_blocks=40, seed=0)
        specs = [TuneSpec(target="haswell", corpus_path=corpus_dir, preset="test"),
                 TuneSpec(target="zen2", num_blocks=60, seed=0, preset="test")]
        outcomes = tune_targets(specs, workers=0)
        assert outcomes["zen2"].completed
        assert not outcomes["zen2"].failed
        failed = outcomes["haswell"]
        assert failed.failed and not failed.completed
        assert failed.learned_table is None
        assert failed.error.startswith("SpecValidationError: corpus_path")
        assert "was generated for" in failed.error
        assert "Traceback" in failed.traceback


class TestPoolWorkerDeath:
    def test_killed_target_fails_and_finished_target_keeps_its_outcome(
            self, tmp_path, monkeypatch, deadline):
        """A worker SIGKILLed mid-target breaks the pool: that target comes
        back failed naming ``BrokenProcessPool`` while a target that had
        already finished keeps its outcome."""
        from repro.api.session import Session

        finished = tmp_path / "haswell-finished"

        def tune(session):
            if session.spec.target == "zen2":
                if multiprocessing.parent_process() is None:
                    raise AssertionError("the killed target ran in the test process")
                while not finished.exists():
                    time.sleep(0.01)
                time.sleep(0.5)  # the finished outcome reaches the parent first
                os.kill(os.getpid(), signal.SIGKILL)
            finished.touch()
            return SimpleNamespace(completed=True, train_error=0.25, test_error=0.5,
                                   default_test_error=0.75, resumed_stages=[],
                                   learned_table=None, stopped_after=None)

        # Forked workers inherit the patched class.
        monkeypatch.setattr(Session, "tune", tune)
        specs = [TuneSpec(target="haswell"), TuneSpec(target="zen2")]
        with deadline(30):
            outcomes = tune_targets(specs, workers=2)
        assert list(outcomes) == ["haswell", "zen2"]
        kept = outcomes["haswell"]
        assert kept.completed and not kept.failed
        assert (kept.train_error, kept.test_error) == (0.25, 0.5)
        killed = outcomes["zen2"]
        assert killed.failed and not killed.completed
        assert killed.error.startswith("BrokenProcessPool: ")
        assert "BrokenProcessPool" in killed.traceback


class TestParameterArraysCodec:
    def test_parameter_arrays_roundtrip(self):
        arrays = ParameterArrays(global_values=np.array([3.0, 7.0]),
                                 per_instruction_values=np.arange(12.0).reshape(4, 3))
        restored = decode_parameter_arrays(encode_parameter_arrays(arrays), "arrays.npz")
        np.testing.assert_array_equal(restored.global_values, arrays.global_values)
        np.testing.assert_array_equal(restored.per_instruction_values,
                                      arrays.per_instruction_values)

    def test_non_parameter_arrays_archive_rejected(self):
        payload = storage.encode_arrays({"something": np.zeros(3)})
        with pytest.raises(KeyError, match="other.npz is not a ParameterArrays"):
            decode_parameter_arrays(payload, "other.npz")

    def test_encoding_is_byte_deterministic(self):
        """Checkpoints are compared with ``cmp``: equal tables, equal bytes."""
        def encode():
            return encode_parameter_arrays(ParameterArrays(
                global_values=np.array([3.0, 7.0]),
                per_instruction_values=np.arange(12.0).reshape(4, 3)))

        assert encode() == encode()

    def test_integer_arrays_decode_as_float64(self):
        arrays = ParameterArrays(global_values=np.array([3, 7]),
                                 per_instruction_values=np.arange(6).reshape(2, 3))
        restored = decode_parameter_arrays(encode_parameter_arrays(arrays), "arrays.npz")
        assert restored.global_values.dtype == np.float64
        assert restored.per_instruction_values.dtype == np.float64
        np.testing.assert_array_equal(restored.per_instruction_values,
                                      np.arange(6.0).reshape(2, 3))

    def test_truncated_payload_names_the_source(self):
        payload = encode_parameter_arrays(ParameterArrays(
            global_values=np.zeros(2), per_instruction_values=np.zeros((40, 3))))
        with pytest.raises(storage.CorruptArtifactError, match="table.npz"):
            decode_parameter_arrays(payload[:len(payload) // 2], "table.npz")


class TestCheckpointStore:
    def test_rng_snapshot_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        rng = np.random.default_rng(7)
        rng.integers(0, 100, size=10)  # advance the stream
        store.mark_complete("stage_a", rng)
        expected = rng.integers(0, 1 << 30, size=5)

        fresh = np.random.default_rng(7)
        store = CheckpointStore(str(tmp_path))  # re-read manifest from disk
        store.restore_rng("stage_a", fresh)
        np.testing.assert_array_equal(fresh.integers(0, 1 << 30, size=5), expected)

    def test_fingerprint_binding(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.bind_fingerprint("abc", resume=False)
        store = CheckpointStore(str(tmp_path))
        store.bind_fingerprint("abc", resume=True)  # same fingerprint: fine
        with pytest.raises(CheckpointMismatchError):
            store.bind_fingerprint("def", resume=True)

    def test_missing_stage_rng_raises(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(KeyError):
            store.restore_rng("nope", np.random.default_rng(0))


class TestLearnResult:
    def test_result_exposes_artifacts(self, training_data):
        blocks, timings = training_data
        difftune = _make_difftune()
        result = difftune.learn(blocks, timings)
        assert result.learned_arrays is not None
        assert result.surrogate_result is not None
        assert result.table_result is not None
        assert result.surrogate is not None
        assert result.simulated_dataset_size == difftune.config.simulated_dataset_size
        assert result.train_error == difftune.evaluate(result.learned_arrays,
                                                       blocks, timings)
        assert result.resumed_stages == []

    def test_nothing_is_threaded_through_learn(self):
        """The block source carries its featurization store, so neither
        ``DiffTune.learn``, the stage state nor a training function takes a
        store or a pre-collected dataset."""
        import dataclasses
        import inspect

        import repro.pipeline
        from repro.core.surrogate import BlockFeaturizer
        from repro.core.surrogate_training import train_surrogate
        from repro.core.table_optimization import optimize_parameter_table

        threaded = {"store", "featurization_store", "simulated_dataset"}
        for function in (DiffTune.learn, train_surrogate, optimize_parameter_table,
                         BlockFeaturizer.lookup):
            assert not threaded & set(inspect.signature(function).parameters)
        assert "featurization_store" not in {
            entry.name for entry in dataclasses.fields(PipelineState)}
        assert not hasattr(repro.pipeline, "TuningPipeline")
        assert not hasattr(DiffTune, "pipeline")
