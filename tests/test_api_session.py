"""Tests for the Session facade (repro.api.session).

The headline contract is the acceptance criterion of the API redesign:
``Session.tune()`` on the test preset is bit-identical to the pre-redesign
``DiffTune.learn`` trajectory (same adapter construction, same config, same
dataset, same rng streams).
"""

import os
import re

import numpy as np
import pytest

from repro.api import (CapabilityError, EvaluateSpec, PredictSpec, Session,
                       SpecValidationError, TuneSpec)
from repro.core.parameters import ParameterSpec
from repro.pipeline import CheckpointMismatchError

NUM_BLOCKS = 60
SEED = 3


@pytest.fixture(scope="module")
def tune_session():
    return Session.from_spec(TuneSpec(target="haswell", preset="test",
                                      num_blocks=NUM_BLOCKS, seed=SEED))


class TestConstruction:
    def test_from_spec_kwargs_only(self):
        session = Session.from_spec(target="skylake", preset="test")
        assert session.target_name == "skylake"
        assert session.uarch.name == "Skylake"

    def test_from_spec_dict(self):
        session = Session.from_spec({"target": "zen2", "num_blocks": 50})
        assert session.target_name == "zen2"

    def test_from_spec_overrides(self):
        session = Session.from_spec(TuneSpec(target="haswell"), seed=9)
        assert session.spec.seed == 9

    @pytest.mark.parametrize("entry_point", ["from_spec", "run_campaign",
                                             "run_matrix", "serve"])
    def test_override_unknown_field_raises(self, entry_point):
        """Every entry point that takes overrides rejects an unknown one with
        a SpecValidationError naming it, worded as ``from_dict`` words it
        (did-you-mean hint included)."""
        from repro.campaigns.spec import CampaignSpec
        from repro.distributed.spec import MatrixCampaignSpec
        from repro.api.specs import ServeSpec
        from repro.serving.server import InferenceServer

        axis = {"field": "DispatchWidth", "values": [1, 2]}
        spec_class, call = {
            "from_spec": (TuneSpec, lambda **extra: Session.from_spec(
                TuneSpec(), **extra)),
            "run_campaign": (CampaignSpec, lambda **extra: Session.from_spec(
                TuneSpec()).run_campaign(CampaignSpec(axes=[axis]), **extra)),
            "run_matrix": (MatrixCampaignSpec, lambda **extra: Session.from_spec(
                TuneSpec()).run_matrix(
                    MatrixCampaignSpec(campaign={"axes": [axis]}), **extra)),
            "serve": (ServeSpec, lambda **extra: InferenceServer.from_spec(
                ServeSpec(port=0), **extra)),
        }[entry_point]
        field = sorted(spec_field for spec_field in spec_class.__dataclass_fields__)[0]
        for key in ("bogus", field + "s"):
            with pytest.raises(SpecValidationError) as expected:
                spec_class.from_dict({key: 1})
            with pytest.raises(SpecValidationError) as raised:
                call(**{key: 1})
            assert raised.value.field == key
            assert str(raised.value) == str(expected.value)
        assert f"did you mean {field!r}?" in str(raised.value)

    def test_invalid_spec_rejected_eagerly(self):
        with pytest.raises(SpecValidationError, match="target"):
            Session.from_spec(target="hasswell")

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError):
            Session(object())

    def test_config_comes_from_preset_with_overrides(self):
        session = Session.from_spec(preset="test", surrogate="pooled")
        assert session.config.surrogate.kind == "pooled"

    def test_adapter_is_memoized(self, tune_session):
        assert tune_session.adapter is tune_session.adapter


class TestTuneBitIdentical:
    def test_matches_pre_redesign_difftune_learn(self, tune_session):
        # The exact construction path the CLI used before the redesign.
        from repro.bhive import build_dataset
        from repro.core.adapters import MCAAdapter
        from repro.core.config import test_config
        from repro.core.difftune import DiffTune
        from repro.targets import get_uarch

        dataset = build_dataset("haswell", num_blocks=NUM_BLOCKS, seed=SEED)
        train = dataset.train_examples
        blocks = [example.block for example in train]
        timings = np.array([example.timing for example in train])
        adapter = MCAAdapter(get_uarch("haswell"), narrow_sampling=True)
        config = test_config(SEED)
        config.surrogate_training.batched = True
        config.table_optimization.batched = True
        legacy = DiffTune(adapter, config).learn(blocks, timings)

        outcome = tune_session.tune()
        assert outcome.completed
        assert np.array_equal(legacy.learned_arrays.global_values,
                              outcome.learned_arrays.global_values)
        assert np.array_equal(legacy.learned_arrays.per_instruction_values,
                              outcome.learned_arrays.per_instruction_values)
        assert outcome.train_error == legacy.train_error
        # And the surrogate-training trajectory itself is identical.
        assert outcome.raw.surrogate_result.epoch_losses == \
            legacy.surrogate_result.epoch_losses

    def test_reports_test_metrics(self, tune_session):
        outcome = tune_session.tune()
        assert outcome.test_error is not None
        assert outcome.default_test_error is not None
        assert outcome.learned_table is not None
        outcome.learned_table.validate()

    def test_explicit_blocks_skip_test_metrics(self, tune_session):
        blocks, timings = tune_session.split("train")
        outcome = Session.from_spec(tune_session.spec).tune(blocks, timings)
        assert outcome.completed
        assert outcome.test_error is None


class TestTuneSplitSizes:
    """Too few blocks fail up front, naming the field they came from."""

    @pytest.mark.parametrize("num_blocks", [1, 2, 5])
    def test_too_few_blocks_fail_before_any_simulation(self, num_blocks):
        session = Session.from_spec(TuneSpec(target="haswell", preset="test",
                                             num_blocks=num_blocks, seed=0))
        with pytest.raises(SpecValidationError, match="test blocks") as raised:
            session.tune()
        assert raised.value.field == "num_blocks"
        assert session.adapter.engine.stats["executed"] == 0

    def test_dataset_path_is_named(self, tmp_path):
        from repro.bhive import build_dataset

        path = str(tmp_path / "tiny.json")
        build_dataset("haswell", num_blocks=2, seed=0).save_json(path)
        session = Session.from_spec(TuneSpec(dataset_path=path, preset="test"))
        with pytest.raises(SpecValidationError) as raised:
            session.tune()
        assert raised.value.field == "dataset_path"
        assert session.adapter.engine.stats["executed"] == 0

    def test_smallest_viable_dataset_completes(self):
        outcome = Session.from_spec(TuneSpec(target="haswell", preset="test",
                                             num_blocks=6, seed=0)).tune()
        assert outcome.completed
        assert outcome.test_error is not None


class TestTuneCheckpointing:
    def test_stop_after_and_resume(self, tmp_path):
        checkpoint_dir = os.path.join(tmp_path, "ckpt")
        base = dict(target="haswell", preset="test", num_blocks=NUM_BLOCKS,
                    seed=SEED, checkpoint_dir=checkpoint_dir)
        stopped = Session.from_spec(TuneSpec(stop_after="train_surrogate",
                                             **base)).tune()
        assert not stopped.completed
        assert stopped.stopped_after == "train_surrogate"
        resumed = Session.from_spec(TuneSpec(resume=True, **base)).tune()
        assert resumed.completed
        assert "train_surrogate" in resumed.resumed_stages
        uninterrupted = Session.from_spec(
            TuneSpec(target="haswell", preset="test",
                     num_blocks=NUM_BLOCKS, seed=SEED)).tune()
        assert np.array_equal(
            uninterrupted.learned_arrays.per_instruction_values,
            resumed.learned_arrays.per_instruction_values)

    def test_resume_refuses_another_table_sampler(self, tmp_path, monkeypatch):
        # A directory whose tables another sampler drew must not resume onto
        # this one's draws: the run fingerprint pins the sampler revision.
        checkpoint_dir = os.path.join(tmp_path, "ckpt")
        base = dict(target="haswell", preset="test", num_blocks=NUM_BLOCKS,
                    seed=SEED, checkpoint_dir=checkpoint_dir)
        Session.from_spec(TuneSpec(stop_after="collect_dataset", **base)).tune()
        monkeypatch.setattr(ParameterSpec, "SAMPLER_REVISION",
                            ParameterSpec.SAMPLER_REVISION + 1)
        with pytest.raises(CheckpointMismatchError, match=re.escape(checkpoint_dir)):
            Session.from_spec(TuneSpec(resume=True, **base)).tune()


class TestEvaluatePredict:
    def test_evaluate_default_table(self):
        session = Session.from_spec(EvaluateSpec(target="haswell",
                                                 num_blocks=NUM_BLOCKS, seed=SEED))
        report = session.evaluate()
        assert report["simulator"] == "mca"
        assert report["split"] == "test"
        assert 0.0 <= report["error"] < 1.0
        assert report["num_blocks"] == len(session.dataset().test_examples)

    def test_evaluate_matches_direct_adapter(self):
        from repro.eval.metrics import error_and_tau

        session = Session.from_spec(EvaluateSpec(target="haswell",
                                                 num_blocks=NUM_BLOCKS, seed=SEED))
        blocks, timings = session.split("test")
        direct_error, direct_tau = error_and_tau(
            session.adapter.engine.run_one(session.default_table(), blocks), timings)
        report = session.evaluate()
        assert report["error"] == pytest.approx(direct_error)
        assert report["tau"] == pytest.approx(direct_tau)

    def test_predict_single_and_batch_shapes(self, tune_session):
        blocks, _timings = tune_session.split("test")
        single = tune_session.predict(blocks)
        assert single.shape == (len(blocks),)
        tables = [tune_session.default_table() for _ in range(3)]
        for width, table in enumerate(tables, start=1):
            table.dispatch_width = width
        batch = tune_session.predict(blocks, tables)
        assert batch.shape == (3, len(blocks))

    def test_predict_reuses_engine_cache_across_calls(self):
        session = Session.from_spec(PredictSpec(target="haswell"))
        from repro.bhive import build_dataset

        blocks = [example.block for example
                  in build_dataset("haswell", num_blocks=20, seed=0).train_examples]
        first = session.predict(blocks)
        executed_after_first = session.stats()["engine"]["executed"]
        second = session.predict(blocks)
        assert np.array_equal(first, second)
        stats = session.stats()["engine"]
        assert stats["executed"] == executed_after_first  # all hits, no re-runs
        assert stats["result_hits"] >= len(blocks)

    def test_predict_empty_blocks_short_circuits(self):
        session = Session.from_spec(PredictSpec(target="haswell"))
        empty = session.predict([])
        assert empty.shape == (0,)
        # No table was resolved and no engine work happened.
        assert session.stats()["engine"]["executed"] == 0
        batch = session.predict([], [object(), object()])
        assert batch.shape == (2, 0)
        assert session.stats()["predict_calls"] == 2
        assert session.stats()["predicted_blocks"] == 0

    def test_stats_counts_predict_traffic(self, tune_session):
        blocks, _timings = tune_session.split("test")
        before = tune_session.stats()
        tune_session.predict(blocks)
        after = tune_session.stats()
        assert after["predict_calls"] == before["predict_calls"] + 1
        assert after["predicted_blocks"] == (before["predicted_blocks"]
                                             + len(blocks))
        assert isinstance(after["engine"], dict)

    def test_evaluate_with_table_path(self, tmp_path, tune_session):
        table = tune_session.default_table()
        path = os.path.join(tmp_path, "table.json")
        table.save_json(path)
        report = Session.from_spec(
            EvaluateSpec(target="haswell", num_blocks=NUM_BLOCKS, seed=SEED,
                         table_path=path)).evaluate()
        assert 0.0 <= report["error"] < 1.0

    def test_load_table_is_memoized_per_path(self, tmp_path, tune_session):
        path = os.path.join(tmp_path, "table.json")
        tune_session.default_table().save_json(path)
        session = Session.from_spec(PredictSpec(target="haswell", table_path=path))
        assert session.load_table(path) is session.load_table(path)

    def test_dataset_path_overrides_target(self, tmp_path):
        from repro.bhive import build_dataset

        path = os.path.join(tmp_path, "zen2.json")
        build_dataset("zen2", num_blocks=30, seed=1).save_json(path)
        session = Session.from_spec(EvaluateSpec(dataset_path=path))
        assert session.target_name == "zen2"
        assert session.uarch.name == "Zen 2"


class TestCapabilities:
    def test_timeline_for_mca(self, tune_session):
        text = tune_session.timeline("addq %rax, %rbx; imulq %rbx, %rcx")
        assert "Predicted timing" in text

    def test_timeline_missing_capability(self):
        session = Session.from_spec(PredictSpec(simulator="llvm_sim"))
        with pytest.raises(CapabilityError, match="no timeline view.*mca"):
            session.timeline("addq %rax, %rbx")

    def test_sweep_missing_capability(self):
        session = Session.from_spec(EvaluateSpec(simulator="llvm_sim",
                                                 num_blocks=30))
        with pytest.raises(SpecValidationError, match="cannot sweep"):
            session.run_campaign(axes=[{"field": "DispatchWidth",
                                        "values": [1, 2]}])

    def test_llvm_sim_rejects_learn_fields_at_validation(self):
        with pytest.raises(SpecValidationError,
                           match="learn_fields.*does not support"):
            Session.from_spec(TuneSpec(simulator="llvm_sim",
                                       learn_fields=["WriteLatency"]))

    def test_llvm_sim_adapter_factory_backstop(self):
        # Bypassing spec validation still fails with a clear message.
        from repro.api import SIMULATORS, TARGETS

        with pytest.raises(ValueError, match="learn_fields is not supported"):
            SIMULATORS.get("llvm_sim").create_adapter(
                TARGETS.get("haswell"), learn_fields=["WriteLatency"])

    def test_llvm_sim_tune_runs(self):
        outcome = Session.from_spec(TuneSpec(simulator="llvm_sim", preset="test",
                                             num_blocks=40, seed=1)).tune()
        assert outcome.completed
        outcome.learned_table.validate()
