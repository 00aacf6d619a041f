"""Tests for the typed spec objects (repro.api.specs)."""

import pytest

from repro.api.specs import (CorpusSpec, EvaluateSpec, PredictSpec,
                             SpecValidationError, TuneSpec)
from repro.campaigns.spec import CampaignSpec


class TestRoundTrip:
    def test_tune_spec_round_trips(self):
        spec = TuneSpec(target="skylake", simulator="mca", preset="test",
                        num_blocks=123, seed=7, learn_fields=["WriteLatency"],
                        narrow_sampling=False)
        assert TuneSpec.from_dict(spec.to_dict()) == spec

    def test_llvm_sim_spec_round_trips(self):
        spec = TuneSpec(simulator="llvm_sim", preset="test", num_blocks=50)
        assert TuneSpec.from_dict(spec.to_dict()) == spec

    def test_learn_fields_requires_partial_learning_support(self):
        with pytest.raises(SpecValidationError,
                           match="learn_fields.*does not support.*mca") as excinfo:
            TuneSpec(simulator="llvm_sim", learn_fields=["WriteLatency"]).validate()
        assert excinfo.value.field == "learn_fields"

    def test_evaluate_spec_round_trips(self):
        spec = EvaluateSpec(target="zen2", dataset_path="x.json",
                            table_path="t.json", split="train")
        assert EvaluateSpec.from_dict(spec.to_dict()) == spec

    def test_predict_spec_round_trips(self):
        spec = PredictSpec(target="ivybridge", engine_workers=2)
        assert PredictSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_serializable(self):
        import json

        payload = json.dumps(TuneSpec().to_dict())
        assert TuneSpec.from_dict(json.loads(payload)) == TuneSpec()


class TestValidationNamesTheField:
    def test_unknown_field_named_and_suggested(self):
        with pytest.raises(SpecValidationError, match="num_block.*did you mean "
                                                      "'num_blocks'") as excinfo:
            TuneSpec.from_dict({"num_block": 10})
        assert excinfo.value.field == "num_block"

    def test_unknown_target_names_field_and_suggests(self):
        with pytest.raises(SpecValidationError, match="target.*did you mean "
                                                      "'haswell'") as excinfo:
            TuneSpec(target="hasswell").validate()
        assert excinfo.value.field == "target"

    def test_unknown_simulator(self):
        with pytest.raises(SpecValidationError, match="simulator") as excinfo:
            TuneSpec(simulator="gem5").validate()
        assert excinfo.value.field == "simulator"

    def test_unknown_preset(self):
        with pytest.raises(SpecValidationError, match="preset"):
            TuneSpec(preset="huge").validate()

    def test_unknown_surrogate_override(self):
        with pytest.raises(SpecValidationError, match="surrogate"):
            TuneSpec(surrogate="transformer").validate()

    def test_bad_num_blocks(self):
        with pytest.raises(SpecValidationError, match="num_blocks.*>= 1"):
            TuneSpec(num_blocks=0).validate()
        with pytest.raises(SpecValidationError, match="num_blocks"):
            TuneSpec(num_blocks="many").validate()

    def test_bool_is_not_an_int(self):
        with pytest.raises(SpecValidationError, match="num_blocks.*bool"):
            TuneSpec(num_blocks=True).validate()

    def test_bad_learn_fields(self):
        with pytest.raises(SpecValidationError, match="learn_fields"):
            TuneSpec(learn_fields="WriteLatency").validate()

    def test_unknown_learn_field_named_and_suggested(self):
        # An unknown name would freeze every field and return the default
        # table after a full run; it fails at validation instead.
        with pytest.raises(SpecValidationError,
                           match="learn_fields.*'Bogus'.*WriteLatency") as excinfo:
            TuneSpec(learn_fields=["Bogus"]).validate()
        assert excinfo.value.field == "learn_fields"
        with pytest.raises(SpecValidationError,
                           match="'writelatency'.*did you mean 'WriteLatency'"):
            TuneSpec(learn_fields=["WriteLatency", "writelatency"]).validate()

    def test_empty_learn_fields_rejected(self):
        with pytest.raises(SpecValidationError,
                           match="learn_fields.*at least one") as excinfo:
            TuneSpec(learn_fields=[]).validate()
        assert excinfo.value.field == "learn_fields"

    def test_global_and_per_instruction_learn_fields_accepted(self):
        TuneSpec(learn_fields=["DispatchWidth", "PortMap"]).validate()

    @pytest.mark.parametrize("spec_class", [TuneSpec, EvaluateSpec, CorpusSpec,
                                            CampaignSpec])
    def test_negative_seed_names_the_field(self, spec_class):
        kwargs = {"directory": "corpus"} if spec_class is CorpusSpec else {}
        if spec_class is CampaignSpec:
            kwargs = {"axes": [{"field": "DispatchWidth", "values": [1, 2]}]}
        with pytest.raises(SpecValidationError, match="seed.*>= 0") as excinfo:
            spec_class(seed=-1, **kwargs).validate()
        assert excinfo.value.field == "seed"
        spec_class(seed=0, **kwargs).validate()

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SpecValidationError, match="resume.*checkpoint_dir"):
            TuneSpec(resume=True).validate()
        TuneSpec(resume=True, checkpoint_dir="runs").validate()

    def test_stop_after_requires_checkpoint_dir(self):
        with pytest.raises(SpecValidationError, match="stop_after"):
            TuneSpec(stop_after="train_surrogate").validate()

    def test_unknown_stop_after_stage_lists_the_preset_stages(self):
        # Rejected up front, before a dataset is built or a checkpoint written.
        with pytest.raises(SpecValidationError,
                           match="stop_after.*'nope'.*collect_dataset, "
                                 "train_surrogate") as excinfo:
            TuneSpec(preset="test", checkpoint_dir="runs", stop_after="nope").validate()
        assert excinfo.value.field == "stop_after"
        # Stage names follow the preset: only 'fast' has refinement rounds.
        TuneSpec(preset="fast", checkpoint_dir="runs",
                 stop_after="refinement_round_02").validate()
        with pytest.raises(SpecValidationError, match="stop_after"):
            TuneSpec(preset="test", checkpoint_dir="runs",
                     stop_after="refinement_round_02").validate()

    def test_bad_split(self):
        with pytest.raises(SpecValidationError, match="split.*'train' or 'test'"):
            EvaluateSpec(split="validation").validate()

    def test_non_dict_payload(self):
        with pytest.raises(SpecValidationError, match="expected a dict"):
            TuneSpec.from_dict(["target", "haswell"])

    def test_aliases_are_accepted_as_keys(self):
        # Registry aliases validate: specs hold what the user wrote.
        TuneSpec(target="hsw", simulator="llvm-mca").validate()
