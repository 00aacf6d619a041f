"""Tests for the declarative sweep-campaign subsystem (repro.campaigns).

The two headline contracts are the acceptance criteria of the campaign
redesign:

* the sec5a/sec6c campaign presets reproduce the pre-redesign experiment
  numbers bit-identically (sec5a's are pinned as hex floats);
* a campaign killed at *any* chunk boundary and re-run with ``resume=True``
  produces a byte-identical ``campaign_report.json`` to an uninterrupted run.
"""

import json
import os

import numpy as np
import pytest

from repro import cli
from repro.api import (CAMPAIGNS, STRATEGIES, CampaignSpec, EvaluateSpec,
                       Session, SpecValidationError, registries)
from repro.campaigns import run_campaign
from repro.campaigns.runner import campaign_fingerprint, sweep_error_curve
from repro.campaigns.spec import SAMPLE_KEY
from repro.core.parameters import ParameterSpec

NUM_BLOCKS = 40
SEED = 2

DISPATCH_AXIS = {"field": "DispatchWidth", "values": [1, 2, 4]}


def make_spec(**overrides):
    payload = {"target": "haswell", "num_blocks": NUM_BLOCKS, "seed": SEED,
               "axes": [dict(DISPATCH_AXIS)], "max_blocks": 12}
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


@pytest.fixture(scope="module")
def eval_session():
    """One shared session (and therefore one dataset + engine cache)."""
    return Session.from_spec(EvaluateSpec(target="haswell",
                                          num_blocks=NUM_BLOCKS, seed=SEED))


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = os.path.join(tmp_path_factory.mktemp("campaign-cli"), "haswell.json")
    assert cli.main(["dataset", "--uarch", "haswell", "--blocks", "40",
                     "--seed", "7", "--output", path]) == 0
    return path


class TestSpecValidation:
    def test_unknown_strategy_suggests(self):
        with pytest.raises(SpecValidationError, match="strategy.*grid"):
            make_spec(strategy="gird").validate()

    def test_unknown_target_suggests(self):
        with pytest.raises(SpecValidationError, match="target.*haswell"):
            make_spec(target="hasswell").validate()

    def test_unknown_axis_field_suggests(self):
        with pytest.raises(SpecValidationError,
                           match=r"axes\[0\].*did you mean 'DispatchWidth'"):
            make_spec(axes=[{"field": "DispatchWdith",
                             "values": [1, 2]}]).validate()

    def test_unknown_opcode_suggests(self):
        with pytest.raises(SpecValidationError,
                           match="did you mean 'PUSH64r'"):
            make_spec(axes=[{"field": "WriteLatency", "opcode": "PUSH64x",
                             "values": [1, 2]}]).validate()

    def test_unknown_axis_key_suggests(self):
        with pytest.raises(SpecValidationError, match=r"axes\[0\].*vals"):
            make_spec(axes=[{"field": "DispatchWidth", "vals": [1]}]).validate()

    def test_per_opcode_field_requires_opcode(self):
        with pytest.raises(SpecValidationError, match="name the opcode"):
            make_spec(axes=[{"field": "WriteLatency",
                             "values": [1, 2]}]).validate()

    def test_port_field_requires_port(self):
        with pytest.raises(SpecValidationError, match="port column"):
            make_spec(axes=[{"field": "PortMap", "opcode": "ADD32rr",
                             "values": [0, 1]}]).validate()

    def test_port_bounds_checked(self):
        with pytest.raises(SpecValidationError, match=r"must be in \[0,"):
            make_spec(axes=[{"field": "PortMap", "opcode": "ADD32rr",
                             "port": 99, "values": [0, 1]}]).validate()

    def test_global_axis_unsupported_by_llvm_sim(self):
        with pytest.raises(SpecValidationError, match="cannot sweep"):
            make_spec(simulator="llvm_sim",
                      axes=[dict(DISPATCH_AXIS)]).validate()

    def test_llvm_sim_supports_per_opcode_axes(self):
        make_spec(simulator="llvm_sim",
                  axes=[{"field": "WriteLatency", "opcode": "ADD32rr",
                         "values": [1, 2]}]).validate()

    def test_duplicate_axis_rejected(self):
        with pytest.raises(SpecValidationError, match="duplicate axis"):
            make_spec(axes=[dict(DISPATCH_AXIS),
                            {"field": "DispatchWidth",
                             "low": 1, "high": 3}]).validate()

    def test_grid_requires_axes(self):
        with pytest.raises(SpecValidationError, match="needs at least one axis"):
            make_spec(axes=[]).validate()

    def test_random_requires_num_variants(self):
        with pytest.raises(SpecValidationError, match="set num_variants"):
            make_spec(strategy="random", axes=[]).validate()

    def test_bad_strategy_options_named(self):
        with pytest.raises(SpecValidationError, match="strategy_options"):
            make_spec(strategy="adaptive", axes=[], num_variants=4,
                      strategy_options={"eta": 1}).validate()

    def test_non_string_strategy_option_names_the_field(self):
        with pytest.raises(SpecValidationError,
                           match="strategy_options.*must be strings") as caught:
            make_spec(strategy_options={0: None})
        assert caught.value.field == "strategy_options"

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SpecValidationError, match="requires checkpoint_dir"):
            make_spec(resume=True).validate()

    @pytest.mark.parametrize("key", ["top_k", "histogram_bins"])
    def test_report_sizes_are_not_spec_fields(self, key):
        payload = dict(make_spec().to_dict(), **{key: 5})
        with pytest.raises(SpecValidationError, match="unknown field") as caught:
            CampaignSpec.from_dict(payload)
        assert caught.value.field == key

    def test_values_and_range_are_exclusive(self):
        with pytest.raises(SpecValidationError, match="not both"):
            make_spec(axes=[{"field": "DispatchWidth", "values": [1],
                             "low": 1, "high": 2}]).validate()

    def test_json_round_trip(self):
        spec = make_spec(strategy="adaptive", num_variants=6,
                         strategy_options={"eta": 2},
                         axes=[{"field": "WriteLatency", "opcode": "ADD32rr",
                                "low": 0, "high": 4, "step": 2}])
        spec.validate()
        assert CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) \
            == spec

    def test_identity_excludes_execution_knobs(self):
        spec = make_spec(checkpoint_dir="ckpt", report_path="report.json",
                         engine_workers=3)
        identity = spec.identity_dict()
        for key in ("checkpoint_dir", "resume", "report_path",
                    "engine_workers"):
            assert key not in identity
        assert identity["axes"] == [dict(DISPATCH_AXIS)]


class TestStrategiesRegistry:
    def test_registered_and_exposed(self):
        assert {"grid", "random", "adaptive"} <= set(STRATEGIES.names())
        assert registries()["strategies"] is STRATEGIES

    def test_successive_halving_alias(self):
        assert STRATEGIES.resolve("successive_halving") == "adaptive"

    def test_grid_product_order(self):
        spec = make_spec(axes=[{"field": "DispatchWidth", "values": [1, 2]},
                               {"field": "ReorderBufferSize",
                                "values": [50, 100]}])
        spec.validate()
        from repro.campaigns.spec import resolve_axes
        strategy = STRATEGIES.get("grid")(
            resolve_axes(list(spec.axes), "mca"), None, {})
        round_ = strategy.propose(np.random.default_rng(0))
        assert [(a["DispatchWidth"], a["ReorderBufferSize"])
                for a in round_.assignments] == \
            [(1, 50), (1, 100), (2, 50), (2, 100)]
        assert strategy.propose(np.random.default_rng(0)) is None

    def test_grid_one_at_a_time(self):
        spec = make_spec(axes=[{"field": "DispatchWidth", "values": [1, 2]},
                               {"field": "ReorderBufferSize",
                                "values": [50, 100, 150]}],
                         strategy_options={"mode": "one_at_a_time"})
        spec.validate()
        from repro.campaigns.spec import resolve_axes
        strategy = STRATEGIES.get("grid")(
            resolve_axes(list(spec.axes), "mca"), None,
            {"mode": "one_at_a_time"})
        round_ = strategy.propose(np.random.default_rng(0))
        assert len(round_.assignments) == 5
        assert all(len(assignment) == 1 for assignment in round_.assignments)


class TestRunner:
    def test_single_axis_grid_matches_sweep_error_curve(self, eval_session):
        result = eval_session.run_campaign(axes=[dict(DISPATCH_AXIS)])
        curve = sweep_error_curve(eval_session.default_table(),
                                  eval_session.dataset(),
                                  "DispatchWidth", [1, 2, 4])
        assert result.status == "complete"
        assert [variant["error"] for variant in result.variants] == \
            [error for _value, error in curve]
        assert [variant["assignment"]["DispatchWidth"]
                for variant in result.variants] == [1, 2, 4]

    def test_report_statistics_shape(self, eval_session):
        result = eval_session.run_campaign(axes=[dict(DISPATCH_AXIS)],
                                           max_blocks=12)
        report = result.report
        assert report["schema_version"] == 1
        assert report["num_variants"] == 3
        stats = report["error_stats"]
        assert stats["count"] == 3
        assert set(stats["quantiles"]) == {"p05", "p25", "p50", "p75", "p95"}
        assert sum(report["error_delta_histogram"]["counts"]) == 3
        assert report["best_variants"][0]["error"] == stats["min"]
        assert report["axis_sensitivity"][0]["axis"] == "DispatchWidth"

    def test_session_fields_inherited(self, eval_session):
        result = eval_session.run_campaign(axes=[dict(DISPATCH_AXIS)],
                                           max_blocks=12)
        spec = result.report["spec"]
        assert spec["num_blocks"] == NUM_BLOCKS
        assert spec["seed"] == SEED
        assert spec["simulator"] == "mca"

    def test_mismatched_session_rejected(self, eval_session):
        from repro.campaigns.runner import CampaignRunner

        with pytest.raises(ValueError, match="num_blocks"):
            CampaignRunner(make_spec(num_blocks=NUM_BLOCKS + 1),
                           session=eval_session)

    def test_repeated_campaign_hits_engine_cache(self):
        session = Session.from_spec(EvaluateSpec(target="haswell",
                                                 num_blocks=30, seed=5))
        overrides = dict(axes=[dict(DISPATCH_AXIS)], max_blocks=10)
        first = session.run_campaign(**overrides)
        executed = session.stats()["engine"]["executed"]
        hits_before = session.stats()["engine"]["result_hits"]
        second = session.run_campaign(**overrides)
        stats = session.stats()["engine"]
        assert stats["executed"] == executed  # pure LRU hits, no re-simulation
        assert stats["result_hits"] > hits_before
        assert json.dumps(first.report, sort_keys=True) == \
            json.dumps(second.report, sort_keys=True)


class TestResume:
    def _grid_spec(self, checkpoint_dir, report_path, resume=False):
        return make_spec(axes=[{"field": "DispatchWidth", "low": 1, "high": 6}],
                         chunk_size=2, checkpoint_dir=checkpoint_dir,
                         report_path=report_path, resume=resume)

    def test_resume_bit_identical_at_every_chunk_boundary(self, tmp_path,
                                                          eval_session):
        reference_path = str(tmp_path / "reference.json")
        run_campaign(self._grid_spec(None, reference_path),
                     session=eval_session)
        reference = (tmp_path / "reference.json").read_bytes()
        num_chunks = 3  # 6 variants / chunk_size 2
        for kill_after in range(num_chunks + 1):
            checkpoint_dir = str(tmp_path / f"ckpt{kill_after}")
            report_path = str(tmp_path / f"report{kill_after}.json")
            killed = run_campaign(
                self._grid_spec(checkpoint_dir, report_path),
                session=eval_session, max_chunks=kill_after)
            expected = "interrupted" if kill_after < num_chunks else "complete"
            assert killed.status == expected
            resumed = run_campaign(
                self._grid_spec(checkpoint_dir, report_path, resume=True),
                session=eval_session)
            assert resumed.status == "complete"
            assert resumed.resumed_chunks == kill_after
            assert resumed.num_variants == 6
            assert (tmp_path / f"report{kill_after}.json").read_bytes() \
                == reference

    def test_resume_replays_rng_for_sampled_tables(self, tmp_path,
                                                   eval_session):
        # Full-table random campaigns consume the rng stream per draw; resume
        # must replay the stream identically even for checkpointed chunks.
        def spec_for(checkpoint_dir, report_path, resume=False):
            return make_spec(strategy="random", axes=[], num_variants=4,
                             chunk_size=2, checkpoint_dir=checkpoint_dir,
                             report_path=report_path, resume=resume)

        reference_path = str(tmp_path / "reference.json")
        run_campaign(spec_for(None, reference_path), session=eval_session)
        reference = (tmp_path / "reference.json").read_bytes()
        checkpoint_dir = str(tmp_path / "ckpt")
        report_path = str(tmp_path / "report.json")
        killed = run_campaign(spec_for(checkpoint_dir, report_path),
                              session=eval_session, max_chunks=1)
        assert killed.status == "interrupted"
        resumed = run_campaign(spec_for(checkpoint_dir, report_path,
                                        resume=True), session=eval_session)
        assert resumed.status == "complete"
        assert resumed.resumed_chunks == 1
        assert resumed.executed_chunks == 1
        assert (tmp_path / "report.json").read_bytes() == reference


class TestAdaptiveStrategy:
    def test_deterministic_under_fixed_seed(self, eval_session):
        spec = make_spec(strategy="adaptive", num_variants=8,
                         strategy_options={"eta": 2},
                         axes=[{"field": "DispatchWidth", "low": 1, "high": 8}])
        first = run_campaign(spec, session=eval_session)
        second = run_campaign(spec, session=eval_session)
        assert json.dumps(first.report, sort_keys=True) == \
            json.dumps(second.report, sort_keys=True)

    def test_screening_rounds_use_block_prefixes(self, eval_session):
        spec = make_spec(strategy="adaptive", num_variants=8,
                         strategy_options={"eta": 2},
                         axes=[{"field": "DispatchWidth", "low": 1, "high": 8}])
        result = run_campaign(spec, session=eval_session)
        fractions = sorted({variant["block_fraction"]
                            for variant in result.variants})
        assert fractions[-1] == 1.0
        assert fractions[0] < 1.0
        # Survivor counts shrink by eta per round: 8 -> 4 -> 2 -> 1.
        by_round = {}
        for variant in result.variants:
            by_round.setdefault(variant["round"], []).append(variant)
        assert [len(by_round[index]) for index in sorted(by_round)] \
            == [8, 4, 2, 1]
        # Statistics only consider full-corpus variants.
        assert result.report["num_full_corpus_variants"] == 1

    def test_sampled_table_mode(self, eval_session):
        spec = make_spec(strategy="adaptive", num_variants=4,
                         strategy_options={"eta": 2}, axes=[])
        result = run_campaign(spec, session=eval_session)
        assert result.status == "complete"
        assert all(SAMPLE_KEY in variant["assignment"]
                   for variant in result.variants)


def _sec5a_errors(**arguments):
    result = run_campaign(CAMPAIGNS.get("sec5a_random_tables")(**arguments))
    return np.array([variant["error"] for variant in result.variants]), result


class TestFingerprint:
    def test_fingerprint_pins_the_table_sampler(self, eval_session, monkeypatch):
        spec = make_spec()
        blocks, timings = eval_session.split("test")
        base = campaign_fingerprint(spec, blocks, timings)
        monkeypatch.setattr(ParameterSpec, "SAMPLER_REVISION",
                            ParameterSpec.SAMPLER_REVISION + 1)
        assert campaign_fingerprint(spec, blocks, timings) != base


class TestPresets:
    def test_sec5a_statistics_are_pinned(self):
        errors, _result = _sec5a_errors(num_blocks=40, num_tables=3, seed=0)
        assert {"mean": float(errors.mean()).hex(), "std": float(errors.std()).hex(),
                "min": float(errors.min()).hex(), "max": float(errors.max()).hex()} == {
            "mean": "0x1.570045ba8736bp+0", "std": "0x1.8a5e097fdcdccp-2",
            "min": "0x1.989d288f6b136p-1", "max": "0x1.a8bca453ecd74p+0"}

    def test_sec5a_random_tables_are_far_from_the_measurements(self):
        errors, _result = _sec5a_errors(num_blocks=60, num_tables=2, seed=0)
        assert errors.mean() > 0.3  # random tables are far worse than defaults
        assert errors.min() <= errors.mean() <= errors.max()

    def test_sec5a_random_tables_much_worse_than_default(self):
        # The 15-block test split of the 150-block seed-0 Haswell dataset,
        # three narrow-sampling tables drawn from default_rng(0).
        errors, result = _sec5a_errors(num_blocks=150, num_tables=3, seed=0,
                                       narrow_sampling=True)
        assert len(errors) == 3
        assert errors.mean() > result.report["baseline_error"] * 1.5

    def test_presets_registered_with_aliases(self):
        assert CAMPAIGNS.resolve("sec5a") == "sec5a_random_tables"
        assert CAMPAIGNS.resolve("sec6c") == "sec6c_write_latency"
        assert CAMPAIGNS.resolve("fig5") == "fig5_global_sensitivity"

    def test_sec6c_preset_axes(self):
        spec = CAMPAIGNS.get("sec6c_write_latency")(num_blocks=NUM_BLOCKS)
        spec.validate()
        assert [axis["opcode"] for axis in spec.axes] == \
            ["PUSH64r", "XOR32rr", "ADD32mr"]
        assert spec.strategy_options == {"mode": "one_at_a_time"}


class TestCLI:
    def test_sweep_routes_through_campaign(self, dataset_path, capsys):
        assert cli.main(["sweep", "--dataset", dataset_path,
                         "--field", "DispatchWidth",
                         "--low", "1", "--high", "4"]) == 0
        output = capsys.readouterr().out
        session = Session.from_spec(EvaluateSpec(dataset_path=dataset_path))
        result = session.run_campaign(
            axes=[{"field": "DispatchWidth", "low": 1, "high": 4}])
        errors = [variant["error"] * 100.0 for variant in result.variants]
        best = [1, 2, 3, 4][int(np.argmin(errors))]
        assert f"Best DispatchWidth: {best} (error {min(errors):.1f}%)" \
            in output

    def test_campaign_run_inline_axes(self, dataset_path, tmp_path, capsys):
        report_path = os.path.join(tmp_path, "report.json")
        assert cli.main(["campaign", "run", "--dataset", dataset_path,
                         "--axis", "DispatchWidth=1,2",
                         "--axis", "WriteLatency@ADD32rr=0:2",
                         "--max-blocks", "8", "--output", report_path]) == 0
        output = capsys.readouterr().out
        assert "variants evaluated: 6" in output
        report = json.load(open(report_path))
        assert report["status"] == "complete"
        labels = {label for variant in report["variants"]
                  for label in variant["assignment"]}
        assert labels == {"DispatchWidth", "WriteLatency@ADD32rr"}

    def test_campaign_run_preset_with_overrides(self, dataset_path, capsys):
        assert cli.main(["campaign", "run", "--preset", "sec6c",
                         "--dataset", dataset_path, "--max-blocks", "6"]) == 0
        output = capsys.readouterr().out
        assert "axis sensitivity (most sensitive first)" in output
        assert "error distribution" in output

    def test_campaign_list(self, capsys):
        assert cli.main(["campaign", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("sec5a_random_tables", "sec6c_write_latency",
                     "fig5_global_sensitivity", "grid", "random", "adaptive"):
            assert name in output

    def test_campaign_report(self, dataset_path, tmp_path, capsys):
        report_path = os.path.join(tmp_path, "report.json")
        assert cli.main(["campaign", "run", "--dataset", dataset_path,
                         "--axis", "DispatchWidth=1,2", "--max-blocks", "6",
                         "--output", report_path]) == 0
        capsys.readouterr()
        assert cli.main(["campaign", "report", report_path]) == 0
        assert "status: complete" in capsys.readouterr().out

    def test_campaign_spec_error_is_clean(self, dataset_path):
        with pytest.raises(SystemExit, match="error: strategy"):
            cli.main(["campaign", "run", "--dataset", dataset_path,
                      "--strategy", "gird",
                      "--axis", "DispatchWidth=1,2"])

    def test_bad_axis_flag(self, dataset_path):
        with pytest.raises(SystemExit, match="bad --axis"):
            cli.main(["campaign", "run", "--dataset", dataset_path,
                      "--axis", "DispatchWidth"])
        with pytest.raises(SystemExit, match="bad --axis"):
            cli.main(["campaign", "run", "--dataset", dataset_path,
                      "--axis", "DispatchWidth=a,b"])
