"""Tests for the benchmark-scenario subsystem (repro.bench)."""

import copy
import importlib.util
import json
import os

import pytest

from repro.bench import (DEFAULT_REGISTRY, CompareConfig, DuplicateScenarioError, Runner,
                         RunnerConfig, Scenario, ScenarioRegistry, SchemaError,
                         compare_payloads, jsonify, load_payload, scenario,
                         validate_payload)
from repro.bench.__main__ import main as bench_main
from repro.eval.experiments import SCALE_TIERS, ExperimentScale


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_decorator_registers_and_replaces_function(self):
        registry = ScenarioRegistry()

        @scenario("demo", uarches=("haswell",), tags=("x",), registry=registry)
        def demo(ctx):
            """A demo scenario."""
            return {"value": 1}

        assert isinstance(demo, Scenario)
        assert registry.get("demo") is demo
        assert demo.description == "A demo scenario."
        assert demo.uarches == ("haswell",)

    def test_duplicate_name_raises(self):
        registry = ScenarioRegistry()

        @scenario("demo", registry=registry)
        def first(ctx):
            return {}

        with pytest.raises(DuplicateScenarioError):
            @scenario("demo", registry=registry)
            def second(ctx):
                return {}

    def test_reregistering_same_object_is_idempotent(self):
        registry = ScenarioRegistry()

        @scenario("demo", registry=registry)
        def demo(ctx):
            return {}

        assert registry.register(demo) is demo
        assert len(registry) == 1

    def test_unknown_name_raises_with_known_names(self):
        registry = ScenarioRegistry()
        with pytest.raises(KeyError, match="unknown scenario"):
            registry.get("nope")

    def test_select_by_names_and_tags(self):
        registry = ScenarioRegistry()

        @scenario("a", tags=("ci",), registry=registry)
        def a(ctx):
            return {}

        @scenario("b", tags=("slow",), registry=registry)
        def b(ctx):
            return {}

        assert [s.name for s in registry.select()] == ["a", "b"]
        assert [s.name for s in registry.select(tags=["ci"])] == ["a"]
        assert [s.name for s in registry.select(names=["b"])] == ["b"]

    def test_default_registry_has_the_full_catalog(self):
        expected = {
            "table03_dataset", "table04_main_results", "table05_per_application",
            "table06_global_params", "table08_llvm_sim", "fig02_surrogate_sweep",
            "sec2b_measured_tables", "sec5a_random_tables", "sec6b_writelatency_only",
            "sec6c_case_studies", "ablation_port_groups", "ablation_surrogate",
            "baseline_search", "engine_throughput",
        }
        assert expected.issubset(set(DEFAULT_REGISTRY.names()))

    def test_every_scenario_resolves_every_tier(self):
        for entry in DEFAULT_REGISTRY.all():
            for tier in SCALE_TIERS:
                assert isinstance(entry.scale_for(tier), ExperimentScale)
            with pytest.raises(ValueError):
                entry.scale_for("galactic")


class TestScalePresets:
    def test_tiers_are_ordered_by_size(self):
        smoke = ExperimentScale.for_tier("smoke")
        quick = ExperimentScale.for_tier("quick")
        full = ExperimentScale.for_tier("full")
        assert smoke.num_blocks < quick.num_blocks < full.num_blocks
        assert smoke.opentuner_budget < quick.opentuner_budget < full.opentuner_budget

    def test_describe_is_json_pure(self):
        description = ExperimentScale.smoke().describe()
        json.dumps(description)
        assert description["num_blocks"] == 120
        assert "seed" in description


# ----------------------------------------------------------------------
# Runner end-to-end (two real scenarios at smoke tier)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    output_dir = tmp_path_factory.mktemp("bench")
    runner = Runner(RunnerConfig(tier="smoke", suite="testsuite",
                                 output_dir=str(output_dir)), log=None)
    payload = runner.run(names=["sec5a_random_tables", "engine_throughput"])
    path = runner.write(payload)
    return payload, path


class TestRunner:
    def test_payload_is_schema_valid(self, smoke_run):
        payload, _path = smoke_run
        assert validate_payload(payload) is payload
        assert payload["tier"] == "smoke"
        assert payload["suite"] == "testsuite"
        assert set(payload["scenarios"]) == {"sec5a_random_tables", "engine_throughput"}

    def test_file_is_indented_json_with_trailing_newline(self, smoke_run):
        payload, path = smoke_run
        with open(path) as handle:
            assert handle.read() == json.dumps(payload, indent=2) + "\n"
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]

    def test_file_round_trips_through_loader(self, smoke_run):
        _payload, path = smoke_run
        assert os.path.basename(path) == "BENCH_testsuite.json"
        loaded = load_payload(path)
        assert set(loaded["scenarios"]) == {"sec5a_random_tables", "engine_throughput"}

    def test_entries_carry_scale_and_environment_fingerprint(self, smoke_run):
        payload, _path = smoke_run
        assert payload["environment"]["python"]
        assert payload["environment"]["numpy"]
        for entry in payload["scenarios"].values():
            assert entry["tier"] == "smoke"
            assert entry["scale"]["num_blocks"] > 0
            assert entry["wall_time_seconds"]["min"] > 0
            assert entry["wall_time_seconds"]["rounds"]

    def test_metrics_are_json_pure(self, smoke_run):
        payload, _path = smoke_run
        json.dumps(payload)
        sec5a = payload["scenarios"]["sec5a_random_tables"]["metrics"]
        assert set(sec5a) == {"mean", "std", "min", "max"}
        engine = payload["scenarios"]["engine_throughput"]["metrics"]
        assert engine["speedups_vs_scalar"]["engine_cached"] > 0

    def test_seed_override_reaches_entries_and_scale_fingerprint(self, tmp_path):
        runner = Runner(RunnerConfig(tier="smoke", suite="seeded", seed=7,
                                     output_dir=str(tmp_path)), log=None)
        payload = runner.run(names=["sec5a_random_tables"])
        entry = payload["scenarios"]["sec5a_random_tables"]
        assert entry["seed"] == 7
        assert entry["scale"]["seed"] == 7

    def test_empty_selection_raises(self, tmp_path):
        runner = Runner(RunnerConfig(output_dir=str(tmp_path)), log=None)
        with pytest.raises(ValueError, match="no scenarios selected"):
            runner.run(tags=["no-such-tag"])


# ----------------------------------------------------------------------
# Schema validation and jsonify
# ----------------------------------------------------------------------
class TestSchema:
    def test_missing_top_level_key_raises(self, smoke_run):
        payload, _path = smoke_run
        broken = copy.deepcopy(payload)
        del broken["environment"]
        with pytest.raises(SchemaError, match="environment"):
            validate_payload(broken)

    def test_scenario_entry_problems_are_reported(self, smoke_run):
        payload, _path = smoke_run
        broken = copy.deepcopy(payload)
        del broken["scenarios"]["sec5a_random_tables"]["wall_time_seconds"]
        with pytest.raises(SchemaError, match="wall_time_seconds"):
            validate_payload(broken)

    def test_jsonify_handles_numpy_and_tuples(self):
        import numpy as np

        value = {"a": np.float64(1.5), "b": (np.int32(2), [np.arange(2)]),
                 3: "non-string-key"}
        assert jsonify(value) == {"a": 1.5, "b": [2, [[0, 1]]], "3": "non-string-key"}


# ----------------------------------------------------------------------
# Compare / regression gating
# ----------------------------------------------------------------------
def _payload_with_wall(seconds_by_name, tier="smoke"):
    return {
        "schema_version": 1, "suite": "s", "tier": tier, "workers": 0,
        "environment": {"python": "3", "platform": "p", "numpy": "2", "cpu_count": 1},
        "scenarios": {
            name: {
                "name": name, "description": name, "tier": tier, "seed": 0,
                "workers": 0, "uarches": None, "scale": {"num_blocks": 1},
                "rounds": 1, "warmup": 0,
                "wall_time_seconds": {"rounds": [seconds], "min": seconds,
                                      "mean": seconds},
                "metrics": {"error": 0.5},
            } for name, seconds in seconds_by_name.items()
        },
        "total_wall_time_seconds": sum(seconds_by_name.values()),
    }


class TestCompare:
    def test_identical_payloads_pass(self):
        payload = validate_payload(_payload_with_wall({"a": 1.0, "b": 2.0}))
        report = compare_payloads(payload, payload)
        assert report.ok
        assert "OK" in report.render()

    def test_wall_time_regression_fails(self):
        baseline = _payload_with_wall({"a": 1.0})
        current = _payload_with_wall({"a": 2.5})
        report = compare_payloads(baseline, current)
        assert not report.ok
        assert any("wall time" in failure for failure in report.failures)

    def test_wall_time_within_threshold_passes(self):
        baseline = _payload_with_wall({"a": 1.0})
        current = _payload_with_wall({"a": 1.9})
        assert compare_payloads(baseline, current).ok

    def test_fast_scenarios_are_exempt_from_wall_gating(self):
        baseline = _payload_with_wall({"a": 0.01})
        current = _payload_with_wall({"a": 0.2})  # 20x but below min_seconds
        assert compare_payloads(baseline, current,
                                CompareConfig(min_seconds=0.25)).ok

    def test_missing_scenario_is_a_coverage_regression(self):
        baseline = _payload_with_wall({"a": 1.0, "b": 1.0})
        current = _payload_with_wall({"a": 1.0})
        report = compare_payloads(baseline, current)
        assert any("coverage regression" in failure for failure in report.failures)

    def test_new_scenarios_do_not_fail(self):
        baseline = _payload_with_wall({"a": 1.0})
        current = _payload_with_wall({"a": 1.0, "b": 1.0})
        report = compare_payloads(baseline, current)
        assert report.ok
        assert any("new scenarios" in line for line in report.lines)

    def test_tier_mismatch_always_fails(self):
        baseline = _payload_with_wall({"a": 1.0}, tier="smoke")
        current = _payload_with_wall({"a": 1.0}, tier="quick")
        report = compare_payloads(baseline, current)
        assert any("tier mismatch" in failure for failure in report.failures)

    def test_allow_missing_downgrades_missing_scenarios_to_notes(self):
        baseline = _payload_with_wall({"a": 1.0, "b": 1.0})
        current = _payload_with_wall({"a": 1.0})
        report = compare_payloads(baseline, current,
                                  CompareConfig(allow_missing=True))
        assert report.ok
        assert any("coverage regression" in line for line in report.lines)

    def test_allow_missing_tier_mismatch_skips_wall_gates(self):
        # Cross-tier: 10x slower would normally fail, but wall times at
        # different scales are not comparable, so only coverage is checked.
        baseline = _payload_with_wall({"a": 1.0}, tier="smoke")
        current = _payload_with_wall({"a": 10.0}, tier="quick")
        report = compare_payloads(baseline, current,
                                  CompareConfig(allow_missing=True))
        assert report.ok
        assert any("skipping wall-time gates" in line for line in report.lines)

    def test_allow_missing_still_fails_on_wall_regressions_same_tier(self):
        baseline = _payload_with_wall({"a": 1.0})
        current = _payload_with_wall({"a": 9.0})
        report = compare_payloads(baseline, current,
                                  CompareConfig(allow_missing=True))
        assert not report.ok

    def test_metric_gating_is_opt_in(self):
        baseline = _payload_with_wall({"a": 1.0})
        current = _payload_with_wall({"a": 1.0})
        current["scenarios"]["a"]["metrics"]["error"] = 5.0
        assert compare_payloads(baseline, current).ok  # informational only
        report = compare_payloads(baseline, current,
                                  CompareConfig(max_metric_ratio=0.5))
        assert any("metric" in failure for failure in report.failures)

    def test_many_small_regressions_fail_via_the_suite_total(self):
        baseline = _payload_with_wall({"a": 0.1, "b": 0.1, "c": 0.1})
        current = _payload_with_wall({"a": 1.0, "b": 1.0, "c": 1.0})
        report = compare_payloads(baseline, current,
                                  CompareConfig(min_seconds=0.25))
        # Each scenario is individually exempt (baseline < min_seconds)...
        assert not any("'a'" in failure for failure in report.failures)
        # ...but the 10x suite total is gated.
        assert any("suite total" in failure for failure in report.failures)

    def test_environment_mismatch_warns_but_does_not_fail(self):
        baseline = _payload_with_wall({"a": 1.0})
        current = _payload_with_wall({"a": 1.0})
        current["environment"]["cpu_count"] = 64
        report = compare_payloads(baseline, current)
        assert report.ok
        assert any("environment differs" in line for line in report.lines)

    def test_disappearing_metric_fails(self):
        baseline = _payload_with_wall({"a": 1.0})
        current = _payload_with_wall({"a": 1.0})
        current["scenarios"]["a"]["metrics"] = {}
        report = compare_payloads(baseline, current)
        assert any("disappeared" in failure for failure in report.failures)


# ----------------------------------------------------------------------
# Command-line entry points
# ----------------------------------------------------------------------
class TestCommandLine:
    def test_list_prints_catalog(self, capsys):
        assert bench_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table04_main_results" in output
        assert "engine_throughput" in output

    def test_list_filters_by_tag(self, capsys):
        assert bench_main(["list", "--tag", "perf"]) == 0
        output = capsys.readouterr().out
        assert "engine_throughput" in output
        assert "table04_main_results" not in output

    def test_run_and_compare_round_trip(self, tmp_path, capsys):
        code = bench_main(["run", "sec5a_random_tables", "--tier", "smoke",
                           "--suite", "clitest", "--output-dir", str(tmp_path)])
        assert code == 0
        path = os.path.join(str(tmp_path), "BENCH_clitest.json")
        assert os.path.exists(path)
        capsys.readouterr()
        assert bench_main(["compare", path, path]) == 0
        assert "OK: no regressions" in capsys.readouterr().out

    def test_compare_exit_code_on_regression(self, tmp_path, capsys):
        baseline = _payload_with_wall({"a": 1.0, "b": 1.0})
        current = _payload_with_wall({"a": 9.0})
        base_path = os.path.join(str(tmp_path), "BENCH_base.json")
        current_path = os.path.join(str(tmp_path), "BENCH_current.json")
        json.dump(baseline, open(base_path, "w"))
        json.dump(current, open(current_path, "w"))
        assert bench_main(["compare", base_path, current_path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_allow_missing_tolerates_absent_baseline(self, tmp_path, capsys):
        current = _payload_with_wall({"a": 1.0})
        current_path = os.path.join(str(tmp_path), "BENCH_current.json")
        json.dump(current, open(current_path, "w"))
        missing = os.path.join(str(tmp_path), "BENCH_nope.json")
        assert bench_main(["compare", missing, current_path,
                           "--allow-missing"]) == 0
        assert "does not exist" in capsys.readouterr().out
        # Without the flag the missing file is still an error.
        with pytest.raises(FileNotFoundError):
            bench_main(["compare", missing, current_path])

    def test_compare_allow_missing_still_validates_current(self, tmp_path):
        # A green gate must mean the produced results were at least readable
        # and schema-valid, even when the baseline is tolerated as absent.
        broken = os.path.join(str(tmp_path), "BENCH_broken.json")
        open(broken, "w").write("{\"not\": \"a payload\"}")
        missing = os.path.join(str(tmp_path), "BENCH_nope.json")
        with pytest.raises(Exception):
            bench_main(["compare", missing, broken, "--allow-missing"])

    def test_main_cli_forwards_bench(self, capsys):
        from repro import cli

        assert cli.main(["bench", "list", "--tag", "perf"]) == 0
        assert "engine_throughput" in capsys.readouterr().out

    def test_committed_baseline_is_schema_valid(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        baseline_path = os.path.join(repo_root, "benchmarks", "baselines",
                                     "BENCH_smoke.json")
        baseline = load_payload(baseline_path)
        assert baseline["tier"] == "smoke"
        ci_names = {entry.name for entry in DEFAULT_REGISTRY.select(tags=["ci"])}
        assert set(baseline["scenarios"]) == ci_names


# ----------------------------------------------------------------------
# The pytest-compatibility shim in benchmarks/conftest.py
# ----------------------------------------------------------------------
@pytest.fixture()
def bench_conftest(tmp_path, monkeypatch):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test",
        os.path.join(repo_root, "benchmarks", "conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIRECTORY", str(tmp_path))
    return module


class TestRecordResultShim:
    def test_record_result_stamps_scale_and_seed(self, bench_conftest, tmp_path):
        bench_conftest.record_result("demo", {"error": 0.25}, tier="smoke")
        with open(os.path.join(str(tmp_path), "demo.json")) as handle:
            document = json.load(handle)
        assert document["name"] == "demo"
        assert document["tier"] == "smoke"
        assert document["seed"] == 0
        assert document["scale"]["num_blocks"] == 120
        assert document["results"] == {"error": 0.25}

    def test_record_result_jsonifies_numpy_payloads(self, bench_conftest, tmp_path):
        import numpy as np

        bench_conftest.record_result("arrays", {"values": np.arange(3)}, tier="smoke")
        with open(os.path.join(str(tmp_path), "arrays.json")) as handle:
            document = json.load(handle)
        assert document["results"] == {"values": [0, 1, 2]}

    def test_benchmark_scale_matches_quick_tier(self, bench_conftest):
        assert (bench_conftest.benchmark_scale().describe()
                == ExperimentScale.quick().describe())
