"""Tests for the benchmark-scenario subsystem (repro.bench)."""

import copy
import json
import os
import re

import pytest

from repro.api.registry import DuplicateKeyError, Registry
from repro.bench import (DEFAULT_REGISTRY, CompareConfig, Runner, RunnerConfig, Scenario,
                         ScenarioContext, SchemaError, check_min_metrics,
                         compare_payloads, jsonify, load_payload, parse_min_metric,
                         scenario, select, validate_payload)
from repro.bench.schema import collect_problems
from repro.bench.__main__ import main as bench_main
from repro.eval.experiments import SCALE_TIERS, ExperimentScale
from repro.storage import CorruptArtifactError


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_decorator_registers_and_replaces_function(self):
        registry = Registry("scenario")

        @scenario("demo", uarches=("haswell",), tags=("x",), registry=registry)
        def demo(ctx):
            """A demo scenario."""
            return {"value": 1}

        assert isinstance(demo, Scenario)
        assert registry.get("demo") is demo
        assert demo.description == "A demo scenario."
        assert demo.uarches == ("haswell",)

    def test_duplicate_name_raises(self):
        registry = Registry("scenario")

        @scenario("demo", registry=registry)
        def first(ctx):
            return {}

        with pytest.raises(DuplicateKeyError):
            @scenario("demo", registry=registry)
            def second(ctx):
                return {}

    def test_reregistering_same_object_is_idempotent(self):
        registry = Registry("scenario")

        @scenario("demo", registry=registry)
        def demo(ctx):
            return {}

        assert registry.register(demo.name, demo) is demo
        assert len(registry) == 1

    def test_unknown_name_raises_with_known_names(self):
        registry = Registry("scenario")
        with pytest.raises(KeyError, match="unknown scenario"):
            registry.get("nope")

    def test_select_by_names_and_tags(self):
        registry = Registry("scenario")

        @scenario("a", tags=("ci",), registry=registry)
        def a(ctx):
            return {}

        @scenario("b", tags=("slow",), registry=registry)
        def b(ctx):
            return {}

        assert [s.name for s in select(registry)] == ["a", "b"]
        assert [s.name for s in select(registry, tags=["ci"])] == ["a"]
        assert [s.name for s in select(registry, names=["b"])] == ["b"]

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
        for entry in select(DEFAULT_REGISTRY):
            for tier in SCALE_TIERS:
                context = Runner(RunnerConfig(tier=tier)).context_for(entry)
                assert isinstance(context.scale, ExperimentScale)
                assert context.scale == ExperimentScale.for_tier(tier)
            with pytest.raises(ValueError):
                Runner(RunnerConfig(tier="galactic")).context_for(entry)


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


class TestScenarioContext:
    def _context(self, **overrides):
        values = dict(tier="smoke", scale=ExperimentScale.smoke())
        values.update(overrides)
        return ScenarioContext(**values)

    def test_by_tier_picks_the_running_tier(self):
        assert self._context(tier="quick").by_tier(smoke=3, quick=8, full=10) == 8
        with pytest.raises(KeyError):
            self._context(tier="full").by_tier(smoke=3, quick=8)

    def test_dataset_is_memoized_per_uarch_size_and_seed(self):
        context = self._context(uarch="zen2")
        first = context.dataset(num_blocks=12, seed=3)
        assert context.dataset(num_blocks=12, seed=3) is first
        assert list(context.dataset_cache) == [("zen2", 12, 3)]
        other_seed = context.dataset(num_blocks=12, seed=4)
        assert other_seed is not first
        assert len(context.dataset_cache) == 2

    def test_dataset_cache_is_shared_between_contexts(self):
        shared = {}
        first = self._context(dataset_cache=shared).dataset(num_blocks=12)
        second = self._context(dataset_cache=shared).dataset(num_blocks=12)
        assert second is first
        assert list(shared) == [("haswell", 12, ExperimentScale.smoke().seed)]

    def test_session_fills_run_defaults_without_overriding_the_caller(self):
        context = self._context(uarch="zen2", workers=2)
        session = context.session({"num_blocks": 40})
        assert (session.spec.target, session.spec.engine_workers,
                session.spec.num_blocks) == ("zen2", 2, 40)
        explicit = context.session(target="skylake", engine_workers=0)
        assert (explicit.spec.target, explicit.spec.engine_workers) == ("skylake", 0)

    def test_registry_membership(self):
        assert "table04_main_results" in DEFAULT_REGISTRY
        assert "no_such_scenario" not in DEFAULT_REGISTRY


# ----------------------------------------------------------------------
# Runner end-to-end (two real scenarios at smoke tier)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    output_dir = tmp_path_factory.mktemp("bench")
    runner = Runner(RunnerConfig(tier="smoke", suite="testsuite",
                                 output_dir=str(output_dir)))
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
                                     output_dir=str(tmp_path)))
        payload = runner.run(names=["sec5a_random_tables"])
        entry = payload["scenarios"]["sec5a_random_tables"]
        assert entry["seed"] == 7
        assert entry["scale"]["seed"] == 7

    def test_empty_selection_raises(self, tmp_path):
        runner = Runner(RunnerConfig(output_dir=str(tmp_path)))
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

    def test_load_payload_names_a_corrupt_file(self, tmp_path):
        path = os.path.join(str(tmp_path), "BENCH_broken.json")
        open(path, "w").write('{"schema_version": 1, "sui')
        with pytest.raises(CorruptArtifactError) as excinfo:
            load_payload(path)
        assert path in str(excinfo.value)

    def test_load_payload_names_a_schema_invalid_file(self, tmp_path):
        broken = _payload_with_wall({"a": 1.0})
        del broken["environment"]["numpy"]
        del broken["scenarios"]["a"]["seed"]
        path = os.path.join(str(tmp_path), "BENCH_invalid.json")
        json.dump(broken, open(path, "w"))
        with pytest.raises(SchemaError) as excinfo:
            load_payload(path)
        assert excinfo.value.problems == [
            f"{path}: environment: missing key 'numpy'",
            f"{path}: scenarios['a']: missing key 'seed'"]

    def test_jsonify_handles_numpy_and_tuples(self):
        import numpy as np

        value = {"a": np.float64(1.5), "b": (np.int32(2), [np.arange(2)]),
                 3: "non-string-key"}
        assert jsonify(value) == {"a": 1.5, "b": [2, [[0, 1]]], "3": "non-string-key"}

    def test_jsonify_reads_plain_objects_through_their_attributes(self):
        import numpy as np

        class Stats:
            def __init__(self):
                self.count = np.int64(3)
                self.errors = (np.float32(0.5),)

        assert jsonify({"stats": Stats()}) == {"stats": {"count": 3, "errors": [0.5]}}
        assert jsonify(complex(1, 2)) == "(1+2j)"
        assert jsonify(None) is None

    @pytest.mark.parametrize("mutate, problem", [
        (lambda payload: payload.update(schema_version=2),
         "payload: schema_version 2 != 1"),
        (lambda payload: payload.update(scenarios={}),
         "scenarios: expected a non-empty object"),
        (lambda payload: payload.update(environment=["python"]),
         "environment: expected an object, got list"),
        (lambda payload: payload["scenarios"].update(a="not an entry"),
         "scenarios['a']: expected an object, got str"),
        (lambda payload: payload["scenarios"]["a"].update(name="b"),
         "scenarios['a']: name field 'b' != key"),
        (lambda payload: payload["scenarios"]["a"]["wall_time_seconds"].update(rounds=[]),
         "scenarios['a'].wall_time_seconds.rounds: expected a non-empty list"),
        (lambda payload: payload["scenarios"]["a"]["wall_time_seconds"].pop("mean"),
         "scenarios['a'].wall_time_seconds: missing key 'mean'"),
    ], ids=["version", "no_scenarios", "environment_type", "entry_type", "name_mismatch",
            "empty_rounds", "wall_time_key"])
    def test_each_violation_is_reported_alone(self, mutate, problem):
        payload = _payload_with_wall({"a": 1.0})
        assert collect_problems(payload) == []
        mutate(payload)
        assert collect_problems(payload) == [problem]
        with pytest.raises(SchemaError, match=re.escape(problem)):
            validate_payload(payload)

    def test_non_object_payload_stops_at_the_top_level(self):
        assert collect_problems([1, 2]) == ["payload: expected an object, got list"]

    def test_problems_accumulate_across_entries(self):
        payload = _payload_with_wall({"a": 1.0, "b": 2.0})
        del payload["scenarios"]["a"]["metrics"]
        payload["scenarios"]["b"]["name"] = "a"
        assert collect_problems(payload) == ["scenarios['a']: missing key 'metrics'",
                                             "scenarios['b']: name field 'a' != key"]

    def test_optional_minor_fields_are_not_required(self):
        payload = _payload_with_wall({"a": 1.0})
        payload["schema_minor"] = 1
        payload["scenarios"]["a"]["peak_rss_bytes"] = 123
        assert validate_payload(payload) is payload
        del payload["schema_minor"], payload["scenarios"]["a"]["peak_rss_bytes"]
        assert validate_payload(payload) is payload


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
# Absolute metric floors (--min-metric)
# ----------------------------------------------------------------------
def _engine_payload(metrics):
    payload = _payload_with_wall({"engine_throughput": 1.0})
    payload["scenarios"]["engine_throughput"]["metrics"] = metrics
    return payload


ENGINE_METRICS = {"speedups_vs_scalar": {"engine_megabatch": 6.25, "engine_cached": 214.0},
                  "rows": [{"error": 0.125}, {"error": 0.5}], "ok": True}


class TestMinMetricFloors:
    @pytest.mark.parametrize("raw, expected", [
        ("engine_throughput:speedups_vs_scalar.engine_megabatch:3",
         ("engine_throughput", "speedups_vs_scalar.engine_megabatch", 3.0)),
        ("matrix_campaign:speedup.pool:1.5", ("matrix_campaign", "speedup.pool", 1.5)),
        ("suite:scenario:rows[1].error:-0.25", ("suite:scenario", "rows[1].error", -0.25)),
        ("a:b:1e-3", ("a", "b", 0.001)),
    ], ids=["nested", "fractional", "colon_in_name", "exponent"])
    def test_parse_splits_on_the_last_two_colons(self, raw, expected):
        assert parse_min_metric(raw) == expected

    @pytest.mark.parametrize("raw, message", [
        ("speedup.pool:1.5", "expected 'scenario:dotted.path:floor', got 'speedup.pool:1.5'"),
        (":speedup.pool:1.5", "expected 'scenario:dotted.path:floor'"),
        ("matrix_campaign::1.5", "expected 'scenario:dotted.path:floor'"),
        ("matrix_campaign:speedup.pool:fast", "is not a number: 'fast'"),
        ("matrix_campaign:speedup.pool:", "is not a number: ''"),
    ], ids=["two_parts", "no_scenario", "no_path", "word_floor", "empty_floor"])
    def test_parse_rejects_malformed_specs(self, raw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_min_metric(raw)

    @pytest.mark.parametrize("path, floor, line", [
        ("speedups_vs_scalar.engine_megabatch", 3.0, "6.25 >= 3"),
        ("speedups_vs_scalar.engine_megabatch", 6.25, "6.25 >= 6.25"),
        ("rows[1].error", 0.5, "0.5 >= 0.5"),
    ], ids=["above", "equal", "list_index"])
    def test_floor_met_passes_and_is_logged(self, path, floor, line):
        config = CompareConfig(min_metrics=[("engine_throughput", path, floor)])
        report = check_min_metrics(_engine_payload(ENGINE_METRICS), config)
        assert report.ok
        assert report.lines == [f"min-metric engine_throughput:{path}: {line}"]

    def test_floor_violation_fails(self):
        config = CompareConfig(min_metrics=[
            ("engine_throughput", "speedups_vs_scalar.engine_megabatch", 8.0)])
        report = check_min_metrics(_engine_payload(ENGINE_METRICS), config)
        assert report.failures == ["min-metric engine_throughput:speedups_vs_scalar"
                                   ".engine_megabatch: 6.25 below required floor 8"]
        assert "FAIL: 1 regression(s):" in report.render()

    def test_missing_scenario_fails_the_floor(self):
        config = CompareConfig(min_metrics=[("matrix_campaign", "speedup.pool", 1.5)])
        report = check_min_metrics(_engine_payload(ENGINE_METRICS), config)
        assert len(report.failures) == 1
        assert "matrix_campaign:speedup.pool: scenario missing" in report.failures[0]

    def test_missing_path_suggests_the_leaf_with_the_same_name(self):
        config = CompareConfig(min_metrics=[
            ("engine_throughput", "speedups.engine_megabatch", 3.0),
            ("engine_throughput", "speedups_vs_scalar.engine_collection", 2.0)])
        report = check_min_metrics(_engine_payload(ENGINE_METRICS), config)
        assert report.failures == [
            "min-metric engine_throughput:speedups.engine_megabatch: metric path not "
            "found in current results (did you mean "
            "'speedups_vs_scalar.engine_megabatch'?)",
            "min-metric engine_throughput:speedups_vs_scalar.engine_collection: metric "
            "path not found in current results"]

    def test_boolean_metrics_are_not_numeric_leaves(self):
        config = CompareConfig(min_metrics=[("engine_throughput", "ok", 0.0)])
        report = check_min_metrics(_engine_payload(ENGINE_METRICS), config)
        assert not report.ok
        assert "metric path not found" in report.failures[0]

    def test_compare_payloads_applies_floors_to_the_current_results(self):
        baseline = _engine_payload(ENGINE_METRICS)
        current = copy.deepcopy(baseline)
        current["scenarios"]["engine_throughput"]["metrics"]["speedups_vs_scalar"][
            "engine_megabatch"] = 2.0
        floor = [("engine_throughput", "speedups_vs_scalar.engine_megabatch", 3.0)]
        assert compare_payloads(baseline, current).ok
        report = compare_payloads(baseline, current, CompareConfig(min_metrics=floor))
        assert report.failures == ["min-metric engine_throughput:speedups_vs_scalar"
                                   ".engine_megabatch: 2 below required floor 3"]
        # The baseline is not consulted: the same floor passes on its values.
        assert compare_payloads(current, baseline, CompareConfig(min_metrics=floor)).ok

    def test_allow_missing_does_not_excuse_a_missing_floor(self):
        config = CompareConfig(allow_missing=True,
                               min_metrics=[("matrix_campaign", "speedup.pool", 1.5)])
        payload = _engine_payload(ENGINE_METRICS)
        assert not compare_payloads(payload, payload, config).ok
        assert not check_min_metrics(payload, config).ok


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
        assert bench_main(["compare", missing, current_path]) == 2
        assert missing in capsys.readouterr().err

    def test_compare_allow_missing_still_validates_current(self, tmp_path, capsys):
        # A green gate must mean the produced results were at least readable
        # and schema-valid, even when the baseline is tolerated as absent.
        broken = os.path.join(str(tmp_path), "BENCH_broken.json")
        open(broken, "w").write("{\"not\": \"a payload\"}")
        missing = os.path.join(str(tmp_path), "BENCH_nope.json")
        assert bench_main(["compare", missing, broken, "--allow-missing"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {broken}: ")

    @pytest.mark.parametrize("side", ["baseline", "current"])
    @pytest.mark.parametrize("corrupt", [True, False], ids=["corrupt", "schema_invalid"])
    def test_compare_names_an_unreadable_file(self, tmp_path, capsys, side, corrupt):
        payload = _payload_with_wall({"a": 1.0})
        good = os.path.join(str(tmp_path), "BENCH_good.json")
        json.dump(payload, open(good, "w"))
        del payload["suite"]
        bad = os.path.join(str(tmp_path), "BENCH_bad.json")
        open(bad, "w").write("{'a': 1}" if corrupt else json.dumps(payload))
        paths = [bad, good] if side == "baseline" else [good, bad]
        assert bench_main(["compare", *paths]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}")

    def test_compare_rejects_a_malformed_floor(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "BENCH_current.json")
        json.dump(_engine_payload(ENGINE_METRICS), open(path, "w"))
        assert bench_main(["compare", path, path, "--min-metric", "engine_throughput"]) == 2
        assert "error: --min-metric: expected 'scenario:dotted.path:floor'" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("floor, code", [(3, 0), (7, 1)], ids=["met", "violated"])
    def test_compare_gates_floors_without_a_baseline(self, tmp_path, capsys, floor, code):
        path = os.path.join(str(tmp_path), "BENCH_current.json")
        json.dump(_engine_payload(ENGINE_METRICS), open(path, "w"))
        missing = os.path.join(str(tmp_path), "BENCH_nope.json")
        assert bench_main(["compare", missing, path, "--allow-missing", "--min-metric",
                           f"engine_throughput:speedups_vs_scalar.engine_megabatch:{floor}"]
                          ) == code
        output = capsys.readouterr().out
        assert "does not exist" in output
        assert ("OK: no regressions" if code == 0 else "below required floor 7") in output

    def test_compare_gates_floors_against_a_baseline(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "BENCH_current.json")
        json.dump(_engine_payload(ENGINE_METRICS), open(path, "w"))
        assert bench_main(["compare", path, path, "--min-metric",
                           "engine_throughput:rows[0].error:0.25"]) == 1
        assert "rows[0].error: 0.125 below required floor 0.25" in capsys.readouterr().out

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
        ci_names = {entry.name for entry in select(DEFAULT_REGISTRY, tags=["ci"])}
        assert set(baseline["scenarios"]) == ci_names
