"""Tests for the markdown report rendered from a ``BENCH_<suite>.json`` payload."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import cli
from repro.bench import DEFAULT_REGISTRY, load_payload, render_report
from repro.bench.__main__ import main as bench_main
from repro.bench.report import _format_value, _render_payload

BASELINE = str(pathlib.Path(__file__).resolve().parents[1]
               / "benchmarks" / "baselines" / "BENCH_smoke.json")


def _entry(name, description, metrics, seconds=1.25):
    return {"name": name, "description": description, "tier": "quick", "seed": 7,
            "workers": 0, "uarches": None, "scale": {"num_blocks": 1},
            "rounds": 1, "warmup": 0,
            "wall_time_seconds": {"rounds": [seconds], "min": seconds, "mean": seconds},
            "metrics": metrics}


def _payload(*entries):
    return {"schema_version": 1, "suite": "demo", "tier": "quick", "workers": 2,
            "environment": {"python": "3", "platform": "p", "numpy": "2",
                            "cpu_count": 1, "git_sha": None},
            "scenarios": {entry["name"]: entry for entry in entries},
            "total_wall_time_seconds": sum(entry["wall_time_seconds"]["min"]
                                           for entry in entries)}


def _section_titles(report):
    return [line[len("## "):] for line in report.splitlines() if line.startswith("## ")]


class TestRenderReport:
    def test_committed_baseline_renders_one_section_per_scenario(self):
        payload = load_payload(BASELINE)
        report = render_report(payload)
        assert len(payload["scenarios"]) == 14
        assert _section_titles(report) == [entry["description"]
                                           for entry in payload["scenarios"].values()]
        for name in payload["scenarios"]:
            assert f"Scenario `{name}`" in report
        assert report.startswith("# Benchmark results: `BENCH_smoke.json`\n")
        assert report.endswith("\n")

    def test_table04_main_results_takes_its_registered_title(self):
        description = DEFAULT_REGISTRY.get("table04_main_results").description
        report = render_report(_payload(_entry("table04_main_results", description,
                                               {"Default": [0.269, 0.771]})))
        assert _section_titles(report) == [description]
        assert description.startswith("Table IV")

    def test_section_shows_tier_seed_wall_time_and_metrics(self):
        report = render_report(_payload(_entry("demo", "Demo scenario",
                                               {"error": 0.25, "ok": True})))
        assert ("Scenario `demo`: tier quick, seed 7, min wall time 1.250s."
                in report.splitlines())
        assert "- **error**: 0.25" in report
        assert "- **ok**: True" in report
        assert "1 scenario(s) at tier quick with 2 engine worker(s)" in report
        assert "git unknown" in report

    def test_nested_metrics_render_as_nested_bullets(self):
        report = render_report(_payload(_entry("demo", "Demo", {
            "group": {"inner": [1, 2, 3]}, "rows": [{"name": "run1"}], "scalar": 7})))
        assert "- **group**:" in report
        assert "  - **inner**: 1, 2, 3" in report
        assert "  - **name**: run1" in report
        assert "- **scalar**: 7" in report

    def test_sections_keep_the_payload_order(self):
        report = render_report(_payload(_entry("zeta", "Last by name", {}),
                                        _entry("alpha", "First by name", {})))
        assert _section_titles(report) == ["Last by name", "First by name"]
        assert "2 scenario(s) at tier quick" in report

    def test_header_names_suite_environment_and_git_revision(self):
        payload = _payload(_entry("demo", "Demo", {}, seconds=0.5),
                           _entry("other", "Other", {}, seconds=2.0))
        payload["environment"]["git_sha"] = "abc1234"
        header = render_report(payload).splitlines()[2]
        assert header == ("2 scenario(s) at tier quick with 2 engine worker(s), 2.50s in "
                          "total. Python 3, numpy 2, 1 CPU(s), git abc1234.")

    def test_wall_time_is_the_minimum_over_rounds(self):
        entry = _entry("demo", "Demo", {})
        entry["wall_time_seconds"] = {"rounds": [0.75, 0.5], "min": 0.5, "mean": 0.625}
        assert "min wall time 0.500s." in render_report(_payload(entry))


class TestRenderPayload:
    @pytest.mark.parametrize("value, text", [
        (True, "True"), (False, "False"), (3, "3"), (0.123456, "0.1235"),
        (1234567.0, "1.235e+06"), (None, "None"), ("name", "name"),
        ([1, 0.5, "a"], "1, 0.5, a"), ((2.0, 3.25), "2, 3.25"),
    ], ids=["true", "false", "int", "float", "large_float", "none", "string",
            "list", "tuple"])
    def test_format_value(self, value, text):
        assert _format_value(value) == text

    def test_scalar_and_flat_list_payloads(self):
        assert _render_payload(7) == ["- 7"]
        assert _render_payload([0.5, "x"]) == ["- 0.5", "- x"]

    def test_nested_lists_open_an_anonymous_bullet(self):
        assert _render_payload([[{"a": 1}], 2]) == ["-", "  -", "    - **a**: 1", "- 2"]

    def test_empty_containers_stay_on_one_line(self):
        assert _render_payload({"none": {}, "empty": [], "flat": [1, 2]}) == [
            "- **none**: {}", "- **empty**: ", "- **flat**: 1, 2"]

    def test_indent_prefixes_every_line(self):
        assert _render_payload({"group": {"x": 1.5}}, indent=1) == [
            "  - **group**:", "    - **x**: 1.5"]


class TestReportCommand:
    def test_stdout_and_output_file_hold_the_same_report(self, tmp_path, capsys):
        assert bench_main(["report", BASELINE]) == 0
        printed = capsys.readouterr().out
        assert printed == render_report(load_payload(BASELINE))
        output = tmp_path / "REPORT_smoke.md"
        assert bench_main(["report", BASELINE, "--output", str(output)]) == 0
        assert output.read_text() == printed
        assert os.listdir(tmp_path) == ["REPORT_smoke.md"]

    def test_repro_bench_report_matches_python_m_repro_bench(self, tmp_path):
        via_cli = tmp_path / "cli.md"
        via_module = tmp_path / "module.md"
        assert cli.main(["bench", "report", BASELINE, "--output", str(via_cli)]) == 0
        environment = dict(os.environ)
        source_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, environment.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "repro.bench", "report", BASELINE,
                        "--output", str(via_module)],
                       check=True, capture_output=True, env=environment, timeout=120)
        assert via_cli.read_bytes() == via_module.read_bytes()

    def test_output_file_is_announced(self, tmp_path, capsys):
        output = tmp_path / "REPORT.md"
        assert bench_main(["report", BASELINE, "--output", str(output)]) == 0
        assert capsys.readouterr().out == f"wrote {output}\n"



def unreadable_payload(directory, case):
    """A ``BENCH_*.json`` path that is missing, truncated or schema-invalid."""
    path = directory / f"BENCH_{case}.json"
    if case == "truncated":
        path.write_text('{"schema_version": 1, "sui')
    elif case == "schema_invalid":
        payload = _payload(_entry("demo", "Demo", {}))
        del payload["scenarios"]["demo"]["description"]
        path.write_text(json.dumps(payload))
    return path


#: The two command-line entry points of the benchmark subsystem.
ENTRY_POINTS = {"python -m repro.bench": bench_main,
                "repro bench": lambda argv: cli.main(["bench", *argv])}
UNREADABLE_CASES = ["missing", "truncated", "schema_invalid"]


def assert_one_error_line(out, err, path):
    """Nothing on stdout; one ``error:`` line on stderr naming ``path``."""
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: ") and str(path) in lines[0]


class TestUnreadablePayload:
    """``report`` and ``compare`` end an unreadable payload with one error
    line and exit status 2 (the ``--min-metric`` convention), through both
    entry points."""

    @pytest.mark.parametrize("case", UNREADABLE_CASES)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_report_exits_2_naming_the_file(self, tmp_path, capsys, entry, case):
        path = unreadable_payload(tmp_path, case)
        output = tmp_path / "REPORT.md"
        assert ENTRY_POINTS[entry](["report", str(path), "--output", str(output)]) == 2
        assert_one_error_line(*capsys.readouterr(), path)
        assert not output.exists()

    @pytest.mark.parametrize("case", UNREADABLE_CASES)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("side", ["baseline", "current"])
    def test_compare_exits_2_naming_the_file(self, tmp_path, capsys, side, entry,
                                             case):
        path = unreadable_payload(tmp_path, case)
        paths = [str(path), BASELINE] if side == "baseline" else [BASELINE, str(path)]
        assert ENTRY_POINTS[entry](["compare", *paths]) == 2
        assert_one_error_line(*capsys.readouterr(), path)

    @pytest.mark.parametrize("command", [["-m", "repro.bench"],
                                         ["-m", "repro.cli", "bench"]])
    def test_process_prints_no_traceback(self, tmp_path, command):
        path = unreadable_payload(tmp_path, "truncated")
        environment = dict(os.environ)
        source_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, environment.get("PYTHONPATH")]))
        finished = subprocess.run([sys.executable, *command, "report", str(path)],
                                  capture_output=True, text=True, env=environment,
                                  timeout=120)
        assert finished.returncode == 2
        assert_one_error_line(finished.stdout, finished.stderr, path)
