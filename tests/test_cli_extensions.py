"""Tests for the timeline / sweep / tune-baseline CLI subcommands."""

import os

import pytest

from repro import cli
from repro.llvm_mca import MCAParameterTable


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = os.path.join(tmp_path_factory.mktemp("cli"), "haswell.json")
    assert cli.main(["dataset", "--uarch", "haswell", "--blocks", "60",
                     "--seed", "7", "--output", path]) == 0
    return path


class TestParserExtensions:
    def test_timeline_arguments(self):
        arguments = cli.build_parser().parse_args(
            ["timeline", "--block", "addq %rax, %rbx", "--uarch", "skylake"])
        assert arguments.handler is cli._command_timeline
        assert arguments.uarch == "skylake"

    def test_sweep_field_choices(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sweep", "--dataset", "x.json",
                                           "--field", "WriteLatency"])

    def test_tune_baseline_method_choices(self):
        arguments = cli.build_parser().parse_args(
            ["tune-baseline", "--dataset", "x.json", "--method", "genetic"])
        assert arguments.method == "genetic"
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["tune-baseline", "--dataset", "x.json",
                                           "--method", "bayesian"])


class TestSimulatorSelection:
    """--simulator is registry-driven and honored everywhere it appears."""

    def test_simulator_choices_come_from_registry(self):
        from repro.api import SIMULATORS

        arguments = cli.build_parser().parse_args(
            ["evaluate", "--dataset", "x.json", "--simulator", "llvm_sim"])
        assert arguments.simulator == "llvm_sim"
        assert set(SIMULATORS.names()) <= {"mca", "llvm_sim", "toy"}
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["evaluate", "--dataset", "x.json", "--simulator", "gem5"])

    def test_evaluate_with_llvm_sim(self, dataset_path, capsys):
        code = cli.main(["evaluate", "--dataset", dataset_path,
                         "--simulator", "llvm_sim"])
        assert code == 0
        output = capsys.readouterr().out
        assert "[llvm_sim]" in output
        assert "error" in output

    def test_evaluate_with_llvm_sim_table_roundtrip(self, dataset_path, tmp_path,
                                                    capsys):
        from repro.api import PredictSpec, Session

        table_path = os.path.join(tmp_path, "llvm_sim.json")
        session = Session.from_spec(PredictSpec(simulator="llvm_sim"))
        session.default_table().save_json(table_path)
        code = cli.main(["evaluate", "--dataset", dataset_path,
                         "--simulator", "llvm_sim", "--table", table_path])
        assert code == 0
        assert "error" in capsys.readouterr().out

    def test_timeline_rejects_simulator_without_view(self):
        with pytest.raises(SystemExit, match="no timeline view"):
            cli.main(["timeline", "--simulator", "llvm_sim",
                      "--block", "addq %rax, %rbx"])

    def test_sweep_rejects_unsweepable_simulator(self, dataset_path):
        with pytest.raises(SystemExit, match="cannot sweep"):
            cli.main(["sweep", "--dataset", dataset_path,
                      "--simulator", "llvm_sim", "--field", "DispatchWidth"])

    def test_learn_fields_with_llvm_sim_fails_cleanly(self, dataset_path):
        # Spec validation surfaces as a clean CLI error, not a traceback.
        with pytest.raises(SystemExit, match="learn_fields.*does not support"):
            cli.main(["learn", "--dataset", dataset_path, "--output", "/tmp/x.json",
                      "--simulator", "llvm_sim", "--learn-fields", "WriteLatency"])
        with pytest.raises(SystemExit, match="learn_fields.*does not support"):
            cli.main(["tune", "--targets", "haswell", "--simulator", "llvm_sim",
                      "--learn-fields", "WriteLatency", "--config", "test"])


class TestTimelineCommand:
    def test_prints_summary_for_block(self, capsys):
        code = cli.main(["timeline", "--block",
                         "movq 16(%rsp), %rax; addq %rax, %rbx; imulq %rbx, %rcx"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Predicted timing" in output
        assert "Bottleneck" in output
        assert "Resource pressure" in output

    def test_uses_learned_table_when_given(self, tmp_path, capsys):
        from repro.core.adapters import MCAAdapter
        from repro.targets import HASWELL

        adapter = MCAAdapter(HASWELL)
        table = adapter.default_table()
        table.set_latency(table.opcode_table.names()[0], 3)
        table_path = os.path.join(tmp_path, "table.json")
        table.save_json(table_path)
        code = cli.main(["timeline", "--block", "addq %rax, %rbx",
                         "--table", table_path])
        assert code == 0
        assert "Predicted timing" in capsys.readouterr().out


class TestSweepCommand:
    def test_dispatch_width_sweep_reports_best_value(self, dataset_path, capsys):
        code = cli.main(["sweep", "--dataset", dataset_path, "--field", "DispatchWidth",
                         "--low", "1", "--high", "6"])
        assert code == 0
        output = capsys.readouterr().out
        assert "DispatchWidth sensitivity" in output
        assert "Best DispatchWidth" in output

    def test_reorder_buffer_sweep(self, dataset_path, capsys):
        code = cli.main(["sweep", "--dataset", dataset_path, "--field", "ReorderBufferSize",
                         "--low", "50", "--high", "150", "--step", "50"])
        assert code == 0
        assert "ReorderBufferSize" in capsys.readouterr().out


class TestTuneBaselineCommand:
    def test_coordinate_descent_baseline_runs_and_saves(self, dataset_path, tmp_path, capsys):
        output_path = os.path.join(tmp_path, "tuned.json")
        code = cli.main(["tune-baseline", "--dataset", dataset_path, "--method", "coordinate",
                         "--budget", "1200", "--output", output_path])
        assert code == 0
        output = capsys.readouterr().out
        assert "coordinate" in output
        assert "test error" in output
        MCAParameterTable.load_json(output_path).validate()

    def test_annealing_baseline_runs_without_output_file(self, dataset_path, capsys):
        code = cli.main(["tune-baseline", "--dataset", dataset_path, "--method", "annealing",
                         "--budget", "800"])
        assert code == 0
        assert "annealing" in capsys.readouterr().out

    def test_unusable_split_exits_naming_the_dataset(self, tmp_path):
        # One measured block splits into 0 train and 1 test block: the
        # split check runs before any search instead of a traceback.
        path = os.path.join(tmp_path, "one.json")
        assert cli.main(["dataset", "--blocks", "1", "--output", path]) == 0
        with pytest.raises(SystemExit, match="^error: dataset_path: .* 0 train"):
            cli.main(["tune-baseline", "--dataset", path, "--method", "genetic"])
