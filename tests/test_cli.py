"""Tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

from repro import cli, storage
from repro.llvm_mca import MCAParameterTable


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_dataset_arguments(self):
        arguments = cli.build_parser().parse_args(
            ["dataset", "--uarch", "zen2", "--blocks", "50", "--output", "x.json"])
        assert arguments.uarch == "zen2"
        assert arguments.blocks == 50
        assert arguments.handler is cli._command_dataset

    def test_learn_arguments_defaults(self):
        arguments = cli.build_parser().parse_args(["learn", "--output", "t.json"])
        assert arguments.learn_fields is None
        assert not arguments.paper_config

    def test_compare_rejects_unknown_uarch(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["compare", "--uarch", "alderlake"])

    def test_tune_arguments_defaults(self):
        arguments = cli.build_parser().parse_args(["tune"])
        assert arguments.targets == ["haswell"]
        assert arguments.config == "fast"
        assert not arguments.resume
        assert arguments.handler is cli._command_tune

    def test_tune_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["tune", "--targets", "alderlake"])


class TestCommands:
    def test_dataset_and_evaluate_roundtrip(self, tmp_path, capsys):
        dataset_path = os.path.join(tmp_path, "dataset.json")
        code = cli.main(["dataset", "--uarch", "haswell", "--blocks", "60",
                         "--seed", "3", "--output", dataset_path])
        assert code == 0
        assert os.path.exists(dataset_path)
        output = capsys.readouterr().out
        assert "measured blocks" in output

        code = cli.main(["evaluate", "--dataset", dataset_path])
        assert code == 0
        output = capsys.readouterr().out
        assert "error" in output and "Kendall" in output

    def test_learn_writes_valid_table(self, tmp_path, capsys):
        # Shrink the configuration so the CLI test runs in seconds: the CLI
        # resolves presets through the registry, so re-registering the
        # 'fast' entry redirects `repro learn` to the tiny test configuration.
        from repro.api import PRESETS
        from repro.core.config import test_config

        original = PRESETS.entry("fast")
        PRESETS.unregister("fast")
        PRESETS.register("fast", test_config)
        try:
            dataset_path = os.path.join(tmp_path, "dataset.json")
            cli.main(["dataset", "--uarch", "haswell", "--blocks", "60",
                      "--output", dataset_path])
            capsys.readouterr()
            table_path = os.path.join(tmp_path, "learned.json")
            code = cli.main(["learn", "--dataset", dataset_path, "--output", table_path,
                             "--learn-fields", "WriteLatency"])
        finally:
            # Restore the full entry (value + metadata), not just the value,
            # so later tests see pristine registry state.
            PRESETS.unregister("fast")
            PRESETS.register("fast", original.value, aliases=original.aliases,
                             summary=original.summary, source=original.source)
        assert code == 0
        output = capsys.readouterr().out
        assert "Saved learned table" in output
        table = MCAParameterTable.load_json(table_path)
        table.validate()

        code = cli.main(["evaluate", "--dataset", dataset_path, "--table", table_path])
        assert code == 0
        assert "error" in capsys.readouterr().out

    def test_tune_stop_and_resume_roundtrip(self, tmp_path, capsys):
        checkpoint_dir = os.path.join(tmp_path, "runs")
        output_dir = os.path.join(tmp_path, "tables")
        base = ["tune", "--targets", "haswell", "--blocks", "60", "--config", "test",
                "--checkpoint-dir", checkpoint_dir, "--output-dir", output_dir]
        code = cli.main(base + ["--stop-after", "train_surrogate"])
        assert code == 0
        output = capsys.readouterr().out
        assert "stopped after stage 'train_surrogate'" in output
        assert not os.path.exists(os.path.join(output_dir, "haswell.json"))

        code = cli.main(base + ["--resume"])
        assert code == 0
        output = capsys.readouterr().out
        assert "resumed 2 stages" in output
        table = MCAParameterTable.load_json(os.path.join(output_dir, "haswell.json"))
        table.validate()

    def test_tune_pool_writes_the_serial_tables(self, tmp_path, capsys):
        tables = {}
        for workers in ("0", "2"):
            run_dir = tmp_path / f"workers{workers}"
            code = cli.main(["tune", "--targets", "haswell", "zen2", "--blocks", "60",
                             "--config", "test", "--workers", workers,
                             "--checkpoint-dir", str(run_dir / "runs"),
                             "--output-dir", str(run_dir)])
            assert code == 0
            tables[workers] = [(run_dir / f"{target}.json").read_bytes()
                               for target in ("haswell", "zen2")]
        assert "2 worker processes" in capsys.readouterr().out
        assert tables["2"] == tables["0"]

    def test_tune_failed_target_reported_with_exit_code(self, tmp_path, capsys):
        corpus_dir = os.path.join(tmp_path, "corpus")
        output_dir = os.path.join(tmp_path, "tables")
        assert cli.main(["corpus", "build", "--uarch", "zen2", "--blocks", "40",
                         "--directory", corpus_dir]) == 0
        capsys.readouterr()
        code = cli.main(["tune", "--targets", "haswell", "--corpus", corpus_dir,
                         "--config", "test", "--output-dir", output_dir,
                         "--checkpoint-dir", os.path.join(tmp_path, "runs")])
        assert code == 1
        output = capsys.readouterr().out
        assert "haswell: FAILED: " in output
        assert "was generated for 'Zen 2'" in output
        assert not os.path.exists(os.path.join(output_dir, "haswell.json"))


class TestErrorBoundary:
    """An error that names its file or directory ends in one ``error:``
    line (exit status 1), not a traceback."""

    @staticmethod
    def _error(argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        # A string exit code prints on stderr and exits with status 1.
        message = excinfo.value.code
        assert isinstance(message, str) and message.startswith("error: ")
        return message

    @staticmethod
    def _pinned_elsewhere(directory):
        storage.PinnedManifest(directory, owner="another run").bind_fingerprint(
            "0" * 16, resume=False)
        return directory

    def test_campaign_resume_of_another_runs_directory(self, tmp_path):
        directory = self._pinned_elsewhere(str(tmp_path / "campaign"))
        message = self._error(["campaign", "run", "--uarch", "haswell",
                               "--blocks", "12", "--axis", "DispatchWidth=1,2",
                               "--checkpoint-dir", directory, "--resume"])
        assert f"refusing to resume checkpoint directory {directory!r}" in message

    def test_matrix_resume_of_another_runs_directory(self, tmp_path):
        directory = self._pinned_elsewhere(str(tmp_path / "matrix"))
        message = self._error(["matrix", "run", "--targets", "haswell",
                               "--simulators", "mca", "--blocks", "12",
                               "--axis", "DispatchWidth=1,2",
                               "--checkpoint-dir", directory, "--resume"])
        assert f"refusing to resume checkpoint directory {directory!r}" in message

    def test_corpus_stat_of_missing_directory(self, tmp_path):
        directory = str(tmp_path / "missing")
        message = self._error(["corpus", "stat", directory])
        assert "no corpus manifest at" in message and directory in message

    def test_corpus_stat_of_truncated_manifest(self, tmp_path):
        manifest = tmp_path / "corpus" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text('{"version": 2, "shar')
        message = self._error(["corpus", "stat", str(manifest.parent)])
        assert f"{manifest} cannot be parsed as JSON" in message

    def test_evaluate_with_missing_table(self, tmp_path, capsys):
        dataset_path = str(tmp_path / "dataset.json")
        assert cli.main(["dataset", "--uarch", "haswell", "--blocks", "12",
                         "--output", dataset_path]) == 0
        capsys.readouterr()
        table_path = str(tmp_path / "missing.json")
        message = self._error(["evaluate", "--dataset", dataset_path,
                               "--table", table_path])
        assert "No such file or directory" in message and table_path in message
