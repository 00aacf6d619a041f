"""Tests for the distributed matrix-campaign subsystem (repro.distributed).

The headline contracts are the acceptance criteria of the subsystem:

* the aggregate ``matrix_report.json`` is byte-identical across executors
  (inline / pool / remote) and across kill-at-any-cell-boundary + resume;
* a cell that fails transiently is retried with backoff and succeeds; a
  cell that always fails lands in the failed-cell ledger *without* sinking
  its sibling cells;
* a remote worker that disconnects mid-cell is detected and the cell fails
  over to the ledger instead of hanging the matrix.
"""

import json
import logging
import os
import threading
import time

import pytest

from repro import cli
from repro.api import (EXECUTORS, MatrixCampaignSpec, Session,
                       SpecValidationError)
from repro.api.registries import same_target
from repro.core.parameters import ParameterSpec
from repro.distributed import (CampaignWorker, cell_key, format_matrix_report,
                               matrix_fingerprint, run_matrix)
from repro.pipeline.checkpoint import CheckpointMismatchError

#: Shared campaign body: per-opcode axis so both simulators can sweep it.
CAMPAIGN = {"axes": [{"field": "WriteLatency", "opcode": "ADD32rr",
                      "values": [1, 3]}],
            "num_blocks": 24, "seed": 3, "chunk_size": 8}
CELLS = [{"target": "haswell", "simulator": "mca"},
         {"target": "haswell", "simulator": "llvm_sim"}]
MCA_CELL = cell_key("haswell", "mca")
SIM_CELL = cell_key("haswell", "llvm_sim")


def make_matrix(corpus_root, **overrides):
    payload = {"campaign": dict(CAMPAIGN), "cells": [dict(c) for c in CELLS],
               "corpus_dir": corpus_root, "retry_backoff_seconds": 0.0}
    payload.update(overrides)
    return MatrixCampaignSpec.from_dict(payload)


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    """One shared corpus directory: every matrix in the module reuses the
    haswell corpus built by the first run (ShardedCorpus resume)."""
    return str(tmp_path_factory.mktemp("matrix-corpora"))


@pytest.fixture(scope="module")
def reference(corpus_root, tmp_path_factory):
    """The uninterrupted inline run every other execution path must match."""
    report_path = os.path.join(tmp_path_factory.mktemp("matrix-ref"),
                               "matrix_report.json")
    result = run_matrix(make_matrix(corpus_root, report_path=report_path))
    assert result.status == "complete"
    with open(report_path, "rb") as stream:
        report_bytes = stream.read()
    return result, report_bytes


class TestSpecValidation:
    def test_reserved_campaign_field_rejected(self, corpus_root):
        # from_dict validates eagerly, like every repro.api spec.
        with pytest.raises(SpecValidationError, match="campaign.target"):
            make_matrix(corpus_root, campaign=dict(CAMPAIGN, target="haswell"))

    def test_share_corpus_is_not_a_spec_field(self, corpus_root):
        with pytest.raises(SpecValidationError, match="unknown field") as caught:
            make_matrix(corpus_root, share_corpus=False)
        assert caught.value.field == "share_corpus"

    def test_unknown_executor_suggests(self, corpus_root):
        with pytest.raises(SpecValidationError, match="executor.*pool"):
            make_matrix(corpus_root, executor="pooll").validate()

    def test_remote_requires_worker_urls(self, corpus_root):
        with pytest.raises(SpecValidationError, match="worker_urls"):
            make_matrix(corpus_root, executor="remote").validate()

    def test_resume_requires_checkpoint_dir(self, corpus_root):
        with pytest.raises(SpecValidationError, match="requires checkpoint_dir"):
            make_matrix(corpus_root, resume=True).validate()

    def test_fail_cells_must_name_real_cells(self, corpus_root):
        with pytest.raises(SpecValidationError, match="names no cell"):
            make_matrix(corpus_root, fail_cells={"haswell__nope": 1})

    def test_duplicate_cells_rejected(self, corpus_root):
        with pytest.raises(SpecValidationError, match="duplicate cell"):
            make_matrix(corpus_root, cells=[CELLS[0], dict(CELLS[0])])

    def test_unsweepable_axis_names_offending_cell(self, corpus_root):
        # DispatchWidth is a global field llvm_sim cannot sweep: validation
        # must fail up front naming the cell, before anything executes.
        with pytest.raises(SpecValidationError, match=SIM_CELL):
            make_matrix(
                corpus_root,
                campaign={"axes": [{"field": "DispatchWidth",
                                    "values": [1, 2]}],
                          "num_blocks": 24, "seed": 3})

    @pytest.mark.parametrize("overrides, field, message", [
        ({"targets": ["haswell", "haswel"]}, "targets[1]",
         "unknown target 'haswel'; did you mean 'haswell'"),
        ({"simulators": ["mcaa"]}, "simulators[0]",
         "unknown simulator 'mcaa'; did you mean 'mca'"),
        ({"targets": [7]}, "targets[0]", "expected str, got int"),
        ({"targets": "haswell"}, "targets", "expected a list of target names"),
        ({"simulators": "mca"}, "simulators", "expected a list of simulator names"),
        ({"cells": [{"target": "haswel", "simulator": "mca"}]}, "cells[0].target",
         "did you mean 'haswell'"),
        ({"cells": [{"target": "haswell", "simulator": None}]},
         "cells[0].simulator", "expected str, got NoneType"),
        ({"cells": {"target": "haswell", "simulator": "mca"}}, "cells",
         "expected a list of"),
    ])
    def test_bad_registry_entries_name_their_field(self, overrides, field, message):
        payload = {"campaign": dict(CAMPAIGN), "cells": None, **overrides}
        with pytest.raises(SpecValidationError, match=message) as excinfo:
            MatrixCampaignSpec.from_dict(payload)
        assert excinfo.value.field == field

    def test_default_grid_is_full_registry_cross(self):
        pairs = MatrixCampaignSpec(campaign=dict(CAMPAIGN)).resolve_cells()
        targets = {target for target, _ in pairs}
        simulators = {simulator for _, simulator in pairs}
        assert len(pairs) == len(targets) * len(simulators)
        assert {"haswell", "zen2"} <= targets
        assert simulators == {"mca", "llvm_sim"}

    def test_json_round_trip(self, corpus_root):
        spec = make_matrix(corpus_root, executor="pool", workers=4,
                           fail_cells={MCA_CELL: 1})
        assert MatrixCampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_fingerprint_excludes_execution_knobs(self, corpus_root):
        base = matrix_fingerprint(make_matrix(corpus_root))
        assert matrix_fingerprint(make_matrix(
            corpus_root, executor="pool", workers=8,
            retry_backoff_seconds=9.0, cell_timeout_seconds=60.0,
            delay_cells={MCA_CELL: 1.0}, corpus_dir=None)) == base
        # Injected failures are result data (ledger entries): identity.
        assert matrix_fingerprint(make_matrix(
            corpus_root, fail_cells={MCA_CELL: -1})) != base
        assert matrix_fingerprint(make_matrix(
            corpus_root, max_retries=5)) != base

    def test_fingerprint_pins_the_table_sampler(self, corpus_root, monkeypatch):
        base = matrix_fingerprint(make_matrix(corpus_root))
        monkeypatch.setattr(ParameterSpec, "SAMPLER_REVISION",
                            ParameterSpec.SAMPLER_REVISION + 1)
        assert matrix_fingerprint(make_matrix(corpus_root)) != base

    def test_executors_registered(self):
        assert sorted(EXECUTORS.names()) == ["inline", "pool", "remote"]
        assert EXECUTORS.resolve("processes") == "pool"
        assert EXECUTORS.resolve("workers") == "remote"


class TestMatrixRun:
    def test_inline_report_structure(self, reference):
        result, _ = reference
        report = result.report
        assert report["schema_version"] == 1
        assert report["status"] == "complete"
        assert report["num_cells"] == report["num_completed_cells"] == 2
        assert set(report["cells"]) == {MCA_CELL, SIM_CELL}
        assert report["failed_cells"] == []
        assert {row["cell"] for row in report["comparison"]} == {MCA_CELL,
                                                                 SIM_CELL}
        for row in report["comparison"]:
            assert row["best_error"] <= row["baseline_error"] + 1e-12
        assert set(report["best_variant_per_cell"]) == {MCA_CELL, SIM_CELL}
        for cell in report["cells"].values():
            assert cell["attempts"] == 1
            assert set(cell["error_stats"]) >= {"count", "mean", "quantiles"}

    def test_pool_byte_identical_to_inline(self, corpus_root, reference):
        _, report_bytes = reference
        pooled = run_matrix(make_matrix(corpus_root, executor="pool",
                                        workers=2))
        assert json.dumps(pooled.report, sort_keys=True) == json.dumps(
            json.loads(report_bytes), sort_keys=True)

    def test_session_run_matrix(self, corpus_root, reference):
        from repro.api import EvaluateSpec

        result, _ = reference
        session = Session.from_spec(EvaluateSpec(target="haswell",
                                                 num_blocks=24, seed=3))
        via_session = session.run_matrix(campaign=dict(CAMPAIGN),
                                         cells=[dict(c) for c in CELLS],
                                         corpus_dir=corpus_root)
        assert via_session.report == result.report

    def test_format_matrix_report_renders_tables(self, reference):
        result, _ = reference
        rendered = format_matrix_report(result.report)
        assert "matrix report" in rendered
        assert "cell comparison" in rendered
        assert MCA_CELL in rendered and SIM_CELL in rendered
        assert "p50" in rendered

    def test_same_target_matches_display_names(self):
        # The shared-corpus guard must accept the corpus's display name
        # ("Zen 2") against the registry key ("zen2") the matrix uses.
        assert same_target("Zen 2", "zen2")
        assert same_target("hsw", "haswell")  # aliases resolve too
        assert not same_target("Zen 2", "haswell")


class TestFaultTolerance:
    def test_transient_failure_retried_then_succeeds(self, corpus_root,
                                                     reference):
        result, _ = reference
        spec = make_matrix(corpus_root, fail_cells={MCA_CELL: 1})
        retried = run_matrix(spec)
        assert retried.status == "complete"
        assert retried.report["cells"][MCA_CELL]["attempts"] == 2
        assert retried.report["cells"][SIM_CELL]["attempts"] == 1
        # Apart from the attempt count, results match the clean reference.
        assert (retried.cell_outcomes[MCA_CELL]["report"]
                == result.cell_outcomes[MCA_CELL]["report"])

    def test_always_failing_cell_lands_in_ledger(self, corpus_root, reference):
        result, _ = reference
        spec = make_matrix(corpus_root, fail_cells={SIM_CELL: -1},
                           max_retries=1)
        partial = run_matrix(spec)
        assert partial.status == "partial"
        assert [entry["cell"] for entry in partial.failed_cells] == [SIM_CELL]
        entry = partial.failed_cells[0]
        assert entry["attempts"] == 2  # max_retries + 1
        assert "InjectedCellFault" in entry["error"]
        assert "Traceback" in entry["traceback"]
        # The sibling cell is unaffected — byte-identical to the reference.
        assert (partial.report["cells"][MCA_CELL]
                == result.report["cells"][MCA_CELL])

    def test_slow_cell_cancelled_on_timeout(self, corpus_root):
        spec = make_matrix(corpus_root, executor="pool", workers=1,
                           cells=[dict(CELLS[0])],
                           delay_cells={MCA_CELL: 30.0},
                           cell_timeout_seconds=0.2, max_retries=0)
        result = run_matrix(spec)
        assert result.status == "partial"
        entry = result.failed_cells[0]
        assert "CellCancelled" in entry["error"]
        assert "timeout" in entry["error"]


class TestResume:
    def test_kill_at_every_cell_boundary_resumes_byte_identical(
            self, corpus_root, reference, tmp_path):
        _, report_bytes = reference
        for boundary in range(1, len(CELLS)):
            checkpoint_dir = str(tmp_path / f"boundary-{boundary}")
            report_path = str(tmp_path / f"boundary-{boundary}.json")

            def spec_for(resume):
                return make_matrix(corpus_root, checkpoint_dir=checkpoint_dir,
                                   report_path=report_path, resume=resume)

            killed = run_matrix(spec_for(False), max_cells=boundary)
            assert killed.status == "interrupted"
            assert len(killed.executed_cells) == boundary
            resumed = run_matrix(spec_for(True))
            assert resumed.status == "complete"
            assert resumed.resumed_cells == killed.executed_cells
            assert set(resumed.executed_cells).isdisjoint(killed.executed_cells)
            with open(report_path, "rb") as stream:
                assert stream.read() == report_bytes, \
                    f"resume at boundary {boundary} diverged"

    def test_resume_writes_per_cell_reports(self, corpus_root, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        run_matrix(make_matrix(corpus_root, checkpoint_dir=checkpoint_dir))
        for key in (MCA_CELL, SIM_CELL):
            path = os.path.join(checkpoint_dir, "cell_reports",
                                f"{key}.campaign_report.json")
            with open(path) as stream:
                assert json.load(stream)["spec"]["target"] == "haswell"

    def test_checkpoint_refuses_different_matrix(self, corpus_root, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        run_matrix(make_matrix(corpus_root, checkpoint_dir=checkpoint_dir),
                   max_cells=1)
        other = make_matrix(
            corpus_root, checkpoint_dir=checkpoint_dir, resume=True,
            campaign=dict(CAMPAIGN, axes=[{"field": "WriteLatency",
                                           "opcode": "ADD32rr",
                                           "values": [1, 5]}]))
        with pytest.raises(CheckpointMismatchError, match="different matrix"):
            run_matrix(other)


class TestRemote:
    def test_remote_byte_identical_to_inline(self, corpus_root, reference):
        result, _ = reference
        worker = CampaignWorker(port=0)
        handle = worker.start_in_thread()
        try:
            remote = run_matrix(make_matrix(corpus_root, executor="remote",
                                            worker_urls=[handle.url]))
        finally:
            handle.stop()
        assert remote.status == "complete"
        assert remote.report == result.report

    def test_worker_disconnect_mid_cell_lands_in_ledger(self, corpus_root, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        worker = CampaignWorker(port=0, drain_seconds=0.2)
        handle = worker.start_in_thread()
        # The delay must outlive the disconnect but stay under the server
        # handle's stop timeout (the worker's executor thread sleeps it out).
        spec = make_matrix(corpus_root, executor="remote",
                           worker_urls=[handle.url], cells=[dict(CELLS[0])],
                           delay_cells={MCA_CELL: 3.0}, max_retries=0,
                           heartbeat_seconds=0.1)
        results = []
        runner = threading.Thread(
            target=lambda: results.append(run_matrix(spec)), daemon=True)
        runner.start()
        time.sleep(0.5)  # let the cell reach the worker, then kill it
        handle.stop()
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "matrix hung on a dead worker"
        result = results[0]
        assert result.status == "partial"
        entry = result.failed_cells[0]
        assert entry["cell"] == MCA_CELL
        assert "WorkerUnreachable" in entry["error"]
        # The stopped worker cancels its in-flight handler without an
        # asyncio "Exception in callback" traceback.
        assert [record.getMessage() for record in caplog.records
                if record.name == "asyncio" and record.levelno >= logging.ERROR] == []


class TestCli:
    def test_matrix_list(self, capsys):
        assert cli.main(["matrix", "list"]) == 0
        out = capsys.readouterr().out
        assert "inline" in out and "pool" in out and "remote" in out
        assert "haswell__mca" in out

    def test_matrix_run_and_report_round_trip(self, corpus_root, tmp_path,
                                              capsys):
        report_path = str(tmp_path / "matrix_report.json")
        assert cli.main([
            "matrix", "run", "--targets", "haswell",
            "--simulators", "mca", "llvm_sim",
            "--axis", "WriteLatency@ADD32rr=1,3",
            "--blocks", "24", "--seed", "3", "--chunk-size", "8",
            "--corpus-dir", corpus_root, "--output", report_path]) == 0
        capsys.readouterr()
        assert cli.main(["matrix", "report", report_path]) == 0
        out = capsys.readouterr().out
        assert MCA_CELL in out and SIM_CELL in out
        assert cli.main(["matrix", "report", report_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["schema_version"] == 1

    def test_matrix_run_exit_code_on_failed_cells(self, corpus_root, tmp_path):
        spec_path = str(tmp_path / "spec.json")
        spec = make_matrix(corpus_root, fail_cells={SIM_CELL: -1},
                           max_retries=0)
        with open(spec_path, "w") as stream:
            json.dump(spec.to_dict(), stream)
        assert cli.main(["matrix", "run", "--spec", spec_path]) == 1
