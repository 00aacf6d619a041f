"""Deployment-bundle tests: export / load round trips and verification.

The headline contract is the deployment path's acceptance criterion: a
session loaded with ``Session.from_bundle`` predicts bit-identically to the
live session the bundle was exported from, on every registered simulator.
The verification tests pin the failure modes: tampered member bytes, a
manifest/table digest disagreement, and a future schema version all fail
with a :class:`BundleError` naming the offending field.
"""

import json
import os
import zipfile

import numpy as np
import pytest

from repro.api import (BundleError, BundleSpec, PredictSpec, Session,
                       SpecValidationError, TuneSpec, inspect_bundle,
                       load_bundle)
from repro.api.bundle import (BUNDLE_SCHEMA_VERSION, MANIFEST_MEMBER,
                              TABLE_MEMBER, read_manifest)

SEED = 3


def _blocks(target, num_blocks=16):
    from repro.bhive import build_dataset

    return [example.block for example
            in build_dataset(target, num_blocks=num_blocks,
                             seed=SEED).train_examples]


def _rewrite_member(source, destination, member, payload):
    """Copy a zip archive, replacing one member's bytes."""
    with zipfile.ZipFile(source) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members[member] = payload
    with zipfile.ZipFile(destination, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


class TestExportRoundTrip:
    @pytest.mark.parametrize("simulator", ["mca", "llvm_sim"])
    def test_from_bundle_predicts_bit_identically(self, tmp_path, simulator):
        live = Session.from_spec(PredictSpec(target="haswell",
                                             simulator=simulator))
        path = os.path.join(tmp_path, f"{simulator}.bundle")
        manifest = live.export_bundle(path)
        assert manifest.target == "haswell"
        assert manifest.simulator == simulator

        blocks = _blocks("haswell")
        loaded = Session.from_bundle(path)
        assert np.array_equal(loaded.predict(blocks), live.predict(blocks))
        assert loaded.bundle_manifest.table_digest == manifest.table_digest

    def test_exports_learned_table_and_surrogate_after_tune(self, tmp_path):
        session = Session.from_spec(TuneSpec(target="haswell", preset="test",
                                             num_blocks=40, seed=SEED))
        outcome = session.tune()
        path = os.path.join(tmp_path, "tuned.bundle")
        manifest = session.export_bundle(path, table=outcome.learned_table)
        # The trained surrogate rides along by default after a tune() ...
        assert manifest.surrogate is not None
        loaded = Session.from_bundle(path)
        # ... and the bundled table is the learned one, not the default.
        blocks = _blocks("haswell", num_blocks=12)
        assert np.array_equal(loaded.predict(blocks),
                              session.predict(blocks, outcome.learned_table))
        # The surrogate weights rebuild bit-identically from the manifest's
        # config plus the embedded state dict.
        surrogate = loaded.bundle_surrogate()
        trained_state = session._last_surrogate.state_dict()
        rebuilt_state = surrogate.state_dict()
        assert sorted(rebuilt_state) == sorted(trained_state)
        for key, value in trained_state.items():
            assert np.array_equal(rebuilt_state[key], value), key

    def test_bundle_surrogate_unavailable_without_weights(self, tmp_path):
        path = os.path.join(tmp_path, "plain.bundle")
        Session.from_spec(PredictSpec(target="haswell")).export_bundle(path)
        loaded = Session.from_bundle(path)
        with pytest.raises(ValueError, match="no bundled surrogate"):
            loaded.bundle_surrogate()

    def test_export_from_table_path(self, tmp_path):
        live = Session.from_spec(PredictSpec(target="haswell"))
        table_path = os.path.join(tmp_path, "table.json")
        live.default_table().save_json(table_path)
        path = os.path.join(tmp_path, "from_path.bundle")
        manifest = live.export_bundle(path, table=table_path)
        assert load_bundle(path).manifest.table_digest == manifest.table_digest

    def test_from_bundle_overrides_engine_knobs(self, tmp_path):
        path = os.path.join(tmp_path, "hsw.bundle")
        Session.from_spec(PredictSpec(target="haswell")).export_bundle(path)
        loaded = Session.from_bundle(path, engine_workers=2)
        assert loaded.spec.engine_workers == 2

    def test_from_bundle_rejects_removed_megabatch_override(self, tmp_path):
        path = os.path.join(tmp_path, "hsw.bundle")
        Session.from_spec(PredictSpec(target="haswell")).export_bundle(path)
        with pytest.raises(SpecValidationError) as excinfo:
            Session.from_bundle(path, engine_megabatch=False)
        assert excinfo.value.field == "engine_megabatch"

    def test_inspect_reports_contents(self, tmp_path):
        path = os.path.join(tmp_path, "hsw.bundle")
        Session.from_spec(PredictSpec(target="haswell")).export_bundle(path)
        summary = inspect_bundle(path)
        assert summary["target"] == "haswell"
        assert summary["verified"] is True
        assert summary["has_surrogate"] is False
        assert TABLE_MEMBER in summary["members"]
        json.dumps(summary)  # plain data, JSON-serializable


class TestVerification:
    @pytest.fixture
    def bundle_path(self, tmp_path):
        path = os.path.join(tmp_path, "hsw.bundle")
        Session.from_spec(PredictSpec(target="haswell")).export_bundle(path)
        return path

    def test_tampered_member_rejected_naming_the_member(self, tmp_path,
                                                        bundle_path):
        tampered = os.path.join(tmp_path, "tampered.bundle")
        _rewrite_member(bundle_path, tampered, TABLE_MEMBER, b"garbage")
        with pytest.raises(BundleError, match="digest mismatch") as excinfo:
            load_bundle(tampered)
        assert excinfo.value.field == f"contents[{TABLE_MEMBER}]"

    def test_bundle_with_removed_megabatch_spec_field_loads(self, tmp_path,
                                                            bundle_path):
        # Bundles exported while specs carried the engine's megabatch switch
        # keep loading: the manifest's spec is read field by field.
        manifest = json.loads(
            zipfile.ZipFile(bundle_path).read(MANIFEST_MEMBER))
        manifest["spec"]["engine_megabatch"] = True
        legacy = os.path.join(tmp_path, "legacy.bundle")
        _rewrite_member(bundle_path, legacy, MANIFEST_MEMBER,
                        json.dumps(manifest).encode())
        blocks = _blocks("haswell")
        assert np.array_equal(Session.from_bundle(legacy).predict(blocks),
                              Session.from_bundle(bundle_path).predict(blocks))

    def test_future_schema_version_rejected(self, tmp_path, bundle_path):
        manifest = json.loads(
            zipfile.ZipFile(bundle_path).read(MANIFEST_MEMBER))
        manifest["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
        future = os.path.join(tmp_path, "future.bundle")
        _rewrite_member(bundle_path, future, MANIFEST_MEMBER,
                        json.dumps(manifest).encode())
        with pytest.raises(BundleError, match="schema_version") as excinfo:
            read_manifest(future)
        assert excinfo.value.field == "schema_version"
        assert "upgrade" in str(excinfo.value)

    def test_table_digest_disagreement_rejected(self, tmp_path, bundle_path):
        # Re-point table_digest at a wrong value and fix the member digest so
        # only the manifest/table consistency check can catch it.
        from repro.storage import digest

        with zipfile.ZipFile(bundle_path) as archive:
            manifest = json.loads(archive.read(MANIFEST_MEMBER))
            table_bytes = archive.read(TABLE_MEMBER)
        manifest["table_digest"] = "0" * len(manifest["table_digest"])
        manifest["contents"][TABLE_MEMBER] = digest(table_bytes)
        bad = os.path.join(tmp_path, "bad_digest.bundle")
        _rewrite_member(bundle_path, bad, MANIFEST_MEMBER,
                        json.dumps(manifest).encode())
        with pytest.raises(BundleError, match="table_digest"):
            load_bundle(bad)

    def test_not_a_zip_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "not_a_bundle")
        with open(path, "w") as handle:
            handle.write("hello")
        with pytest.raises(BundleError, match="not a zip"):
            read_manifest(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(os.path.join(tmp_path, "absent.bundle"))

    def test_unknown_manifest_field_rejected(self, tmp_path, bundle_path):
        manifest = json.loads(
            zipfile.ZipFile(bundle_path).read(MANIFEST_MEMBER))
        manifest["extra_field"] = 1
        bad = os.path.join(tmp_path, "unknown_field.bundle")
        _rewrite_member(bundle_path, bad, MANIFEST_MEMBER,
                        json.dumps(manifest).encode())
        with pytest.raises(BundleError, match="extra_field"):
            read_manifest(bad)


class TestSpecs:
    def test_bundle_spec_validates_registry_keys(self):
        with pytest.raises(SpecValidationError, match="target"):
            BundleSpec(target="hasswell").validate()
        with pytest.raises(SpecValidationError, match="surrogate"):
            BundleSpec(surrogate="lstmm").validate()

    def test_serve_spec_rejects_bundle_plus_table(self):
        from repro.api import ServeSpec

        with pytest.raises(SpecValidationError, match="table_path"):
            ServeSpec(bundle_path="a.bundle", table_path="t.json").validate()

    def test_serve_spec_rejects_bad_port(self):
        from repro.api import ServeSpec

        with pytest.raises(SpecValidationError, match="port"):
            ServeSpec(port=70000).validate()


class TestCLI:
    def test_bundle_export_and_inspect(self, tmp_path, capsys):
        from repro import cli

        path = os.path.join(tmp_path, "cli.bundle")
        assert cli.main(["bundle", "export", "--uarch", "haswell",
                         "--output", path]) == 0
        out = capsys.readouterr().out
        assert "table digest" in out
        assert cli.main(["bundle", "inspect", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verified"] is True

    def test_inspect_corrupted_bundle_exits_cleanly(self, tmp_path, capsys):
        from repro import cli

        path = os.path.join(tmp_path, "cli.bundle")
        cli.main(["bundle", "export", "--uarch", "haswell", "--output", path])
        capsys.readouterr()
        tampered = os.path.join(tmp_path, "tampered.bundle")
        _rewrite_member(path, tampered, TABLE_MEMBER, b"garbage")
        with pytest.raises(SystemExit, match="digest mismatch"):
            cli.main(["bundle", "inspect", tampered])
