"""API-surface snapshot and package-root import tests.

The exported-name snapshot pins ``repro.api``'s public surface: an
accidental addition, removal, or rename fails here and must be reviewed
deliberately (update ``EXPECTED_API_SURFACE`` in the same change).
"""

import warnings

import pytest

import repro
import repro.api

#: The pinned public surface of repro.api.  Changing this set is an API
#: change: update the snapshot in the same commit and call it out in review.
EXPECTED_API_SURFACE = sorted([
    # registry machinery
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "DuplicateKeyError",
    "UnknownKeyError",
    # registry instances
    "TARGETS",
    "SIMULATORS",
    "SURROGATES",
    "BASELINES",
    "PRESETS",
    "STRATEGIES",
    "EXECUTORS",
    "registries",
    # plugin record types
    "SimulatorPlugin",
    "BaselinePlugin",
    # specs
    "TuneSpec",
    "EvaluateSpec",
    "PredictSpec",
    "BundleSpec",
    "ServeSpec",
    "CorpusSpec",
    "CampaignSpec",
    "MatrixCampaignSpec",
    "SpecValidationError",
    # session facade
    "Session",
    "SessionTuneResult",
    "CapabilityError",
    # sweep campaigns
    "AxisSpec",
    "CampaignRunner",
    "CampaignResult",
    "run_campaign",
    "CAMPAIGNS",
    # distributed matrix campaigns
    "MatrixResult",
    "run_matrix",
    # deployment bundles
    "BundleError",
    "BundleManifest",
    "export_bundle",
    "load_bundle",
    "inspect_bundle",
    # introspection
    "describe",
])


class TestSurfaceSnapshot:
    def test_all_matches_snapshot(self):
        assert sorted(repro.api.__all__) == EXPECTED_API_SURFACE

    def test_every_exported_name_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_dir_covers_all(self):
        assert set(EXPECTED_API_SURFACE) <= set(dir(repro.api))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            repro.api.bogus


class TestDescribe:
    def test_structure(self):
        description = repro.api.describe()
        assert description["version"] == repro.__version__
        assert sorted(description["registries"]) == [
            "baselines", "executors", "presets", "simulators", "strategies",
            "surrogates", "targets"]
        haswell = description["registries"]["targets"]["haswell"]
        assert haswell["aliases"] == ["hsw"]
        assert haswell["summary"]

    def test_describe_lists_spec_fields(self):
        description = repro.api.describe()
        assert sorted(description["specs"]) == [
            "BundleSpec", "CampaignSpec", "CorpusSpec", "EvaluateSpec",
            "MatrixCampaignSpec", "PredictSpec", "ServeSpec", "TuneSpec"]
        assert "executor" in description["specs"]["MatrixCampaignSpec"]
        assert "fail_cells" in description["specs"]["MatrixCampaignSpec"]
        assert "target" in description["specs"]["ServeSpec"]
        assert "directory" in description["specs"]["CorpusSpec"]
        assert "shard_size" in description["specs"]["CorpusSpec"]
        assert "bundle_path" in description["specs"]["ServeSpec"]
        assert "table_path" in description["specs"]["BundleSpec"]
        assert "axes" in description["specs"]["CampaignSpec"]
        assert "strategy" in description["specs"]["CampaignSpec"]

    @pytest.mark.parametrize("kind", ["baselines", "simulators"])
    def test_plugin_summaries_are_their_own(self, kind):
        # A plugin record's own summary, not its class's docstring.
        registry = repro.api.registries()[kind]
        described = repro.api.describe()["registries"][kind]
        assert {name: entry["summary"] for name, entry in described.items()} == \
            {name: registry.get(name).summary for name in registry.names()}

    def test_registries_keys_acceptance(self):
        # Acceptance criterion: repro.api.registries().keys() lists all seven.
        assert sorted(repro.api.registries().keys()) == [
            "baselines", "executors", "presets", "simulators", "strategies",
            "surrogates", "targets"]

    def test_describe_is_json_serializable(self):
        import json

        json.dumps(repro.api.describe())


class TestVersion:
    def test_version_is_single_sourced(self):
        # Installed: matches package metadata.  Source tree: the sentinel.
        from importlib import metadata

        try:
            expected = metadata.version("difftune-repro")
        except metadata.PackageNotFoundError:
            expected = "0.0.0+uninstalled"
        assert repro.__version__ == expected

    def test_cli_version_flag(self, capsys):
        from repro import cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestDeprecationShims:
    def test_star_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            namespace = {}
            exec("from repro.core import *", namespace)
        assert "train_surrogate" in namespace
        assert "DiffTune" not in namespace

    def test_submodule_imports_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core.adapters import MCAAdapter  # noqa: F401
            from repro.core.difftune import DiffTune  # noqa: F401
            from repro.core.config import fast_config  # noqa: F401

    def test_unknown_core_attribute_still_raises(self):
        import repro.core

        with pytest.raises(AttributeError):
            repro.core.NoSuchThing
