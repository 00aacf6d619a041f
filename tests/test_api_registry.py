"""Tests for the generic component registry (repro.api.registry).

Covers the error paths the ISSUE calls out explicitly — duplicate keys,
unknown keys with did-you-mean suggestions, and entry-point plugin loading —
plus alias resolution, idempotent re-registration, and lazy bootstrap.
"""

import pytest

from repro.api.registry import (DuplicateKeyError, Registry, RegistryError,
                                UnknownKeyError)


def make_registry(**kwargs):
    return Registry("widget", **kwargs)


class TestRegistration:
    def test_direct_register_and_get(self):
        registry = make_registry()
        registry.register("alpha", 1)
        assert registry.get("alpha") == 1
        assert "alpha" in registry
        assert len(registry) == 1

    def test_decorator_register_returns_object(self):
        registry = make_registry()

        @registry.register("thing")
        class Thing:
            """A registered thing."""

        assert registry.get("thing") is Thing
        # The summary defaults to the first docstring line.
        assert registry.entry("thing").summary == "A registered thing."

    def test_keys_are_normalized(self):
        registry = make_registry()
        registry.register("Alpha", 1)
        assert registry.get("  ALPHA ") == 1
        assert registry.names() == ["alpha"]

    def test_alias_lookup(self):
        registry = make_registry()
        registry.register("alpha", 1, aliases=("a", "first"))
        assert registry.get("a") == 1
        assert registry.get("first") == 1
        assert registry.resolve("a") == "alpha"
        # Aliases do not show up as canonical names.
        assert registry.names() == ["alpha"]

    def test_duplicate_key_raises(self):
        registry = make_registry()
        registry.register("alpha", 1)
        with pytest.raises(DuplicateKeyError, match="widget 'alpha' is already"):
            registry.register("alpha", 2)

    def test_duplicate_key_same_object_is_idempotent(self):
        registry = make_registry()
        value = object()
        registry.register("alpha", value)
        registry.register("alpha", value)  # re-import: no error
        assert len(registry) == 1

    def test_duplicate_alias_raises(self):
        registry = make_registry()
        registry.register("alpha", 1, aliases=("a",))
        with pytest.raises(DuplicateKeyError, match="alias 'a'"):
            registry.register("beta", 2, aliases=("a",))

    def test_canonical_key_may_not_shadow_existing_alias(self):
        # A plugin registering "hsw" must not silently hijack haswell's alias.
        registry = make_registry()
        registry.register("haswell", 1, aliases=("hsw",))
        with pytest.raises(DuplicateKeyError, match="collides with an alias "
                                                    "of 'haswell'"):
            registry.register("hsw", 2)
        assert registry.resolve("hsw") == "haswell"

    def test_alias_may_not_shadow_existing_canonical_key(self):
        registry = make_registry()
        registry.register("alpha", 1)
        with pytest.raises(DuplicateKeyError, match="collides with the "
                                                    "registered widget 'alpha'"):
            registry.register("beta", 2, aliases=("alpha",))
        assert registry.get("alpha") == 1
        assert "beta" not in registry

    def test_unregister(self):
        registry = make_registry()
        registry.register("alpha", 1, aliases=("a",))
        registry.unregister("alpha")
        assert "alpha" not in registry
        assert "a" not in registry
        with pytest.raises(UnknownKeyError):  # not a raw KeyError
            registry.get("a")

    def test_rejected_duplicate_keeps_the_original_entry(self):
        registry = make_registry()
        registry.register("alpha", 1, aliases=("a",))
        with pytest.raises(DuplicateKeyError):
            registry.register("alpha", 2, aliases=("b",))
        assert registry.get("alpha") == 1
        assert registry.entry("alpha").aliases == ("a",)
        assert "b" not in registry

    def test_rejected_alias_collision_registers_nothing(self):
        # Every alias is checked before any state changes: a clash on the
        # second alias leaves neither the key nor the first alias behind.
        registry = make_registry()
        registry.register("alpha", 1, aliases=("a",))
        with pytest.raises(DuplicateKeyError, match="alias 'a'"):
            registry.register("beta", 2, aliases=("b", "a"))
        assert "beta" not in registry
        assert "b" not in registry
        assert registry.resolve("a") == "alpha"

    def test_unregister_then_register_swaps_the_entry(self):
        # The only way to put a different object under a taken key.
        registry = make_registry()
        registry.register("alpha", 1, aliases=("a",))
        registry.unregister("alpha")
        registry.register("alpha", 2, aliases=("a2",))
        assert registry.get("alpha") == 2
        assert registry.get("a2") == 2
        assert registry.entry("alpha").aliases == ("a2",)
        assert "a" not in registry


class TestUnknownKeyDiagnostics:
    def test_unknown_key_lists_known(self):
        registry = make_registry()
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(UnknownKeyError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "unknown widget 'gamma'" in message
        assert "alpha" in message and "beta" in message

    def test_unknown_key_suggests_close_match(self):
        registry = make_registry()
        registry.register("haswell", 1)
        with pytest.raises(UnknownKeyError, match="did you mean 'haswell'"):
            registry.get("hasswell")

    def test_suggestion_covers_aliases(self):
        registry = make_registry()
        registry.register("coordinate_descent", 1, aliases=("coordinate",))
        with pytest.raises(UnknownKeyError, match="did you mean"):
            registry.get("coordinat")

    def test_unknown_key_is_a_key_error(self):
        # Call sites written against plain dict lookups must keep working.
        registry = make_registry()
        with pytest.raises(KeyError):
            registry.get("anything")
        assert issubclass(UnknownKeyError, RegistryError)

    def test_empty_registry_message(self):
        registry = make_registry()
        with pytest.raises(UnknownKeyError, match="<none>"):
            registry.get("anything")


class FakeEntryPoint:
    """Duck-typed importlib.metadata.EntryPoint for plugin-loading tests."""

    def __init__(self, name, value):
        self.name = name
        self._value = value

    def load(self):
        return self._value


class TestEntryPointLoading:
    def test_loads_plain_values(self):
        registry = make_registry()
        added = registry.load_entry_points(
            entries=[FakeEntryPoint("gamma", 3), FakeEntryPoint("delta", 4)])
        assert sorted(added) == ["delta", "gamma"]
        assert registry.get("gamma") == 3
        assert registry.entry("gamma").source == "entry point 'gamma'"

    def test_register_hook_gets_the_registry(self):
        registry = make_registry()

        def register(target):
            target.register("hooked", 99, aliases=("h",))
            target.register("hooked2", 100)

        registry.load_entry_points(entries=[FakeEntryPoint("myplugin", register)])
        assert registry.get("hooked") == 99
        assert registry.get("h") == 99
        assert registry.get("hooked2") == 100

    def test_explicit_registry_hook_attribute(self):
        registry = make_registry()

        def install(target):
            target.register("flagged", 7)
        install.__registry_hook__ = True

        registry.load_entry_points(entries=[FakeEntryPoint("whatever", install)])
        assert registry.get("flagged") == 7

    def test_duplicate_from_entry_point_raises(self):
        registry = make_registry()
        registry.register("alpha", 1)
        with pytest.raises(DuplicateKeyError):
            registry.load_entry_points(entries=[FakeEntryPoint("alpha", 2)])

    def test_retried_scan_skips_completed_entry_points(self):
        # A partial failure must not re-run earlier plugins' hooks on retry.
        registry = make_registry()

        def register(target):
            target.register("hooked", object())  # fresh object per call

        class Broken:
            name = "broken"

            def load(self):
                raise ImportError("broken plugin")

        hook_entry = FakeEntryPoint("myplugin", register)
        with pytest.raises(ImportError, match="broken plugin"):
            registry.load_entry_points(entries=[hook_entry, Broken()])
        assert "hooked" in registry
        # Retry with the same list: the hook is skipped, not double-run.
        with pytest.raises(ImportError, match="broken plugin"):
            registry.load_entry_points(entries=[hook_entry, Broken()])

    def test_unknown_group_scan_is_empty(self):
        # A real metadata scan over a group nobody provides adds nothing.
        registry = make_registry()
        assert registry.load_entry_points(group="repro.tests.no_such_group") == []

    def test_group_scan_happens_lazily_once(self):
        calls = []

        class Probe(Registry):
            def load_entry_points(self, group=None, entries=None):
                calls.append(group or self.entry_point_group)
                return []

        registry = Probe("widget", entry_point_group="repro.tests.no_such_group")
        registry.register("alpha", 1)
        assert calls == []  # registration never triggers the scan
        registry.get("alpha")
        registry.names()
        assert calls == ["repro.tests.no_such_group"]  # first lookup only


class TestBootstrap:
    def test_failed_bootstrap_retries_and_resurfaces_the_error(self):
        attempts = []

        def flaky_bootstrap():
            attempts.append(len(attempts))
            if len(attempts) == 1:
                raise ImportError("transient plugin import failure")
            holder.register("late", 1)

        holder = make_registry(bootstrap=flaky_bootstrap)
        with pytest.raises(ImportError, match="transient"):
            holder.get("late")
        # The failure did not latch: the next lookup retries the bootstrap.
        assert holder.get("late") == 1
        assert attempts == [0, 1]

    def test_failed_entry_point_scan_retries(self):
        class Flaky(Registry):
            scans = 0

            def load_entry_points(self, group=None, entries=None):
                if entries is not None:
                    return super().load_entry_points(group, entries)
                type(self).scans += 1
                if type(self).scans == 1:
                    raise ImportError("broken entry point")
                return []

        registry = Flaky("widget", entry_point_group="repro.tests.flaky")
        registry.register("alpha", 1)
        with pytest.raises(ImportError, match="broken entry point"):
            registry.get("alpha")
        assert registry.get("alpha") == 1  # second lookup retried the scan
        assert Flaky.scans == 2

    def test_bootstrap_runs_once_before_first_lookup(self):
        calls = []
        holder = {}

        def bootstrap():
            calls.append("ran")
            holder["registry"].register("late", 42)

        registry = make_registry(bootstrap=bootstrap)
        holder["registry"] = registry
        assert calls == []
        assert registry.get("late") == 42
        registry.names()
        assert calls == ["ran"]

    def test_builtin_registries_are_populated(self):
        from repro.api import registries

        names = {kind: registry.names() for kind, registry in registries().items()}
        assert names["targets"] == ["haswell", "ivybridge", "skylake", "zen2"]
        assert names["simulators"] == ["llvm_sim", "mca"]
        assert names["surrogates"] == ["analytical", "ithemal", "pooled"]
        assert names["presets"] == ["fast", "paper", "test"]
        assert names["baselines"] == ["annealing", "coordinate_descent", "genetic",
                                      "iaca", "ithemal", "opentuner", "random_search"]

    def test_builtin_aliases_resolve(self):
        from repro.api import BASELINES, SIMULATORS, TARGETS

        assert TARGETS.resolve("hsw") == "haswell"
        assert TARGETS.resolve("Ivy Bridge") == "ivybridge"
        assert SIMULATORS.resolve("llvm-mca") == "mca"
        assert BASELINES.resolve("coordinate") == "coordinate_descent"

    def test_unregister_bootstraps_first(self):
        calls = []
        holder = {}

        def bootstrap():
            calls.append("ran")
            holder["registry"].register("builtin", 1)

        registry = make_registry(bootstrap=bootstrap)
        holder["registry"] = registry
        registry.unregister("builtin")  # first touch: bootstrap must run
        assert calls == ["ran"]
        assert "builtin" not in registry

    def test_get_uarch_routes_through_registry(self):
        from repro.targets import get_uarch

        assert get_uarch("haswell").name == "Haswell"
        with pytest.raises(KeyError, match="did you mean"):
            get_uarch("hasswell")
