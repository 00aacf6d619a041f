"""A generic string-keyed component registry.

This is the substrate of :mod:`repro.api`: one :class:`Registry` instance per
component kind (targets, simulators, surrogates, baselines, presets) maps
stable string keys to the objects implementing them.  The registry owns the
three concerns every keyed component system needs and that were previously
re-implemented ad hoc (or not at all) per subsystem:

* **registration** — :meth:`Registry.register` works both as a decorator and
  as a direct call, accepts aliases, is idempotent for re-imports, and raises
  :class:`DuplicateKeyError` when two *different* objects claim one key;
* **diagnostics** — :meth:`Registry.get` on an unknown key raises
  :class:`UnknownKeyError` (a :class:`KeyError` subclass, so existing
  ``except KeyError`` call sites keep working) listing the known keys and a
  did-you-mean suggestion from :mod:`difflib`;
* **extension** — :meth:`Registry.load_entry_points` discovers third-party
  plugins through :mod:`importlib.metadata` entry points, so external
  packages can add targets or simulators without touching this repository.

This module deliberately imports nothing from the rest of the package: it
must stay importable from any component module that self-registers at import
time without creating a cycle.
"""

from __future__ import annotations

import difflib
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)


class RegistryError(Exception):
    """Base class for registry failures."""


class DuplicateKeyError(RegistryError):
    """Two different objects claimed the same registry key."""


class UnknownKeyError(RegistryError, KeyError):
    """A lookup named a key no component registered.

    Subclasses :class:`KeyError` so call sites written against plain dict
    lookups (``except KeyError``) continue to work, but overrides ``__str__``
    — ``KeyError`` would repr-quote the whole diagnostic message.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


def _default_normalize(key: str) -> str:
    return key.strip().lower()


class RegistryEntry:
    """One registered component: its canonical key, value, and provenance."""

    __slots__ = ("key", "value", "aliases", "summary", "source")

    def __init__(self, key: str, value: Any, aliases: Tuple[str, ...],
                 summary: str, source: str) -> None:
        self.key = key
        self.value = value
        self.aliases = aliases
        self.summary = summary
        self.source = source

    def __repr__(self) -> str:
        return f"RegistryEntry({self.key!r}, {self.value!r}, source={self.source!r})"


_MISSING = object()


class Registry:
    """Name-keyed collection of components of one kind.

    Args:
        kind: Singular human-readable component kind (``"target"``,
            ``"simulator"``, ...) used in diagnostics.
        entry_point_group: Optional :mod:`importlib.metadata` entry-point
            group to scan for third-party plugins on first lookup
            (e.g. ``"repro.simulators"``).
        bootstrap: Optional zero-argument callable invoked once before the
            first lookup; used to import the in-tree modules that register
            the built-in components, so merely importing :mod:`repro.api`
            stays cheap.
        normalize: Key canonicalization applied to registration and lookup
            keys alike (default: strip + lowercase).
    """

    def __init__(self, kind: str, entry_point_group: Optional[str] = None,
                 bootstrap: Optional[Callable[[], None]] = None,
                 normalize: Callable[[str], str] = _default_normalize) -> None:
        self.kind = kind
        self.entry_point_group = entry_point_group
        self._bootstrap = bootstrap
        self._normalize = normalize
        self._entries: Dict[str, RegistryEntry] = {}
        self._aliases: Dict[str, str] = {}
        self._bootstrapped = bootstrap is None
        self._entry_points_loaded = entry_point_group is None
        #: Entry-point names already processed successfully, so a retried
        #: scan after a partial failure never re-runs a plugin's hook.
        self._completed_entry_points: set = set()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, key: str, value: Any = _MISSING, *,
                 aliases: Iterable[str] = (), summary: str = "",
                 source: str = "builtin") -> Any:
        """Register ``value`` under ``key``; usable directly or as a decorator.

        Direct call::

            TARGETS.register("haswell", HASWELL, aliases=("hsw",))

        Decorator (the decorated object is returned unchanged)::

            @SURROGATES.register("pooled")
            class PooledSurrogate: ...

        Re-registering the *same* object under the same key is a no-op, so a
        module that registers at import time can safely be imported twice.
        Registering a *different* object under a taken key, or a key or
        alias that collides with another entry's, raises
        :class:`DuplicateKeyError`.  Without a ``summary``, the entry takes
        the object's own string ``summary`` attribute (a plugin record's),
        else the first line of its docstring.
        """
        if value is _MISSING:
            def decorate(decorated: Any) -> Any:
                self.register(key, decorated, aliases=aliases, summary=summary,
                              source=source)
                return decorated
            return decorate

        canonical = self._normalize(key)
        existing = self._entries.get(canonical)
        if existing is not None:
            if existing.value is value:  # idempotent re-import
                return value
            raise DuplicateKeyError(
                f"{self.kind} {canonical!r} is already registered "
                f"(existing source: {existing.source}, new source: {source}); "
                f"{self.kind} keys must be unique")
        # A canonical key may not shadow another entry's alias: a plugin
        # registering target "hsw" must not silently hijack haswell's alias.
        alias_owner = self._aliases.get(canonical)
        if alias_owner is not None:
            raise DuplicateKeyError(
                f"{self.kind} key {canonical!r} collides with an alias of "
                f"{alias_owner!r}")
        if not summary and isinstance(getattr(value, "summary", None), str):
            summary = value.summary
        if not summary:
            doc = getattr(value, "__doc__", None) or ""
            summary = doc.strip().splitlines()[0] if doc.strip() else ""
        alias_keys = tuple(self._normalize(alias) for alias in aliases)
        for alias in alias_keys:
            if alias in self._entries and alias != canonical:
                # An alias shadowing a canonical key would never resolve.
                raise DuplicateKeyError(
                    f"alias {alias!r} for {self.kind} {canonical!r} collides "
                    f"with the registered {self.kind} {alias!r}")
            owner = self._aliases.get(alias)
            if owner is not None and owner != canonical:
                raise DuplicateKeyError(
                    f"alias {alias!r} for {self.kind} {canonical!r} is already "
                    f"an alias of {owner!r}")
        self._entries[canonical] = RegistryEntry(canonical, value, alias_keys,
                                                 summary, source)
        for alias in alias_keys:
            self._aliases[alias] = canonical
        return value

    def unregister(self, key: str) -> None:
        """Remove a key (tests and plugin teardown); unknown keys raise."""
        self._ensure_ready()
        canonical = self._resolve(self._normalize(key))
        entry = self._entries.pop(canonical)
        for alias in entry.aliases:
            self._aliases.pop(alias, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _ensure_ready(self) -> None:
        if not self._bootstrapped:
            # Flip the flag *first*: the bootstrap imports component modules,
            # and any registry lookup they perform at import time must not
            # re-enter the bootstrap.  On failure the flag is reset so the
            # next lookup retries and resurfaces the real error instead of
            # serving a silently half-initialized registry.
            self._bootstrapped = True
            try:
                self._bootstrap()
            except BaseException:
                self._bootstrapped = False
                raise
        if not self._entry_points_loaded:
            self._entry_points_loaded = True
            try:
                self.load_entry_points()
            except BaseException:
                self._entry_points_loaded = False
                raise

    def _resolve(self, canonical: str) -> str:
        if canonical in self._entries:
            return canonical
        if canonical in self._aliases:
            return self._aliases[canonical]
        known = sorted(self._entries)
        candidates = known + sorted(self._aliases)
        suggestions = difflib.get_close_matches(canonical, candidates, n=1)
        hint = f"; did you mean {suggestions[0]!r}?" if suggestions else ""
        raise UnknownKeyError(
            f"unknown {self.kind} {canonical!r}{hint} "
            f"(registered {self.kind}s: {', '.join(known) or '<none>'})")

    def resolve(self, key: str) -> str:
        """The canonical key ``key`` refers to (follows aliases)."""
        self._ensure_ready()
        return self._resolve(self._normalize(key))

    def get(self, key: str) -> Any:
        """The component registered under ``key`` (or one of its aliases)."""
        self._ensure_ready()
        return self._entries[self._resolve(self._normalize(key))].value

    def entry(self, key: str) -> RegistryEntry:
        """The full :class:`RegistryEntry` for ``key``."""
        self._ensure_ready()
        return self._entries[self._resolve(self._normalize(key))]

    def __contains__(self, key: str) -> bool:
        self._ensure_ready()
        canonical = self._normalize(key)
        return canonical in self._entries or canonical in self._aliases

    def __len__(self) -> int:
        self._ensure_ready()
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def names(self) -> List[str]:
        """Sorted canonical keys."""
        self._ensure_ready()
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, Any]]:
        """Sorted ``(key, value)`` pairs."""
        self._ensure_ready()
        return [(name, self._entries[name].value) for name in self.names()]

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data description of every entry (keys, aliases, summaries)."""
        self._ensure_ready()
        return {
            name: {
                "aliases": list(self._entries[name].aliases),
                "summary": self._entries[name].summary,
                "source": self._entries[name].source,
            }
            for name in self.names()
        }

    # ------------------------------------------------------------------
    # Plugin discovery
    # ------------------------------------------------------------------
    def load_entry_points(self, group: Optional[str] = None,
                          entries: Optional[Iterable[Any]] = None) -> List[str]:
        """Load third-party plugins from :mod:`importlib.metadata` entry points.

        Each entry point's ``load()`` result is handled in one of two ways:

        * a callable named ``register`` (or any callable explicitly exposing
          ``__registry_hook__ = True``) is invoked with this registry, letting
          a plugin register several components or aliases at once;
        * any other object is registered directly under the entry point's
          name.

        Args:
            group: Entry-point group to scan; defaults to the registry's
                configured ``entry_point_group``.
            entries: Explicit iterable of entry-point-like objects (anything
                with ``.name`` and ``.load()``); used by tests and by callers
                that already hold the entry points.  Skips the metadata scan.

        Returns:
            The canonical keys added by this call.
        """
        group = group or self.entry_point_group
        if entries is None:
            if group is None:
                return []
            from importlib import metadata

            entries = metadata.entry_points(group=group)
        added: List[str] = []
        before = set(self._entries)
        for entry_point in entries:
            name = getattr(entry_point, "name", None)
            if name is not None and name in self._completed_entry_points:
                # Already processed in an earlier (partially failed) scan;
                # re-running a register hook would double-register.
                continue
            loaded = entry_point.load()
            source = f"entry point {name!r}"
            is_hook = (callable(loaded)
                       and (getattr(loaded, "__name__", "") == "register"
                            or getattr(loaded, "__registry_hook__", False)))
            if is_hook:
                loaded(self)
            else:
                self.register(name, loaded, source=source)
            if name is not None:
                self._completed_entry_points.add(name)
        added.extend(sorted(set(self._entries) - before))
        return added

    def __repr__(self) -> str:
        ready = "+".join(filter(None, [
            "pending-bootstrap" if not self._bootstrapped else "",
            "pending-entry-points" if not self._entry_points_loaded else ""]))
        state = f", {ready}" if ready else ""
        return (f"Registry(kind={self.kind!r}, "
                f"entries={sorted(self._entries)}{state})")
