"""Deployment bundles: a tuned model frozen into one portable archive.

The whole value of a learned parameter table is cheap repeated prediction,
so the artifact that leaves a tuning run should not require the tuning
stack to use.  A *deployment bundle* is a single zip archive holding

* ``table_arrays.npz`` — the learned parameter table in optimization layout
  (:class:`~repro.core.parameters.ParameterArrays`), encoded by
  :mod:`repro.autodiff.serialization`;
* ``surrogate_state.npz`` — optionally, the trained surrogate's
  ``state_dict`` (same serialization);
* ``manifest.json`` — schema version, target/simulator identity, the
  :class:`~repro.api.specs.BundleSpec` it was exported from, the surrogate
  config needed to rebuild the weights, and a content digest for the table
  and for every archive member.

Every digest is verified on load: a corrupted or hand-edited bundle fails
with a :class:`BundleError` naming the offending field, and a bundle written
by a *newer* schema is rejected rather than misread.  The archive is written
atomically, so a failed export keeps the previous bundle at the path.  Consumers:

* :meth:`repro.api.Session.from_bundle` — a ready-to-predict session;
* :class:`repro.serving.InferenceServer` — the long-running serving layer;
* ``repro bundle {export,inspect}`` — the CLI.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro import storage

#: Bump when the archive layout changes incompatibly.  Readers accept any
#: version <= their own and reject newer ones with a clear error.
BUNDLE_SCHEMA_VERSION = 1

#: The ``kind`` stamp distinguishing our archives from arbitrary zips.
BUNDLE_KIND = "repro-deployment-bundle"

MANIFEST_MEMBER = "manifest.json"
TABLE_MEMBER = "table_arrays.npz"
SURROGATE_MEMBER = "surrogate_state.npz"


class BundleError(ValueError):
    """A bundle failed validation; ``field`` names the offending part."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass
class BundleManifest:
    """The typed contents of a bundle's ``manifest.json``."""

    target: str
    simulator: str
    table_digest: str
    schema_version: int = BUNDLE_SCHEMA_VERSION
    kind: str = BUNDLE_KIND
    #: ``repro.__version__`` of the exporting tool (informational).
    tool_version: str = ""
    #: The validated BundleSpec payload this bundle was exported from.
    spec: Dict[str, Any] = field(default_factory=dict)
    #: SurrogateConfig fields needed to rebuild the embedded weights
    #: (``None`` when the bundle ships no surrogate member).
    surrogate: Optional[Dict[str, Any]] = None
    #: member name -> :func:`repro.storage.digest` of the member's bytes.
    contents: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BundleManifest":
        if not isinstance(payload, dict):
            raise BundleError("manifest", f"expected a JSON object, "
                                          f"got {type(payload).__name__}")
        known = {manifest_field.name for manifest_field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise BundleError(unknown[0], "unknown manifest field")
        for required in ("target", "simulator", "table_digest"):
            if not isinstance(payload.get(required), str) or not payload.get(required):
                raise BundleError(required, "missing or not a string in manifest")
        manifest = cls(**payload)
        if manifest.kind != BUNDLE_KIND:
            raise BundleError("kind", f"not a deployment bundle: expected "
                                      f"{BUNDLE_KIND!r}, got {manifest.kind!r}")
        if not isinstance(manifest.schema_version, int) \
                or isinstance(manifest.schema_version, bool):
            raise BundleError("schema_version",
                              f"expected an int, got {manifest.schema_version!r}")
        if manifest.schema_version > BUNDLE_SCHEMA_VERSION:
            raise BundleError(
                "schema_version",
                f"bundle uses schema v{manifest.schema_version} but this "
                f"installation reads up to v{BUNDLE_SCHEMA_VERSION}; upgrade "
                f"the difftune-repro package to load it")
        if manifest.schema_version < 1:
            raise BundleError("schema_version",
                              f"must be >= 1, got {manifest.schema_version}")
        if TABLE_MEMBER not in manifest.contents:
            raise BundleError("contents", f"manifest lists no {TABLE_MEMBER!r} member")
        return manifest


@dataclass
class LoadedBundle:
    """A verified bundle: manifest plus deserialized payloads."""

    manifest: BundleManifest
    #: The learned table in optimization layout (ParameterArrays).
    arrays: Any
    #: Raw ``state_dict`` arrays of the surrogate member (``None`` if absent).
    surrogate_state: Optional[Dict[str, Any]] = None


def _table_digest_of(session: Any, table: Any) -> str:
    """Simulator-agnostic content digest of a native table.

    Computed over the optimization-layout arrays so one digest function
    covers every registered simulator; the bundle manifest records it and
    the inference server reports it as ``table_digest``.
    """
    from repro.engine.binding import parameter_arrays_digest

    return parameter_arrays_digest(session.adapter.arrays_from_table(table))


def export_bundle(session: Any, path: str, table: Optional[Any] = None,
                  surrogate: Optional[Any] = None) -> BundleManifest:
    """Freeze ``session``'s table (and optionally surrogate) into ``path``.

    ``table`` defaults to the session's resolved table (its ``table_path``,
    a bundle-bound table, or the expert default); ``surrogate`` defaults to
    the surrogate trained by the session's last :meth:`~Session.tune` call,
    when there was one.  Returns the written manifest.
    """
    import repro
    from repro.api.specs import BundleSpec
    from repro.autodiff.serialization import encode_parameter_arrays

    if table is None:
        table = session.load_table_or_default(
            getattr(session.spec, "table_path", None))
    elif isinstance(table, str):
        table = session.load_table(table)
    if surrogate is None:
        surrogate = getattr(session, "_last_surrogate", None)

    arrays = session.adapter.arrays_from_table(table)
    spec = BundleSpec(
        target=session.target_name,
        simulator=session.plugin.name,
        table_path=getattr(session.spec, "table_path", None),
        surrogate=None if surrogate is None else surrogate.config.kind,
        engine_workers=getattr(session.spec, "engine_workers", 0))
    spec.validate()

    members = {TABLE_MEMBER: encode_parameter_arrays(arrays)}
    surrogate_payload: Optional[Dict[str, Any]] = None
    if surrogate is not None:
        members[SURROGATE_MEMBER] = storage.encode_arrays(surrogate.state_dict())
        surrogate_payload = dataclasses.asdict(surrogate.config)

    manifest = BundleManifest(
        target=session.target_name,
        simulator=session.plugin.name,
        table_digest=_table_digest_of(session, table),
        tool_version=repro.__version__,
        spec=spec.to_dict(),
        surrogate=surrogate_payload,
        contents={name: storage.digest(payload)
                  for name, payload in members.items()})

    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        for name, payload in members.items():
            archive.writestr(name, payload)
        archive.writestr(MANIFEST_MEMBER,
                         json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    storage.atomic_write(path, buffer.getvalue())
    return manifest


def read_manifest(path: str) -> BundleManifest:
    """Parse and schema-check a bundle's manifest without loading payloads."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    if not zipfile.is_zipfile(path):
        raise BundleError("archive", f"{path} is not a zip archive")
    with zipfile.ZipFile(path) as archive:
        if MANIFEST_MEMBER not in archive.namelist():
            raise BundleError("manifest", f"{path} has no {MANIFEST_MEMBER}")
        try:
            payload = json.loads(archive.read(MANIFEST_MEMBER))
        except json.JSONDecodeError as error:
            raise BundleError("manifest", f"malformed JSON: {error}") from error
    return BundleManifest.from_dict(payload)


def load_bundle(path: str) -> LoadedBundle:
    """Open, digest-verify, and deserialize a bundle.

    Raises :class:`BundleError` naming the field when any member's bytes do
    not match the manifest digest, when the table content does not match
    ``table_digest``, or when the schema version is unsupported.
    """
    from repro.autodiff.serialization import decode_parameter_arrays
    from repro.engine.binding import parameter_arrays_digest

    manifest = read_manifest(path)
    with zipfile.ZipFile(path) as archive:
        names = set(archive.namelist())
        members: Dict[str, bytes] = {}
        for name, expected in manifest.contents.items():
            if name not in names:
                raise BundleError(f"contents[{name}]",
                                  "listed in the manifest but missing from the archive")
            payload = archive.read(name)
            actual = storage.digest(payload)
            if actual != expected:
                raise BundleError(
                    f"contents[{name}]",
                    f"digest mismatch: manifest says {expected}, archive "
                    f"member hashes to {actual} — the bundle is corrupted "
                    f"or was modified after export")
            members[name] = payload

    arrays = decode_parameter_arrays(members[TABLE_MEMBER],
                                     f"{path}:{TABLE_MEMBER}")
    surrogate_state: Optional[Dict[str, Any]] = None
    if SURROGATE_MEMBER in members:
        surrogate_state = storage.decode_arrays(members[SURROGATE_MEMBER],
                                                f"{path}:{SURROGATE_MEMBER}")

    actual_digest = parameter_arrays_digest(arrays)
    if actual_digest != manifest.table_digest:
        raise BundleError(
            "table_digest",
            f"manifest says {manifest.table_digest}, loaded table arrays "
            f"hash to {actual_digest} — table and manifest disagree")
    return LoadedBundle(manifest=manifest, arrays=arrays,
                        surrogate_state=surrogate_state)


def inspect_bundle(path: str) -> Dict[str, Any]:
    """Plain-data summary for ``repro bundle inspect`` (verifies digests)."""
    bundle = load_bundle(path)
    manifest = bundle.manifest
    return {
        "path": os.path.abspath(path),
        "kind": manifest.kind,
        "schema_version": manifest.schema_version,
        "tool_version": manifest.tool_version,
        "target": manifest.target,
        "simulator": manifest.simulator,
        "table_digest": manifest.table_digest,
        "has_surrogate": bundle.surrogate_state is not None,
        "surrogate": manifest.surrogate,
        "members": sorted(manifest.contents),
        "verified": True,
        "parameters": {
            "global_values": int(bundle.arrays.global_values.size),
            "per_instruction_values": list(bundle.arrays.per_instruction_values.shape),
        },
        "spec": manifest.spec,
    }
