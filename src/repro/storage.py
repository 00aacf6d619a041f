"""One persistence substrate for every file a later run reads back.

Checkpoints, manifests, corpora, featurization stores, reports, bundles and
tables are all written by :func:`atomic_write`: the payload goes to a
sibling temp file that is renamed over the target, so a reader sees the old
bytes or the new ones, never a torn file (there is no fsync: writes survive
the process dying, not a power loss).  The module also owns the canonical
JSON and in-memory ``.npz`` / ``.npy`` encodings, the single content digest
(blake2b, 16 bytes) behind every file digest and run fingerprint, the
rng-state JSON codec, and :class:`PinnedManifest`.  A file that cannot be
decoded raises :class:`CorruptArtifactError` naming it.  Only the standard
library and NumPy are imported, so every layer can use it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from typing import Any, Dict, Mapping, Optional

import numpy as np

DIGEST_SIZE = 16
MANIFEST_NAME = "manifest.json"
#: Version 2: blake2b fingerprints and a digest per stage artifact.
MANIFEST_VERSION = 2

_temp_ids = itertools.count()


class CorruptArtifactError(RuntimeError):
    """An on-disk artifact is missing, unreadable, or fails its digest."""


class CheckpointMismatchError(RuntimeError):
    """A checkpoint directory belongs to a different run configuration."""


def atomic_write(path: str, payload: bytes) -> None:
    """Replace the file at ``path`` by ``payload``, creating its directory.

    The temp file is unique per process and call (concurrent writers of one
    path never share it) and is removed if the write raises.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    temp_path = f"{path}.{os.getpid()}-{next(_temp_ids)}.tmp"
    try:
        with open(temp_path, "wb") as handle:
            handle.write(payload)
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp_path)
        raise


def encode_json(payload: Any) -> bytes:
    """The canonical JSON form: sorted keys, two-space indent, newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def decode_json(payload: bytes, source: str) -> Any:
    try:
        return json.loads(payload)
    except ValueError as error:
        raise CorruptArtifactError(
            f"{source} cannot be parsed as JSON ({error})") from error


def write_json(path: str, payload: Any) -> None:
    atomic_write(path, encode_json(payload))


def read_json(path: str) -> Any:
    with open(path, "rb") as handle:
        return decode_json(handle.read(), path)


def encode_arrays(arrays: Mapping[str, Any]) -> bytes:
    """A ``name -> array`` mapping as the bytes of a compressed ``.npz`` archive."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def encode_array(array: np.ndarray) -> bytes:
    """One array as the bytes of a (memory-mappable) ``.npy`` file."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def decode_arrays(payload: bytes, source: str) -> Dict[str, np.ndarray]:
    try:
        with np.load(io.BytesIO(payload)) as archive:
            return {key: archive[key] for key in archive.files}
    except Exception as error:  # damaged bytes raise BadZipFile, zlib.error, TokenError, ...
        raise CorruptArtifactError(f"{source} is not a readable .npz archive "
                                   f"({type(error).__name__}: {error})") from error


def read_arrays(path: str) -> Dict[str, np.ndarray]:
    with open(path, "rb") as handle:
        return decode_arrays(handle.read(), path)


def hasher() -> "hashlib._Hash":
    """An incremental hasher producing :func:`digest` values."""
    return hashlib.blake2b(digest_size=DIGEST_SIZE)


def digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).hexdigest()


def encode_rng_state(state: Any) -> Any:
    """A NumPy bit-generator state as JSON data (NumPy ints and arrays
    coerced, arrays tagged with their dtype)."""
    if isinstance(state, dict):
        return {key: encode_rng_state(value) for key, value in state.items()}
    if isinstance(state, np.integer):
        return int(state)
    if isinstance(state, np.ndarray):
        return {"__ndarray__": state.tolist(), "dtype": str(state.dtype)}
    return state


def decode_rng_state(state: Any) -> Any:
    if isinstance(state, dict):
        if "__ndarray__" in state:
            return np.array(state["__ndarray__"], dtype=state["dtype"])
        return {key: decode_rng_state(value) for key, value in state.items()}
    return state


class PinnedManifest:
    """``<directory>/manifest.json``: named entries pinned to a fingerprint.

    The fingerprint digests everything that determines a run's results, so
    a directory written under another one is never resumed into or
    overwritten.  ``entries`` holds one JSON payload per completed unit of
    work; ``owner`` names in errors what a different fingerprint belongs
    to.  Every change is saved atomically.
    """

    def __init__(self, directory: str, owner: str) -> None:
        self.directory = directory
        self._owner = owner
        self._manifest: Optional[Dict[str, Any]] = None

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def manifest(self) -> Dict[str, Any]:
        """The manifest, read and version-checked on first use."""
        if self._manifest is None:
            manifest = {"version": MANIFEST_VERSION, "fingerprint": None,
                        "entries": {}}
            if os.path.exists(self.manifest_path):
                manifest = read_json(self.manifest_path)
                version = manifest.get("version") if isinstance(manifest, dict) else None
                if version != MANIFEST_VERSION:
                    raise CheckpointMismatchError(
                        f"checkpoint directory {self.directory!r} has manifest "
                        f"version {version!r}, not {MANIFEST_VERSION}: another "
                        f"version of this package wrote it; delete it or choose "
                        f"another checkpoint directory")
            self._manifest = manifest
        return self._manifest

    @property
    def entries(self) -> Dict[str, Any]:
        return self.manifest()["entries"]

    def _write_manifest(self) -> None:
        write_json(self.manifest_path, self.manifest())

    def bind_fingerprint(self, fingerprint: str, resume: bool) -> None:
        """Pin the run fingerprint, or check it against the pinned one (a
        fresh run must not silently overwrite another run's directory)."""
        existing = self.manifest().get("fingerprint")
        if existing is None:
            self.manifest()["fingerprint"] = fingerprint
            self._write_manifest()
        elif existing != fingerprint:
            raise CheckpointMismatchError(
                f"refusing to {'resume' if resume else 'overwrite'} checkpoint "
                f"directory {self.directory!r}: it was written by a different "
                f"{self._owner} (fingerprint {existing} != {fingerprint}); "
                f"delete it or choose another checkpoint directory")

    def record(self, name: str, payload: Any) -> None:
        self.entries[name] = payload
        self._write_manifest()

    def reset(self) -> None:
        """Forget every entry, so a fresh run over this directory never
        mixes its work with a previous run's on a later resume."""
        if self.entries:
            self.manifest()["entries"] = {}
            self._write_manifest()
