"""On-disk checkpoint store for resumable tuning pipelines.

Layout of one checkpoint directory (one per tuning target)::

    <dir>/
      manifest.json                      # per-stage entries (rng states, file digests), fingerprint
      <stage_name>/
        *.npz                            # array artifacts (autodiff.serialization)
        *.json                          # scalar metadata

The manifest records, per completed stage, the NumPy bit-generator state of
the pipeline's random generator *after* the stage ran.  Restoring that state
when a completed stage is skipped on ``--resume`` is what makes a resumed run
bit-identical to an uninterrupted one: every later draw (initial table
sample, refinement-round sampling, shuffles) continues the exact same random
stream.  It also records the digest of every file the stage saved, and a
resumed stage's files are checked against them before decoding: a missing,
truncated or edited artifact raises :class:`~repro.storage.CorruptArtifactError`.

The manifest also pins a *fingerprint* of the run configuration and dataset.
Resuming against a checkpoint directory written by a different configuration
would silently mix incompatible artifacts, so a mismatch raises instead.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

import numpy as np

from repro import storage
from repro.autodiff.serialization import decode_parameter_arrays, encode_parameter_arrays
from repro.storage import CheckpointMismatchError, CorruptArtifactError

__all__ = ["CheckpointMismatchError", "CheckpointStore"]


class CheckpointStore(storage.PinnedManifest):
    """Per-stage artifact persistence with a completion manifest."""

    def __init__(self, directory: str) -> None:
        super().__init__(directory, owner="configuration/dataset")
        #: stage -> {filename: digest} of the files saved since the stage
        #: last completed; :meth:`mark_complete` records them.
        self._saved: Dict[str, Dict[str, str]] = {}

    # Bound in this class's own namespace so instrumentation wrapping the
    # store's methods sees every manifest write.
    _write_manifest = storage.PinnedManifest._write_manifest

    def completed_stages(self) -> List[str]:
        return list(self.entries)

    def is_complete(self, stage_name: str) -> bool:
        return stage_name in self.entries

    def mark_complete(self, stage_name: str, rng: np.random.Generator) -> None:
        """Record a stage as complete: its files' digests and the rng position."""
        self.record(stage_name, {
            "rng_state": storage.encode_rng_state(rng.bit_generator.state),
            "files": self._saved.pop(stage_name, {}),
        })

    def restore_rng(self, stage_name: str, rng: np.random.Generator) -> None:
        """Rewind ``rng`` to the stream position saved after ``stage_name``."""
        entry = self.entries.get(stage_name)
        if entry is None:
            raise KeyError(f"stage {stage_name!r} has no checkpoint entry")
        rng.bit_generator.state = storage.decode_rng_state(entry["rng_state"])

    def stage_dir(self, stage_name: str) -> str:
        return os.path.join(self.directory, stage_name)

    def artifact_path(self, stage_name: str, filename: str) -> str:
        return os.path.join(self.stage_dir(stage_name), filename)

    def _save(self, stage_name: str, filename: str, payload: bytes) -> str:
        path = self.artifact_path(stage_name, filename)
        storage.atomic_write(path, payload)
        self._saved.setdefault(stage_name, {})[filename] = storage.digest(payload)
        return path

    def _load(self, stage_name: str, filename: str) -> bytes:
        """A completed stage's file, checked against its recorded digest."""
        path = self.artifact_path(stage_name, filename)
        expected = self.entries.get(stage_name, {}).get("files", {}).get(filename)
        payload = None
        if os.path.exists(path):
            with open(path, "rb") as handle:
                payload = handle.read()
        if payload is None or storage.digest(payload) != expected:
            problem = "is missing" if payload is None else "fails its recorded digest"
            raise CorruptArtifactError(
                f"checkpoint directory {self.directory!r}: stage {stage_name!r} "
                f"file {filename!r} {problem}; delete the directory or re-run "
                f"without resuming")
        return payload

    def save_json(self, stage_name: str, filename: str, payload: Any) -> str:
        return self._save(stage_name, filename, storage.encode_json(payload))

    def load_json(self, stage_name: str, filename: str) -> Any:
        return storage.decode_json(self._load(stage_name, filename),
                                   self.artifact_path(stage_name, filename))

    def save_arrays(self, stage_name: str, filename: str,
                    arrays: Dict[str, np.ndarray]) -> str:
        return self._save(stage_name, filename, storage.encode_arrays(arrays))

    def load_arrays(self, stage_name: str, filename: str) -> Dict[str, np.ndarray]:
        return storage.decode_arrays(self._load(stage_name, filename),
                                     self.artifact_path(stage_name, filename))

    def save_parameter_arrays(self, stage_name: str, filename: str, arrays) -> str:
        return self._save(stage_name, filename, encode_parameter_arrays(arrays))

    def load_parameter_arrays(self, stage_name: str, filename: str):
        return decode_parameter_arrays(self._load(stage_name, filename),
                                       self.artifact_path(stage_name, filename))
