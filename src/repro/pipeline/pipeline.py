"""The fingerprint that pins a checkpoint directory to one tuning problem.

:meth:`DiffTune.learn <repro.core.difftune.DiffTune.learn>` binds its
checkpoint directory to :func:`run_fingerprint` before the first stage
runs, so a resumed run never restores artifacts of another adapter, config,
dataset or table sampler.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro import storage
from repro.core.parameters import ParameterSpec


def run_fingerprint(adapter: Any, config: Any, blocks: Sequence[Any],
                    true_timings: np.ndarray) -> str:
    """Digest identifying one (adapter, config, dataset) tuning problem.

    Checkpoints from one fingerprint must never be resumed into another run:
    stage artifacts encode sampled tables, surrogate weights, and rng stream
    positions that are only meaningful for the exact same problem.
    """
    digest = storage.hasher()
    digest.update(type(adapter).__name__.encode())
    uarch = getattr(adapter, "uarch", None)
    digest.update(getattr(uarch, "name", "").encode())
    learn_fields = getattr(adapter, "learn_fields", None)
    digest.update(repr(sorted(learn_fields) if learn_fields else None).encode())
    digest.update(repr(getattr(adapter, "narrow_sampling", None)).encode())
    digest.update(repr(config).encode())
    digest.update(f"sampler {ParameterSpec.SAMPLER_REVISION}".encode())
    digest.update(np.ascontiguousarray(
        np.asarray(true_timings, dtype=np.float64)).tobytes())
    if hasattr(blocks, "content_fingerprint"):
        # Corpus-backed sources carry a digest over their shard manifest;
        # hashing it avoids parsing every block just to fingerprint the run.
        digest.update(blocks.content_fingerprint().encode())
    else:
        for block in blocks:
            digest.update(repr(block.structural_key()).encode())
    return digest.hexdigest()[:16]
