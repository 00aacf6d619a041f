"""Saving and loading of training state: modules, optimizers, parameter arrays.

State is stored as compressed ``.npz`` archives so that trained surrogates,
optimizer moments, and learned parameter tables can be checkpointed between
(and now *within*) the optimization stages of DiffTune.  The pipeline layer
(:mod:`repro.pipeline`) and deployment bundles build their array files from
the in-memory encoders here; every file is written through
:func:`repro.storage.atomic_write`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import storage
from repro.autodiff.modules import Module
from repro.autodiff.optim import Optimizer


def encode_parameter_arrays(arrays) -> bytes:
    """A :class:`~repro.core.parameters.ParameterArrays` as ``.npz`` bytes.

    Duck-typed (anything with ``global_values`` / ``per_instruction_values``
    NumPy attributes) so this module stays free of an import cycle with
    :mod:`repro.core`.
    """
    return storage.encode_arrays({
        "global_values": np.asarray(arrays.global_values, dtype=np.float64),
        "per_instruction_values": np.asarray(arrays.per_instruction_values,
                                             dtype=np.float64),
    })


def decode_parameter_arrays(payload: bytes, source: str):
    """Inverse of :func:`encode_parameter_arrays` (``source`` names the bytes)."""
    from repro.core.parameters import ParameterArrays

    state = storage.decode_arrays(payload, source)
    missing = {"global_values", "per_instruction_values"} - set(state)
    if missing:
        raise KeyError(f"{source} is not a ParameterArrays archive; "
                       f"missing {sorted(missing)}")
    return ParameterArrays(global_values=state["global_values"],
                           per_instruction_values=state["per_instruction_values"])


def save_arrays(arrays: Dict[str, np.ndarray], path: str) -> None:
    """Serialize a flat ``name -> array`` mapping to ``path`` as an .npz archive."""
    storage.atomic_write(path, storage.encode_arrays(arrays))


def load_arrays(path: str) -> Dict[str, np.ndarray]:
    """Load a ``name -> array`` mapping saved by :func:`save_arrays`."""
    return storage.read_arrays(path)


def save_state_dict(module: Module, path: str) -> None:
    """Serialize ``module.state_dict()`` to ``path`` as an .npz archive."""
    save_arrays(module.state_dict(), path)


def load_state_dict(module: Module, path: str) -> Module:
    """Load an .npz archive produced by :func:`save_state_dict` into ``module``."""
    module.load_state_dict(load_arrays(path))
    return module


def save_optimizer_state(optimizer: Optimizer, path: str) -> None:
    """Serialize an optimizer's internal state (Adam moments, SGD velocity).

    The state is keyed by parameter *position*, so it round-trips into a
    fresh optimizer constructed over the same parameter list in the same
    order — the situation a resumed training stage is in.
    """
    save_arrays(optimizer.state_dict(), path)


def load_optimizer_state(optimizer: Optimizer, path: str) -> Optimizer:
    """Restore state saved by :func:`save_optimizer_state` into ``optimizer``."""
    optimizer.load_state_dict(load_arrays(path))
    return optimizer


def save_parameter_arrays(arrays, path: str) -> None:
    """Serialize a :class:`~repro.core.parameters.ParameterArrays` to .npz."""
    storage.atomic_write(path, encode_parameter_arrays(arrays))


def load_parameter_arrays(path: str):
    """Load a :class:`~repro.core.parameters.ParameterArrays` from .npz."""
    with open(path, "rb") as handle:
        return decode_parameter_arrays(handle.read(), path)
