"""The ``.npz`` codec of a learned parameter table.

The pipeline's :class:`~repro.pipeline.checkpoint.CheckpointStore` and
deployment bundles store parameter tables through these two in-memory
codecs; every file is written through :func:`repro.storage.atomic_write`.
Module weights travel as ``Module.state_dict()`` through
:func:`repro.storage.encode_arrays`.
"""

from __future__ import annotations

import numpy as np

from repro import storage


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
