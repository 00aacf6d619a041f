"""Per-example surrogate forwards: the oracle for the batched ``forward_batch``.

Production code runs every surrogate through ``forward_batch`` on padded
minibatches.  The scalar forwards below take one
:class:`~repro.core.surrogate.FeaturizedBlock` and its unpadded inputs and
build the same math one instruction at a time, so the equivalence tests can
pin the batched path against an independent formulation within 1e-9.  Keep
their op order: changing it changes the rounding the contracts compare
against.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autodiff.tensor import Tensor, concat, maximum, stack
from repro.core.parameters import PORT_MAP_FIELD_NAME
from repro.core.surrogate import (AnalyticalSurrogate, FeaturizedBlock,
                                  IthemalSurrogate, PooledSurrogate)


def reference_forward(surrogate, featurized: FeaturizedBlock, per_instruction,
                      global_values) -> Tensor:
    """One block's scalar prediction, the per-example twin of ``forward_batch``.

    ``per_instruction`` is the block's ``(len(block), per_instruction_dim)``
    normalized parameter rows and ``global_values`` the ``(global_dim,)``
    normalized globals; either may be a NumPy array or a :class:`Tensor`
    that gradients flow into.
    """
    for kind, forward in ((IthemalSurrogate, _ithemal_forward),
                          (PooledSurrogate, _pooled_forward),
                          (AnalyticalSurrogate, _analytical_forward)):
        if isinstance(surrogate, kind):
            return forward(surrogate, featurized, surrogate._as_tensor(per_instruction),
                           surrogate._as_tensor(global_values))
    raise TypeError(f"no scalar reference for {type(surrogate).__name__}")


# ----------------------------------------------------------------------
# IthemalSurrogate
# ----------------------------------------------------------------------
def _ithemal_forward(surrogate, featurized: FeaturizedBlock, params: Tensor,
                     global_vector: Tensor) -> Tensor:
    instruction_vectors: List[Tensor] = []
    for position, token_ids in enumerate(featurized.token_ids):
        token_vectors = surrogate.token_embedding(list(token_ids))
        token_sequence = [token_vectors[index] for index in range(len(token_ids))]
        instruction_vector = surrogate.instruction_lstm(token_sequence)
        row = params[position]
        structure = Tensor(np.asarray(featurized.structural_features[position]))
        pieces = [instruction_vector, structure, row]
        if global_vector.size > 0:
            pieces.append(global_vector)
        instruction_vectors.append(concat(pieces))
    block_vector = surrogate.block_lstm(instruction_vectors)
    prediction = surrogate.head(block_vector)
    return prediction.softplus()[0]


# ----------------------------------------------------------------------
# PooledSurrogate
# ----------------------------------------------------------------------
def _pooled_structured_features(surrogate, featurized: FeaturizedBlock,
                                params: Tensor, global_vector: Tensor) -> Tensor:
    fields = surrogate._feature_names
    spec = surrogate.spec
    length = len(featurized.opcode_indices)
    consumers = np.array([feature[0] for feature in featurized.structural_features])
    loop_carried = np.array([feature[1] for feature in featurized.structural_features])
    memory_ops = np.array([feature[3] + feature[4]
                           for feature in featurized.structural_features])
    features: List[Tensor] = [Tensor(np.array([length / 16.0])),
                              Tensor(np.array([float(memory_ops.sum()) / 8.0]))]

    def column(name: str) -> Tensor:
        return params[:, spec.per_instruction_field_slice(name)]

    dispatch_term = None
    if fields["dispatch"]:
        dispatch_index = spec.global_field_slice("DispatchWidth").start
        dispatch_term = global_vector[dispatch_index] + 0.15
        features.append(dispatch_term.reshape(1))
    if fields["uops"]:
        total_uops = column("NumMicroOps").sum()
        features.append(total_uops.reshape(1) * 0.1)
        if dispatch_term is not None:
            features.append((total_uops / (dispatch_term * 9.0 + 1.0)).reshape(1))
        else:
            features.append(total_uops.reshape(1) * 0.1)
    if fields["latency"]:
        latency = column("WriteLatency").reshape(length)
        features.append(latency.sum().reshape(1) * 0.2)
        features.append((latency * Tensor(consumers)).sum().reshape(1) * 0.4)
        features.append((latency * Tensor(loop_carried)).sum().reshape(1) * 0.4)
        features.append(latency.mean().reshape(1))
    if fields["advance"]:
        advance = column("ReadAdvanceCycles").mean(axis=1).reshape(length)
        features.append((advance * Tensor(consumers)).sum().reshape(1) * 0.2)
    if fields["ports"]:
        port_totals = column("PortMap").sum(axis=0)
        features.append(port_totals * 0.3)
        features.append((port_totals * port_totals).sum().sqrt().reshape(1) * 0.3)
    if fields["rob"]:
        rob_index = spec.global_field_slice("ReorderBufferSize").start
        features.append(global_vector[rob_index].reshape(1))
    return concat(features)


def _pooled_forward(surrogate, featurized: FeaturizedBlock, params: Tensor,
                    global_vector: Tensor) -> Tensor:
    encodings: List[Tensor] = []
    for position, token_ids in enumerate(featurized.token_ids):
        token_vectors = surrogate.token_embedding(list(token_ids))
        pooled_tokens = token_vectors.mean(axis=0)
        row = params[position]
        structure = Tensor(np.asarray(featurized.structural_features[position]))
        pieces = [pooled_tokens, structure, row]
        if global_vector.size > 0:
            pieces.append(global_vector)
        encodings.append(surrogate.instruction_mlp(concat(pieces)))
    stacked = stack(encodings, axis=0)
    summed = stacked.sum(axis=0) * 0.25
    averaged = stacked.mean(axis=0)
    structured = _pooled_structured_features(surrogate, featurized, params,
                                             global_vector)
    block_vector = concat([structured, summed, averaged])
    prediction = surrogate.head(block_vector)
    return prediction.softplus()[0]


# ----------------------------------------------------------------------
# AnalyticalSurrogate
# ----------------------------------------------------------------------
def _denormalized_column(surrogate, params: Tensor, name: str) -> Tensor:
    """Column(s) of the per-instruction matrix, converted back to cycles."""
    field_ = surrogate.spec.field_by_name(name)
    column = params[:, surrogate.spec.per_instruction_field_slice(name)]
    return column * field_.scale + field_.lower_bound


def _denormalized_global(surrogate, global_vector: Tensor, name: str) -> Tensor:
    field_ = surrogate.spec.field_by_name(name)
    index = surrogate.spec.global_field_slice(name).start
    return global_vector[index] * field_.scale + field_.lower_bound


def _dispatch_bound(surrogate, params: Tensor, global_vector: Tensor,
                    length: int) -> Tensor:
    if surrogate._has["uops"]:
        total_uops = _denormalized_column(surrogate, params, "NumMicroOps").sum()
    elif surrogate._has["ports"]:
        total_uops = _denormalized_column(surrogate, params,
                                          PORT_MAP_FIELD_NAME).sum() + length
    else:
        total_uops = Tensor(float(length))
    if surrogate._has["dispatch"]:
        dispatch_width = _denormalized_global(surrogate, global_vector, "DispatchWidth")
        return total_uops / (dispatch_width + 1e-3)
    return total_uops * 0.25


def _port_bound(surrogate, params: Tensor) -> Tensor:
    port_cycles = _denormalized_column(surrogate, params, PORT_MAP_FIELD_NAME)
    totals = port_cycles.sum(axis=0) + 1e-4
    power = surrogate.SMOOTH_MAX_POWER
    return ((totals ** power).sum()) ** (1.0 / power)


def _chain_bound(surrogate, featurized: FeaturizedBlock, params: Tensor) -> Tensor:
    if not surrogate._has["latency"]:
        # Specs without a WriteLatency field contribute no chain bound.
        return Tensor(0.0)
    latency = _denormalized_column(surrogate, params, "WriteLatency").reshape(
        len(featurized.opcode_indices))
    if surrogate._has["advance"]:
        advance = _denormalized_column(surrogate, params, "ReadAdvanceCycles").mean(axis=1)
        effective = maximum(latency - advance, Tensor(np.zeros(latency.shape)))
    else:
        effective = latency
    finish: List[Tensor] = []
    zero = Tensor(0.0)
    for index in range(len(featurized.opcode_indices)):
        ready = zero
        for producer in featurized.dependency_producers[index]:
            ready = maximum(ready, finish[producer])
        finish.append(ready + effective[index])
    if not featurized.loop_carried_writers:
        return zero
    bound = zero
    for writer in featurized.loop_carried_writers:
        bound = maximum(bound, finish[writer])
    return bound


def _rob_bound(surrogate, params: Tensor, global_vector: Tensor, length: int) -> Tensor:
    if not (surrogate._has["uops"] and surrogate._has["rob"]):
        return Tensor(0.0)
    total_uops = _denormalized_column(surrogate, params, "NumMicroOps").sum()
    rob = _denormalized_global(surrogate, global_vector, "ReorderBufferSize")
    return total_uops * length / (rob * 8.0 + 1.0)


def _residual(surrogate, featurized: FeaturizedBlock) -> Tensor:
    encodings: List[Tensor] = []
    for position, token_ids in enumerate(featurized.token_ids):
        token_vectors = surrogate.token_embedding(list(token_ids))
        pooled_tokens = token_vectors.mean(axis=0)
        structure = Tensor(np.asarray(featurized.structural_features[position]))
        encodings.append(surrogate.instruction_mlp(concat([pooled_tokens, structure])))
    pooled = stack(encodings, axis=0).mean(axis=0)
    return surrogate.residual_head(pooled)[0]


def _analytical_forward(surrogate, featurized: FeaturizedBlock, params: Tensor,
                        global_vector: Tensor) -> Tensor:
    length = len(featurized.opcode_indices)
    weights = surrogate.bound_weights.exp()
    bounds = [
        _dispatch_bound(surrogate, params, global_vector, length) * weights[0],
        _chain_bound(surrogate, featurized, params) * weights[2],
        _rob_bound(surrogate, params, global_vector, length) * weights[3],
    ]
    if surrogate._has["ports"]:
        bounds.insert(1, _port_bound(surrogate, params) * weights[1])
    power = surrogate.SMOOTH_MAX_POWER
    combined = Tensor(1e-6)
    for bound in bounds:
        combined = combined + (bound + 1e-4) ** power
    smooth_max = combined ** (1.0 / power)
    residual = _residual(surrogate, featurized)
    scale = (surrogate.output_scale.exp())[0]
    prediction = smooth_max * scale + residual + surrogate.output_bias[0]
    return prediction.softplus()
