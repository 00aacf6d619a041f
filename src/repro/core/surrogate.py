"""Differentiable surrogate models.

Three surrogates are provided:

* :class:`IthemalSurrogate` — the architecture from the paper (Figure 3): a
  token-embedding lookup table, a per-instruction stacked LSTM over each
  instruction's canonicalized tokens, concatenation of the per-instruction and
  global parameters onto each instruction vector, a block-level stacked LSTM
  over the instruction vectors, and a linear head producing the timing.
* :class:`PooledSurrogate` — a faster variant for CPU-budget experiments: the
  per-instruction token embeddings are mean-pooled instead of run through a
  token-level LSTM, each instruction is processed by a small MLP, and the
  block is summarized by sum/mean pooling before the prediction head.  It
  keeps the essential property DiffTune needs — differentiability with respect
  to the parameter inputs, with per-opcode resolution — at a fraction of the
  cost.
* :class:`AnalyticalSurrogate` — a learned smooth maximum of differentiable
  throughput and latency bound terms.

Every surrogate runs one minibatch at a time through ``forward_batch``:

* a :class:`PackedBlockBatch` of padded token ids, masks and structural
  features,
* a ``(B, I, per_instruction_dim)`` array of (normalized) parameter values
  for each block's opcodes,
* a ``(B, global_dim)`` array of (normalized) global parameter values,

and outputs a ``(B,)`` tensor of positive timing predictions.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registries import SURROGATES
from repro.autodiff import (Embedding, Linear, MLP, Module, StackedLSTM, Tensor)
from repro.autodiff.modules import Parameter
from repro.autodiff.tensor import (concat, masked_longest_path, masked_mean,
                                   masked_sum, maximum)
from repro.core.parameters import ParameterArrays, ParameterSpec, PORT_MAP_FIELD_NAME
from repro.isa.basic_block import BasicBlock
from repro.isa.canonicalize import TokenVocabulary, canonicalize_block
from repro.isa.opcodes import OpcodeTable


@dataclass
class SurrogateConfig:
    """Hyper-parameters of the surrogate.

    Attributes:
        kind: ``"ithemal"`` (paper architecture) or ``"pooled"`` (fast variant).
        embedding_size: Token embedding width.
        hidden_size: LSTM / MLP hidden width.
        num_lstm_layers: Stack depth of each LSTM (the paper uses 4).
        seed: Weight-initialization seed.
    """

    kind: str = "pooled"
    embedding_size: int = 32
    hidden_size: int = 64
    num_lstm_layers: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        # The SURROGATES registry (which this module populates at import
        # time) is the single source of truth for valid kinds, so
        # third-party surrogates registered via entry points validate too.
        if self.kind not in SURROGATES:
            raise ValueError(
                f"surrogate kind must be one of {SURROGATES.names()}, "
                f"got {self.kind!r}")


#: Width of the per-instruction structural feature vector produced by the
#: featurizer (dependency fan-out, loop-carried flag, source count, load and
#: store flags).  These features are parameter-independent, so they are
#: legitimate surrogate inputs: they describe the block, not the simulator.
NUM_STRUCTURAL_FEATURES = 5


@dataclass(frozen=True)
class FeaturizedBlock:
    """Pre-computed, surrogate-independent features of one basic block.

    Attributes:
        token_ids: Canonicalized token-id sequence per instruction.
        opcode_indices: Opcode-table index per instruction (used to gather
            rows of the per-instruction parameter table).
        structural_features: Dense per-instruction features (see
            :data:`NUM_STRUCTURAL_FEATURES`).
        dependency_producers: For each instruction, the indices of earlier
            instructions within the block that produce one of its register
            sources (its immediate dataflow predecessors).
        loop_carried_writers: Indices of the instructions that perform the
            final write to each loop-carried register — the tails of the
            chains that limit steady-state throughput.
    """

    token_ids: Tuple[Tuple[int, ...], ...]
    opcode_indices: Tuple[int, ...]
    structural_features: Tuple[Tuple[float, ...], ...]
    dependency_producers: Tuple[Tuple[int, ...], ...]
    loop_carried_writers: Tuple[int, ...]


class BlockFeaturizer:
    """Canonicalizes blocks once so surrogates can reuse the token streams."""

    def __init__(self, opcode_table: OpcodeTable,
                 vocabulary: Optional[TokenVocabulary] = None) -> None:
        self.opcode_table = opcode_table
        self.vocabulary = vocabulary or TokenVocabulary(opcode_table)
        self._cache: dict = {}

    @staticmethod
    def _structural_features(block: BasicBlock) -> Tuple[Tuple[float, ...], ...]:
        """Dependency-structure features per instruction.

        For each instruction: how many later instructions consume one of its
        results (scaled), whether it participates in a loop-carried register
        chain, how many register sources it reads (scaled), and whether it
        loads / stores.  These let the surrogate distinguish instructions on
        the critical dependency path from independent ones, which is where
        the WriteLatency parameters matter.
        """
        consumers = [0] * len(block)
        for producer, _consumer, _register in block.register_dependencies():
            consumers[producer] += 1
        loop_carried = block.loop_carried_registers()
        features = []
        for index, instruction in enumerate(block):
            writes_loop_carried = any(register in loop_carried
                                      for register in instruction.destination_registers())
            features.append((
                min(consumers[index], 4) / 4.0,
                1.0 if writes_loop_carried else 0.0,
                min(len(instruction.source_registers()), 3) / 3.0,
                1.0 if instruction.is_load else 0.0,
                1.0 if instruction.is_store else 0.0,
            ))
        return tuple(features)

    @staticmethod
    def _dependency_structure(block: BasicBlock) -> Tuple[Tuple[Tuple[int, ...], ...],
                                                          Tuple[int, ...]]:
        """Immediate dataflow predecessors and loop-carried chain tails."""
        producers: List[set] = [set() for _ in range(len(block))]
        for producer, consumer, _register in block.register_dependencies():
            producers[consumer].add(producer)
        last_writer = {}
        for index, instruction in enumerate(block):
            for register in instruction.destination_registers():
                last_writer[register] = index
        loop_carried = block.loop_carried_registers()
        writers = sorted({last_writer[register] for register in loop_carried
                          if register in last_writer})
        return (tuple(tuple(sorted(deps)) for deps in producers), tuple(writers))

    def featurize(self, block: BasicBlock) -> FeaturizedBlock:
        key = block.structural_key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        canonical = canonicalize_block(block, self.vocabulary)
        producers, loop_writers = self._dependency_structure(block)
        featurized = FeaturizedBlock(
            token_ids=tuple(instruction.token_ids for instruction in canonical),
            opcode_indices=tuple(instruction.opcode_index for instruction in canonical),
            structural_features=self._structural_features(block),
            dependency_producers=producers,
            loop_carried_writers=loop_writers,
        )
        self._cache[key] = featurized
        return featurized

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class PackedBlockBatch:
    """A minibatch of featurized blocks packed into padded, masked arrays.

    Every array is batch-major; ``I`` is the longest instruction count and
    ``T`` the longest per-instruction token count in the batch.  Padded slots
    carry zeros and are excluded from every reduction by the masks.

    Attributes:
        token_ids: ``(B, I, T)`` int64 canonical token ids (0-padded).
        token_mask: ``(B, I, T)`` 1.0 on real tokens, 0.0 on padding.
        opcode_indices: ``(B, I)`` int64 opcode-table rows (0-padded).
        instruction_mask: ``(B, I)`` 1.0 on real instructions.
        structural_features: ``(B, I, NUM_STRUCTURAL_FEATURES)`` float64.
        lengths: ``(B,)`` real instruction counts.
        dependency_mask: ``(B, I, I)``; ``[b, i, p] = 1`` when instruction
            ``p`` is an immediate dataflow producer of instruction ``i``.
        loop_carried_mask: ``(B, I)``; 1 on the final writers of loop-carried
            registers (the tails of the steady-state dependency chains).
    """

    token_ids: np.ndarray
    token_mask: np.ndarray
    opcode_indices: np.ndarray
    instruction_mask: np.ndarray
    structural_features: np.ndarray
    lengths: np.ndarray
    dependency_mask: np.ndarray
    loop_carried_mask: np.ndarray

    @property
    def batch_size(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def max_instructions(self) -> int:
        return int(self.token_ids.shape[1])

    @property
    def max_tokens(self) -> int:
        return int(self.token_ids.shape[2])


def featurized_block_digest(featurized: FeaturizedBlock) -> str:
    """Content digest of a featurized block (stable across processes).

    Every field of :class:`FeaturizedBlock` is a nested tuple of ints/floats,
    so ``repr`` is a canonical serialization; blake2b over it gives a key
    that identical block content maps to in any process — the property the
    on-disk featurization store and the LRU caches are keyed on.
    """
    payload = repr((featurized.token_ids, featurized.opcode_indices,
                    featurized.structural_features,
                    featurized.dependency_producers,
                    featurized.loop_carried_writers))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def table_digest(arrays: ParameterArrays) -> str:
    """Content digest of a sampled parameter table.

    Training never digests tables (:func:`batch_parameter_inputs` normalizes
    per minibatch), but ``perfbench/spans.py`` wraps this function by name
    to report ``featurize.digest_*``, and a traced benchmark run fails with
    ``AttributeError`` without it.
    """
    digest = hashlib.blake2b(digest_size=16)
    per = np.ascontiguousarray(arrays.per_instruction_values)
    global_values = np.ascontiguousarray(arrays.global_values)
    digest.update(repr(per.shape).encode())
    digest.update(per.tobytes())
    digest.update(global_values.tobytes())
    return digest.hexdigest()


def build_block_arrays(featurized: FeaturizedBlock) -> Dict[str, np.ndarray]:
    """Per-block packed arrays (unpadded) for one featurized block."""
    length = len(featurized.opcode_indices)
    max_tokens = max((len(ids) for ids in featurized.token_ids), default=1)
    token_ids = np.zeros((length, max_tokens), dtype=np.int64)
    token_mask = np.zeros((length, max_tokens), dtype=np.float64)
    for row, ids in enumerate(featurized.token_ids):
        token_ids[row, :len(ids)] = ids
        token_mask[row, :len(ids)] = 1.0
    dependency = np.zeros((length, length), dtype=np.float64)
    for consumer, producers in enumerate(featurized.dependency_producers):
        for producer in producers:
            dependency[consumer, producer] = 1.0
    loop_carried = np.zeros(length, dtype=np.float64)
    for writer in featurized.loop_carried_writers:
        loop_carried[writer] = 1.0
    return {
        "token_ids": token_ids,
        "token_mask": token_mask,
        "opcode_indices": np.asarray(featurized.opcode_indices, dtype=np.int64),
        "structural_features": np.asarray(featurized.structural_features,
                                          dtype=np.float64),
        "dependency_mask": dependency,
        "loop_carried_mask": loop_carried,
    }


def pack_block_arrays(per_block: Sequence[Dict[str, np.ndarray]]) -> PackedBlockBatch:
    """Pad a list of per-block array dicts into one :class:`PackedBlockBatch`.

    Accepts the dicts produced by :func:`build_block_arrays` — or memory-
    mapped views of them from the on-disk featurization store — so both the
    in-memory and the shard-streaming training paths share one packer.
    """
    if not per_block:
        raise ValueError("cannot pack an empty batch")
    batch = len(per_block)
    max_instructions = max(arrays["token_ids"].shape[0] for arrays in per_block)
    max_tokens = max(arrays["token_ids"].shape[1] for arrays in per_block)
    token_ids = np.zeros((batch, max_instructions, max_tokens), dtype=np.int64)
    token_mask = np.zeros((batch, max_instructions, max_tokens), dtype=np.float64)
    opcode_indices = np.zeros((batch, max_instructions), dtype=np.int64)
    instruction_mask = np.zeros((batch, max_instructions), dtype=np.float64)
    structural = np.zeros((batch, max_instructions, NUM_STRUCTURAL_FEATURES),
                          dtype=np.float64)
    lengths = np.zeros(batch, dtype=np.int64)
    dependency = np.zeros((batch, max_instructions, max_instructions),
                          dtype=np.float64)
    loop_carried = np.zeros((batch, max_instructions), dtype=np.float64)
    for row, arrays in enumerate(per_block):
        length, tokens = arrays["token_ids"].shape
        token_ids[row, :length, :tokens] = arrays["token_ids"]
        token_mask[row, :length, :tokens] = arrays["token_mask"]
        opcode_indices[row, :length] = arrays["opcode_indices"]
        instruction_mask[row, :length] = 1.0
        structural[row, :length] = arrays["structural_features"]
        lengths[row] = length
        dependency[row, :length, :length] = arrays["dependency_mask"]
        loop_carried[row, :length] = arrays["loop_carried_mask"]
    return PackedBlockBatch(
        token_ids=token_ids, token_mask=token_mask,
        opcode_indices=opcode_indices, instruction_mask=instruction_mask,
        structural_features=structural, lengths=lengths,
        dependency_mask=dependency, loop_carried_mask=loop_carried)


#: Process-wide featurization-cache counters, aggregated across every
#: :class:`FeaturizationCache` instance and surfaced by ``Session.stats()``.
_CACHE_COUNTERS: Dict[str, int] = {
    "block_hits": 0, "block_misses": 0, "block_evictions": 0,
}


def featurization_cache_stats() -> Dict[str, int]:
    """A snapshot of the process-wide per-block cache counters."""
    return dict(_CACHE_COUNTERS)


def batch_parameter_inputs(spec: ParameterSpec, packed: PackedBlockBatch,
                           tables: Sequence[ParameterArrays]
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized per-instruction and global parameter inputs for a batch.

    ``tables[b]`` is the raw sampled table of example ``b``.  Each example's
    rows for its block's opcodes are gathered into ``(B, I, D)`` and its
    globals into ``(B, G)``, and the gathered batch is normalized in one
    :meth:`ParameterSpec.normalize_for_surrogate_training` call: the same
    elementwise math as normalizing each whole table, so real slots are
    bit-identical to it.  Padded instruction slots are zero.
    """
    if len(tables) != packed.batch_size:
        raise ValueError(f"got {len(tables)} tables for a batch of "
                         f"{packed.batch_size} blocks; they must be aligned")
    raw = ParameterArrays(
        global_values=np.stack([table.global_values for table in tables]),
        per_instruction_values=np.stack([
            table.per_instruction_values[opcodes]
            for table, opcodes in zip(tables, packed.opcode_indices)]))
    normalized = spec.normalize_for_surrogate_training(raw)
    per_instruction = normalized.per_instruction_values
    per_instruction[packed.instruction_mask == 0] = 0.0
    return per_instruction, normalized.global_values


class FeaturizationCache:
    """Featurizes each basic block once and packs minibatches.

    Wraps a :class:`BlockFeaturizer` with a bounded LRU of per-block packed
    arrays (token-id matrix, masks, structural features, dependency masks),
    keyed by *content digest* (not object identity), so equal content hits
    whichever object carries it and corpus-scale runs stream millions of
    blocks through a footprint of ``max_blocks`` entries.  Hit, miss and
    eviction counters aggregate process-wide
    (:func:`featurization_cache_stats`).

    Training loops call :meth:`resolve` once before their first minibatch
    and :meth:`pack` per minibatch, so no digest runs inside the loop.
    Parameter inputs are not cached: :func:`batch_parameter_inputs`
    normalizes each minibatch's gathered rows.
    """

    def __init__(self, featurizer: BlockFeaturizer, max_blocks: int = 65536) -> None:
        if max_blocks <= 0:
            raise ValueError(f"max_blocks must be positive, got {max_blocks}")
        self.featurizer = featurizer
        self.max_blocks = max_blocks
        self._block_arrays: "OrderedDict[str, Dict[str, np.ndarray]]" = OrderedDict()

    def featurize(self, block: BasicBlock) -> FeaturizedBlock:
        return self.featurizer.featurize(block)

    def arrays_for(self, featurized: FeaturizedBlock) -> Dict[str, np.ndarray]:
        """Per-block packed arrays (unpadded), memoized by content digest."""
        key = featurized_block_digest(featurized)
        cached = self._block_arrays.get(key)
        if cached is not None:
            _CACHE_COUNTERS["block_hits"] += 1
            self._block_arrays.move_to_end(key)
            return cached
        _CACHE_COUNTERS["block_misses"] += 1
        arrays = build_block_arrays(featurized)
        self._block_arrays[key] = arrays
        while len(self._block_arrays) > self.max_blocks:
            self._block_arrays.popitem(last=False)
            _CACHE_COUNTERS["block_evictions"] += 1
        return arrays

    def resolve(self, featurized_blocks: Sequence[FeaturizedBlock]
                ) -> List[Dict[str, np.ndarray]]:
        """Per-block arrays for every entry, in order.

        Entries that are the same object (the featurizer returns one object
        per distinct block) share one :meth:`arrays_for` lookup.
        """
        by_identity: Dict[int, Dict[str, np.ndarray]] = {}
        resolved = []
        for featurized in featurized_blocks:
            arrays = by_identity.get(id(featurized))
            if arrays is None:
                arrays = by_identity[id(featurized)] = self.arrays_for(featurized)
            resolved.append(arrays)
        return resolved

    @staticmethod
    def pack(block_arrays: Sequence[Dict[str, np.ndarray]]) -> PackedBlockBatch:
        """Pad resolved per-block arrays into one :class:`PackedBlockBatch`.

        Every training path packs through here, so :func:`pack_block_arrays`
        is looked up in this module, where ``perfbench/spans.py`` wraps it.
        """
        return pack_block_arrays(block_arrays)


class _SurrogateBase(Module):
    """Shared plumbing for the surrogate variants."""

    def __init__(self, spec: ParameterSpec, featurizer: BlockFeaturizer,
                 config: SurrogateConfig) -> None:
        super().__init__()
        self.spec = spec
        self.featurizer = featurizer
        self.config = config

    def forward_batch(self, batch: PackedBlockBatch, per_instruction_params,
                      global_params) -> Tensor:
        """Batch-major forward: one ``(B,)`` prediction tensor per minibatch.

        ``per_instruction_params`` is ``(B, I, per_instruction_dim)`` and
        ``global_params`` is ``(B, global_dim)`` (both already normalized and
        gathered per block, e.g. by :func:`batch_parameter_inputs`).
        It is the only forward: both training phases, the Ithemal baseline
        and the Figure-2 sweep run on it, and :func:`build_surrogate`
        rejects classes that do not override it.  The equivalence tests pin
        it within 1e-9 to per-example reference forwards kept in
        ``tests/surrogate_reference.py``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward_batch")

    def _broadcast_global(self, global_vector: Tensor,
                          batch: PackedBlockBatch) -> Tensor:
        """``(B, G)`` globals replicated along the instruction axis: ``(B, I, G)``."""
        batch_size, global_dim = global_vector.shape
        return global_vector.reshape(batch_size, 1, global_dim).broadcast_to(
            (batch_size, batch.max_instructions, global_dim))

    # The per-instruction parameter matrix and global vector may be plain
    # NumPy arrays (surrogate training: parameters are constants) or autodiff
    # Tensors (parameter-table training: gradients must flow into them).
    @staticmethod
    def _as_tensor(value) -> Tensor:
        return value if isinstance(value, Tensor) else Tensor(value)


class IthemalSurrogate(_SurrogateBase):
    """The paper's surrogate: modified Ithemal with parameter inputs (Figure 3)."""

    def __init__(self, spec: ParameterSpec, featurizer: BlockFeaturizer,
                 config: SurrogateConfig) -> None:
        super().__init__(spec, featurizer, config)
        rng = np.random.default_rng(config.seed)
        self.token_embedding = Embedding(featurizer.vocabulary_size, config.embedding_size,
                                         rng=rng)
        self.instruction_lstm = StackedLSTM(config.embedding_size, config.hidden_size,
                                            num_layers=config.num_lstm_layers, rng=rng)
        block_input_size = (config.hidden_size + NUM_STRUCTURAL_FEATURES
                            + spec.per_instruction_dim + spec.global_dim)
        self.block_lstm = StackedLSTM(block_input_size, config.hidden_size,
                                      num_layers=config.num_lstm_layers, rng=rng)
        self.head = Linear(config.hidden_size, 1, rng=rng)

    def forward_batch(self, batch: PackedBlockBatch, per_instruction_params,
                      global_params) -> Tensor:
        params = self._as_tensor(per_instruction_params)
        global_vector = self._as_tensor(global_params)
        batch_size = batch.batch_size
        max_instructions = batch.max_instructions
        max_tokens = batch.max_tokens
        # Token level: every (block, instruction) slot becomes one row of a
        # (B*I)-wide LSTM batch; fully padded slots stay at the zero initial
        # state because all their steps are masked.
        flat_ids = batch.token_ids.reshape(batch_size * max_instructions, max_tokens)
        flat_token_mask = batch.token_mask.reshape(
            batch_size * max_instructions, max_tokens)
        token_steps = [self.token_embedding(flat_ids[:, position])
                       for position in range(max_tokens)]
        instruction_vectors = self.instruction_lstm.forward_batch(
            token_steps, flat_token_mask.T)
        instruction_vectors = instruction_vectors.reshape(
            batch_size, max_instructions, self.config.hidden_size)
        pieces = [instruction_vectors, Tensor(batch.structural_features), params]
        if global_vector.shape[-1] > 0:
            pieces.append(self._broadcast_global(global_vector, batch))
        block_inputs = concat(pieces, axis=-1)
        block_steps = [block_inputs[:, position, :]
                       for position in range(max_instructions)]
        block_vector = self.block_lstm.forward_batch(
            block_steps, batch.instruction_mask.T)
        prediction = self.head(block_vector)
        # Softplus keeps the prediction positive, which stabilizes the MAPE
        # losses used during both optimization phases.
        return prediction.softplus().reshape(batch_size)


class PooledSurrogate(_SurrogateBase):
    """Fast surrogate: structured parameter features + pooled learned encodings.

    The paper's surrogate is a large stacked-LSTM model trained on millions of
    simulated examples; at that scale it learns the simulator's sensitivity to
    every parameter from data alone.  At this reproduction's CPU scale a free-
    form network mostly explains timing variance with block structure and
    under-uses the parameter inputs, which starves the phase-2 optimization of
    useful gradients.  This surrogate therefore exposes the parameter
    dependence explicitly through *structured features* — differentiable
    throughput/latency bound terms computed from the parameter inputs (total
    micro-ops over dispatch width, per-port occupancy totals, dependency-chain
    latency sums, reorder-buffer pressure) — alongside a learned pooled
    encoding of the block.  Everything remains end-to-end differentiable with
    respect to the parameters, which is all DiffTune requires.
    """

    def __init__(self, spec: ParameterSpec, featurizer: BlockFeaturizer,
                 config: SurrogateConfig) -> None:
        super().__init__(spec, featurizer, config)
        rng = np.random.default_rng(config.seed)
        self.token_embedding = Embedding(featurizer.vocabulary_size, config.embedding_size,
                                         rng=rng)
        instruction_input = (config.embedding_size + NUM_STRUCTURAL_FEATURES
                             + spec.per_instruction_dim + spec.global_dim)
        self.instruction_mlp = MLP([instruction_input, config.hidden_size, config.hidden_size],
                                   rng=rng)
        self._feature_names = self._available_fields()
        num_structured = self._num_structured_features()
        # The block is summarized by the structured bound features plus the
        # sum and mean of its learned instruction encodings.
        self.head = MLP([num_structured + 2 * config.hidden_size, config.hidden_size, 1],
                        rng=rng)

    # ------------------------------------------------------------------
    # Structured parameter features
    # ------------------------------------------------------------------
    def _available_fields(self) -> dict:
        """Which well-known fields exist in this spec (MCA vs llvm_sim)."""
        per_names = {field_.name for field_ in self.spec.per_instruction_fields}
        global_names = {field_.name for field_ in self.spec.global_fields}
        return {
            "latency": "WriteLatency" in per_names,
            "uops": "NumMicroOps" in per_names,
            "ports": "PortMap" in per_names,
            "advance": "ReadAdvanceCycles" in per_names,
            "dispatch": "DispatchWidth" in global_names,
            "rob": "ReorderBufferSize" in global_names,
        }

    def _num_structured_features(self) -> int:
        fields = self._feature_names
        count = 2  # block length, total instruction count with memory ops
        if fields["uops"]:
            count += 2  # total uops, uops / dispatch (or raw total if no dispatch)
        if fields["latency"]:
            count += 4  # total, chain-weighted, loop-carried-weighted, mean
        if fields["ports"]:
            count += 11  # per-port totals + overall max proxy
        if fields["advance"]:
            count += 1
        if fields["rob"]:
            count += 1
        if fields["dispatch"]:
            count += 1
        return count

    def _structured_features_batch(self, batch: PackedBlockBatch, params: Tensor,
                                   global_vector: Tensor) -> Tensor:
        """The structured bound features of every block: ``(B, K)``."""
        fields = self._feature_names
        spec = self.spec
        instruction_mask = batch.instruction_mask
        row_mask = instruction_mask[..., None]
        consumers = batch.structural_features[:, :, 0]
        loop_carried = batch.structural_features[:, :, 1]
        memory_ops = batch.structural_features[:, :, 3] + batch.structural_features[:, :, 4]
        batch_size = batch.batch_size
        features: List[Tensor] = [
            Tensor(batch.lengths[:, None].astype(np.float64) / 16.0),
            Tensor(memory_ops.sum(axis=1)[:, None] / 8.0),
        ]

        def column(name: str) -> Tensor:
            return params[:, :, spec.per_instruction_field_slice(name)]

        dispatch_term = None
        if fields["dispatch"]:
            dispatch_index = spec.global_field_slice("DispatchWidth").start
            dispatch_term = global_vector[:, dispatch_index] + 0.15
            features.append(dispatch_term.reshape(batch_size, 1))
        if fields["uops"]:
            total_uops = masked_sum(column("NumMicroOps"), row_mask, axis=(1, 2))
            features.append(total_uops.reshape(batch_size, 1) * 0.1)
            if dispatch_term is not None:
                features.append(
                    (total_uops / (dispatch_term * 9.0 + 1.0)).reshape(batch_size, 1))
            else:
                features.append(total_uops.reshape(batch_size, 1) * 0.1)
        if fields["latency"]:
            latency = column("WriteLatency").reshape(batch_size, batch.max_instructions)
            features.append(
                masked_sum(latency, instruction_mask, axis=1).reshape(batch_size, 1) * 0.2)
            features.append(masked_sum(latency * Tensor(consumers), instruction_mask,
                                       axis=1).reshape(batch_size, 1) * 0.4)
            features.append(masked_sum(latency * Tensor(loop_carried), instruction_mask,
                                       axis=1).reshape(batch_size, 1) * 0.4)
            features.append(
                masked_mean(latency, instruction_mask, axis=1).reshape(batch_size, 1))
        if fields["advance"]:
            advance = column("ReadAdvanceCycles").mean(axis=-1)
            features.append(masked_sum(advance * Tensor(consumers), instruction_mask,
                                       axis=1).reshape(batch_size, 1) * 0.2)
        if fields["ports"]:
            port_totals = masked_sum(column(PORT_MAP_FIELD_NAME), row_mask, axis=1)
            features.append(port_totals * 0.3)
            features.append((port_totals * port_totals).sum(axis=-1).sqrt()
                            .reshape(batch_size, 1) * 0.3)
        if fields["rob"]:
            rob_index = spec.global_field_slice("ReorderBufferSize").start
            features.append(global_vector[:, rob_index].reshape(batch_size, 1))
        return concat(features, axis=-1)

    def forward_batch(self, batch: PackedBlockBatch, per_instruction_params,
                      global_params) -> Tensor:
        params = self._as_tensor(per_instruction_params)
        global_vector = self._as_tensor(global_params)
        batch_size = batch.batch_size
        embeddings = self.token_embedding(batch.token_ids)
        pooled_tokens = masked_mean(embeddings, batch.token_mask[..., None], axis=2)
        pieces = [pooled_tokens, Tensor(batch.structural_features), params]
        if global_vector.shape[-1] > 0:
            pieces.append(self._broadcast_global(global_vector, batch))
        encodings = self.instruction_mlp(concat(pieces, axis=-1))
        instruction_mask = batch.instruction_mask[..., None]
        summed = masked_sum(encodings, instruction_mask, axis=1) * 0.25
        averaged = masked_mean(encodings, instruction_mask, axis=1)
        structured = self._structured_features_batch(batch, params, global_vector)
        block_vector = concat([structured, summed, averaged], axis=-1)
        prediction = self.head(block_vector)
        return prediction.softplus().reshape(batch_size)


class AnalyticalSurrogate(_SurrogateBase):
    """Structured differentiable surrogate: learned smooth-max of bound terms.

    At the paper's scale a free-form stacked-LSTM surrogate learns the
    simulator's parameter sensitivity purely from millions of simulated
    examples.  At CPU scale that sensitivity has to come from the surrogate's
    structure instead.  This surrogate computes, as a differentiable function
    of the parameter inputs, the same bound terms an out-of-order basic-block
    simulator's timing is composed of:

    * a **dispatch bound** — total micro-ops over the dispatch width;
    * a **port bound** — a smooth maximum of per-port occupancy totals;
    * a **dependency-chain bound** — a dataflow traversal of the block's
      register-dependency DAG with the WriteLatency (less ReadAdvance) of each
      producer, taking the loop-carried chains as the steady-state cost;
    * a **reorder-buffer pressure** term.

    The combination weights of the bounds, a global calibration, and a learned
    per-block residual (from pooled token embeddings and structural features)
    are trained on the simulated dataset, exactly like any other surrogate.
    Gradients with respect to every parameter flow through the bound terms, so
    phase-2 table optimization receives well-shaped gradients even at small
    simulated-dataset sizes.
    """

    #: Exponent of the power-mean used as a smooth maximum over bound terms.
    SMOOTH_MAX_POWER = 6.0

    def __init__(self, spec: ParameterSpec, featurizer: BlockFeaturizer,
                 config: SurrogateConfig) -> None:
        super().__init__(spec, featurizer, config)
        rng = np.random.default_rng(config.seed)
        per_names = {field_.name for field_ in spec.per_instruction_fields}
        global_names = {field_.name for field_ in spec.global_fields}
        self._has = {
            "latency": "WriteLatency" in per_names,
            "uops": "NumMicroOps" in per_names,
            "ports": "PortMap" in per_names,
            "advance": "ReadAdvanceCycles" in per_names,
            "dispatch": "DispatchWidth" in global_names,
            "rob": "ReorderBufferSize" in global_names,
        }
        # Learned calibration: log-scale weights for each bound term and the
        # residual network over block structure.
        self.bound_weights = Parameter(np.zeros(4), name="bound_weights")
        self.output_scale = Parameter(np.zeros(1), name="output_scale")
        self.output_bias = Parameter(np.zeros(1), name="output_bias")
        self.token_embedding = Embedding(featurizer.vocabulary_size, config.embedding_size,
                                         rng=rng)
        # The residual network sees only the block (token embeddings and
        # structural features), NOT the parameters: every parameter gradient
        # therefore flows through the analytically shaped bound terms, which
        # is what keeps phase-2 optimization well conditioned at small scale.
        residual_input = config.embedding_size + NUM_STRUCTURAL_FEATURES
        self.instruction_mlp = MLP([residual_input, config.hidden_size, config.hidden_size],
                                   rng=rng)
        self.residual_head = MLP([config.hidden_size, config.hidden_size, 1], rng=rng)

    def _denormalized_column_batch(self, params: Tensor, name: str) -> Tensor:
        field_ = self.spec.field_by_name(name)
        column = params[:, :, self.spec.per_instruction_field_slice(name)]
        return column * field_.scale + field_.lower_bound

    def _denormalized_global_batch(self, global_vector: Tensor, name: str) -> Tensor:
        field_ = self.spec.field_by_name(name)
        index = self.spec.global_field_slice(name).start
        return global_vector[:, index] * field_.scale + field_.lower_bound

    def _dispatch_bound_batch(self, batch: PackedBlockBatch, params: Tensor,
                              global_vector: Tensor) -> Tensor:
        row_mask = batch.instruction_mask[..., None]
        lengths = batch.lengths.astype(np.float64)
        if self._has["uops"]:
            total_uops = masked_sum(self._denormalized_column_batch(params, "NumMicroOps"),
                                    row_mask, axis=(1, 2))
        elif self._has["ports"]:
            total_uops = masked_sum(
                self._denormalized_column_batch(params, PORT_MAP_FIELD_NAME),
                row_mask, axis=(1, 2)) + Tensor(lengths)
        else:
            total_uops = Tensor(lengths)
        if self._has["dispatch"]:
            dispatch_width = self._denormalized_global_batch(global_vector, "DispatchWidth")
            return total_uops / (dispatch_width + 1e-3)
        return total_uops * 0.25

    def _port_bound_batch(self, batch: PackedBlockBatch, params: Tensor) -> Tensor:
        port_cycles = self._denormalized_column_batch(params, PORT_MAP_FIELD_NAME)
        totals = masked_sum(port_cycles, batch.instruction_mask[..., None], axis=1) + 1e-4
        power = self.SMOOTH_MAX_POWER
        return ((totals ** power).sum(axis=-1)) ** (1.0 / power)

    def _chain_bound_batch(self, batch: PackedBlockBatch, params: Tensor) -> Tensor:
        batch_size = batch.batch_size
        if not self._has["latency"]:
            # Specs without a WriteLatency field (e.g. custom simulators whose
            # latency is a global parameter) contribute no chain bound; their
            # latency dependence is carried by the other bound terms.
            return Tensor(np.zeros(batch_size))
        latency = self._denormalized_column_batch(params, "WriteLatency").reshape(
            batch_size, batch.max_instructions)
        if self._has["advance"]:
            advance = self._denormalized_column_batch(
                params, "ReadAdvanceCycles").mean(axis=-1)
            effective = maximum(latency - advance, Tensor(np.zeros(latency.shape)))
        else:
            effective = latency
        # A dataflow traversal over the whole batch as one tape node: each
        # instruction finishes when its latest producer has, and the
        # loop-carried writers bound the block.
        return masked_longest_path(effective, batch.dependency_mask,
                                   batch.loop_carried_mask)

    def _rob_bound_batch(self, batch: PackedBlockBatch, params: Tensor,
                         global_vector: Tensor) -> Tensor:
        if not (self._has["uops"] and self._has["rob"]):
            return Tensor(np.zeros(batch.batch_size))
        total_uops = masked_sum(self._denormalized_column_batch(params, "NumMicroOps"),
                                batch.instruction_mask[..., None], axis=(1, 2))
        rob = self._denormalized_global_batch(global_vector, "ReorderBufferSize")
        return total_uops * Tensor(batch.lengths.astype(np.float64)) / (rob * 8.0 + 1.0)

    def _residual_batch(self, batch: PackedBlockBatch) -> Tensor:
        embeddings = self.token_embedding(batch.token_ids)
        pooled_tokens = masked_mean(embeddings, batch.token_mask[..., None], axis=2)
        encodings = self.instruction_mlp(
            concat([pooled_tokens, Tensor(batch.structural_features)], axis=-1))
        pooled = masked_mean(encodings, batch.instruction_mask[..., None], axis=1)
        return self.residual_head(pooled).reshape(batch.batch_size)

    def forward_batch(self, batch: PackedBlockBatch, per_instruction_params,
                      global_params) -> Tensor:
        params = self._as_tensor(per_instruction_params)
        global_vector = self._as_tensor(global_params)
        weights = self.bound_weights.exp()
        bounds = [
            self._dispatch_bound_batch(batch, params, global_vector) * weights[0],
            self._chain_bound_batch(batch, params) * weights[2],
            self._rob_bound_batch(batch, params, global_vector) * weights[3],
        ]
        if self._has["ports"]:
            bounds.insert(1, self._port_bound_batch(batch, params) * weights[1])
        power = self.SMOOTH_MAX_POWER
        combined = Tensor(1e-6)
        for bound in bounds:
            combined = combined + (bound + 1e-4) ** power
        smooth_max = combined ** (1.0 / power)
        residual = self._residual_batch(batch)
        scale = (self.output_scale.exp())[0]
        prediction = smooth_max * scale + residual + self.output_bias[0]
        return prediction.softplus()


def build_surrogate(spec: ParameterSpec, featurizer: BlockFeaturizer,
                    config: SurrogateConfig) -> _SurrogateBase:
    """Factory selecting the surrogate variant from the registry.

    Any class registered in :data:`repro.api.registries.SURROGATES` (built-in
    or via the ``repro.surrogates`` entry-point group) with the constructor
    signature ``(spec, featurizer, config)`` that overrides
    :meth:`~_SurrogateBase.forward_batch` is eligible.
    """
    surrogate_class = SURROGATES.get(config.kind)
    forward_batch = getattr(surrogate_class, "forward_batch", None)
    if forward_batch is None or forward_batch is _SurrogateBase.forward_batch:
        raise ValueError(
            f"surrogate {config.kind!r} ({surrogate_class.__name__}) does not "
            f"implement forward_batch, which surrogate training and table "
            f"optimization require")
    return surrogate_class(spec, featurizer, config)


SURROGATES.register(
    "ithemal", IthemalSurrogate,
    summary="paper architecture: token + block stacked LSTMs (Figure 3)")
SURROGATES.register(
    "pooled", PooledSurrogate,
    summary="fast pooled-MLP variant for CPU-budget experiments")
SURROGATES.register(
    "analytical", AnalyticalSurrogate,
    summary="differentiable analytical throughput/latency bound model")
