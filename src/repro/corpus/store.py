"""On-disk, memory-mapped featurization store indexed like its corpus.

A :class:`ShardedFeaturizationStore` extends the featurizer's in-memory
per-block cache (:meth:`~repro.core.surrogate.BlockFeaturizer.arrays`) to
disk: the per-block packed arrays (token ids, masks, structural features,
dependency masks) of every corpus block are computed **once ever**, written
into flat per-shard blobs, and served back by global corpus index as
read-only ``numpy`` memory-mapped views — shared across every process that
opens the store, with per-process resident memory bounded by the pages the
OS keeps warm rather than the corpus size.

Layout of one store directory::

    <dir>/
      manifest.json                  # vocabulary digest + shard table + corpus shard digests
      shard-00000/
        int_blob.npy                 # int64:  token_ids (L*T) + opcodes (L) per block
        float_blob.npy               # float64: token_mask (L*T) + structural (5L)
                                     #          + dependency (L*L) + loop (L) per block
        meta.npy                     # int64 (num_blocks, 4):
                                     #   int_offset, float_offset, length, max_tokens

Blob values are byte-identical to :func:`repro.core.surrogate.build_block_arrays`
output, so training through the store is bit-identical to in-memory
featurization.  Store shards mirror the corpus's shards one-to-one, and the
manifest pins each corpus shard's content digest, so a store is never served
to a corpus rebuilt in place: :meth:`ensure` checks it, and binding a store
to a view (:meth:`~repro.corpus.sharded.CorpusView.with_featurization_store`)
runs :meth:`ensure`.  Every file goes through :mod:`repro.storage`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

import numpy as np

from repro import storage
from repro.core.surrogate import BlockFeaturizer, build_block_arrays
from repro.corpus.sharded import CACHED_SHARDS, CorpusError, ShardedCorpus
from repro.engine.binding import LRUCache

#: Version 2 pins each corpus shard's (blake2b) content digest.
STORE_VERSION = 2
NUM_STRUCTURAL = 5  # mirrors surrogate.NUM_STRUCTURAL_FEATURES


def vocabulary_digest(featurizer: BlockFeaturizer) -> str:
    """Digest of the featurizer's token vocabulary (store compatibility key)."""
    vocabulary = featurizer.vocabulary
    digest = storage.hasher()
    for token_id in range(len(vocabulary)):
        digest.update(vocabulary.token(token_id).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class ShardedFeaturizationStore:
    """Mmap-backed featurized arrays for a sharded corpus, by corpus index."""

    def __init__(self, directory: str, featurizer: BlockFeaturizer) -> None:
        self.directory = directory
        self.featurizer = featurizer
        self._vocabulary_digest = vocabulary_digest(featurizer)
        self._manifest = self._read_or_init_manifest()
        #: shard index -> {"int": memmap, "float": memmap, "meta": ndarray}
        self._open = LRUCache(CACHED_SHARDS)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.directory, storage.MANIFEST_NAME)

    def _read_or_init_manifest(self) -> Dict[str, Any]:
        if os.path.exists(self._manifest_path):
            manifest = storage.read_json(self._manifest_path)
            if manifest.get("version") != STORE_VERSION:
                raise CorpusError(f"unsupported featurization-store version "
                                  f"{manifest.get('version')!r} at "
                                  f"{self._manifest_path!r} (expected "
                                  f"{STORE_VERSION}); delete the store to "
                                  f"rebuild it")
            if manifest["vocabulary_digest"] != self._vocabulary_digest:
                raise CorpusError(
                    f"featurization store at {self.directory!r} was built "
                    f"with a different token vocabulary; delete it or use a "
                    f"matching opcode table")
            return manifest
        return {"version": STORE_VERSION,
                "vocabulary_digest": self._vocabulary_digest,
                "shards": []}

    @property
    def num_shards(self) -> int:
        return len(self._manifest["shards"])

    def __len__(self) -> int:
        return sum(int(shard["num_blocks"]) for shard in self._manifest["shards"])

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def ensure(self, corpus: ShardedCorpus) -> "ShardedFeaturizationStore":
        """Featurize every corpus shard not yet in the store (resumable).

        Shards already recorded in the store manifest are skipped, so a
        killed featurization run resumes where it left off, and a second
        process (or a later session) pays nothing for blocks already done.
        Each recorded shard must carry the corpus shard's content digest;
        any mismatch means the store belongs to another corpus.
        """
        expected = [shard["digest"] for shard in corpus.manifest["shards"]]
        recorded = [shard["corpus_digest"] for shard in self._manifest["shards"]]
        if recorded != expected[:len(recorded)]:
            raise CorpusError(
                f"featurization store at {self.directory!r} was built from "
                f"other corpus shards than {corpus.directory!r} holds; delete "
                f"the store to rebuild it")
        for shard_index in range(self.num_shards, corpus.num_shards):
            self._build_shard(corpus.shard(shard_index), expected[shard_index])
        return self

    def _shard_dir(self, shard_index: int) -> str:
        return os.path.join(self.directory, f"shard-{shard_index:05d}")

    def _build_shard(self, shard, corpus_digest: str) -> None:
        int_parts: List[np.ndarray] = []
        float_parts: List[np.ndarray] = []
        meta = np.zeros((len(shard.blocks), 4), dtype=np.int64)
        int_offset = 0
        float_offset = 0
        for local, block in enumerate(shard.blocks):
            # Built outside the featurizer's cache: a store build streams
            # the whole corpus once and would only churn it.
            arrays = build_block_arrays(self.featurizer.featurize(block))
            length, max_tokens = arrays["token_ids"].shape
            meta[local] = (int_offset, float_offset, length, max_tokens)
            int_parts.append(arrays["token_ids"].reshape(-1))
            int_parts.append(arrays["opcode_indices"])
            float_parts.append(arrays["token_mask"].reshape(-1))
            float_parts.append(arrays["structural_features"].reshape(-1))
            float_parts.append(arrays["dependency_mask"].reshape(-1))
            float_parts.append(arrays["loop_carried_mask"])
            int_offset += length * max_tokens + length
            float_offset += (length * max_tokens + NUM_STRUCTURAL * length
                             + length * length + length)
        shard_dir = self._shard_dir(shard.index)
        for name, array in (
                ("int_blob.npy", np.concatenate(int_parts) if int_parts
                 else np.zeros(0, dtype=np.int64)),
                ("float_blob.npy", np.concatenate(float_parts) if float_parts
                 else np.zeros(0, dtype=np.float64)),
                ("meta.npy", meta)):
            storage.atomic_write(os.path.join(shard_dir, name),
                                 storage.encode_array(array))
        # The manifest entry lands only after every blob is on disk, so a
        # kill mid-shard leaves the store resumable at this shard.
        self._manifest["shards"].append({
            "name": os.path.basename(shard_dir),
            "num_blocks": len(shard.blocks),
            "start": int(shard.start),
            "corpus_digest": corpus_digest,
        })
        storage.write_json(self._manifest_path, self._manifest)

    # ------------------------------------------------------------------
    # Memory-mapped reads
    # ------------------------------------------------------------------
    def _open_shard(self, shard_index: int) -> Dict[str, np.ndarray]:
        cached = self._open.get(shard_index)
        if cached is not None:
            return cached
        if not 0 <= shard_index < self.num_shards:
            raise IndexError(f"store shard {shard_index} out of range "
                             f"[0, {self.num_shards})")
        shard_dir = self._shard_dir(shard_index)
        opened = {
            "int": np.load(os.path.join(shard_dir, "int_blob.npy"),
                           mmap_mode="r"),
            "float": np.load(os.path.join(shard_dir, "float_blob.npy"),
                             mmap_mode="r"),
            "meta": np.load(os.path.join(shard_dir, "meta.npy")),
        }
        self._open.put(shard_index, opened)
        return opened

    def _locate(self, global_index: int) -> "tuple[int, int]":
        for shard_index, shard in enumerate(self._manifest["shards"]):
            start = int(shard["start"])
            if start <= global_index < start + int(shard["num_blocks"]):
                return shard_index, global_index - start
        raise IndexError(f"block index {global_index} not covered by the "
                         f"featurization store")

    def arrays_for_local(self, shard_index: int,
                         local_index: int) -> Dict[str, np.ndarray]:
        """Memory-mapped per-block arrays, same keys as ``build_block_arrays``."""
        opened = self._open_shard(shard_index)
        int_offset, float_offset, length, max_tokens = (
            int(value) for value in opened["meta"][local_index])
        ints = opened["int"]
        floats = opened["float"]
        tokens = length * max_tokens
        cursor = float_offset
        token_mask = floats[cursor:cursor + tokens].reshape(length, max_tokens)
        cursor += tokens
        structural = floats[cursor:cursor + NUM_STRUCTURAL * length].reshape(
            length, NUM_STRUCTURAL)
        cursor += NUM_STRUCTURAL * length
        dependency = floats[cursor:cursor + length * length].reshape(length, length)
        cursor += length * length
        loop_carried = floats[cursor:cursor + length]
        return {
            "token_ids": ints[int_offset:int_offset + tokens].reshape(
                length, max_tokens),
            "token_mask": token_mask,
            "opcode_indices": ints[int_offset + tokens:
                                   int_offset + tokens + length],
            "structural_features": structural,
            "dependency_mask": dependency,
            "loop_carried_mask": loop_carried,
        }

    def arrays_for_index(self, global_index: int) -> Dict[str, np.ndarray]:
        shard_index, local_index = self._locate(int(global_index))
        return self.arrays_for_local(shard_index, local_index)
