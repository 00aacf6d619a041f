"""Sharded, disk-backed basic-block corpora.

A :class:`ShardedCorpus` streams :class:`~repro.bhive.generator.BlockGenerator`
output into fixed-size on-disk shards so corpus size is bounded by disk, not
RAM.  Layout of one corpus directory::

    <dir>/
      manifest.json            # uarch, seed, shard table, build-resume state
      shards/
        shard-00000.json       # [{assembly, applications, timing, digest}, ...]
        shard-00001.json
        ...

Every shard holds exactly ``shard_size`` kept blocks (the last may be
partial), written atomically through :func:`repro.storage.atomic_write`; the
manifest records a content digest per shard (checked on every shard read),
the total block count, and — until the build completes — the
generator/harness rng states at the last shard boundary, so an interrupted
``build`` resumes bit-identically to an uninterrupted one.

Reading never materializes the whole corpus: :meth:`ShardedCorpus.iter_blocks`
and :meth:`~ShardedCorpus.iter_shards` stream shard by shard, and random
access (``corpus[i]``) goes through two small LRU caches (raw shard entries,
parsed blocks).  Blocks parse back through :func:`repro.isa.parser.parse_block`,
so a corpus block is bit-identical in simulation to the generated original.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro import storage
from repro.bhive.generator import BlockGenerator
from repro.bhive.measurement import MeasurementHarness
from repro.isa.basic_block import BasicBlock
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE, OpcodeTable
from repro.isa.parser import parse_block
from repro.targets import get_uarch
from repro.targets.hardware import HardwareModel

SHARD_DIR = "shards"
#: Version 2: shard digests are :func:`repro.storage.digest` values.
CORPUS_VERSION = 2


class CorpusError(RuntimeError):
    """A corpus directory is missing, inconsistent, or corrupted."""


def block_content_digest(assembly: str, applications: Sequence[str]) -> str:
    """Content digest of one corpus entry (stable across processes)."""
    digest = storage.hasher()
    digest.update(assembly.encode())
    digest.update(b"\n")
    digest.update("\t".join(applications).encode())
    return digest.hexdigest()


def _dump_shard_bytes(entries: List[Dict[str, Any]]) -> bytes:
    """Canonical serialized form of a shard (what the digest covers)."""
    return json.dumps({"version": CORPUS_VERSION, "entries": entries},
                      sort_keys=True).encode()


def _atomic_write(path: str, payload: bytes) -> None:
    storage.atomic_write(path, payload)


@dataclass
class CorpusShard:
    """One materialized shard: aligned parsed blocks and timings."""

    index: int
    start: int  #: global index of the shard's first block
    blocks: List[BasicBlock]
    timings: np.ndarray
    digests: List[str]

    def __len__(self) -> int:
        return len(self.blocks)


class ShardedCorpus:
    """A disk-backed block corpus with streaming and bounded random access."""

    def __init__(self, directory: str, opcode_table: Optional[OpcodeTable] = None,
                 cache_shards: int = 8, cache_blocks: int = 16384) -> None:
        self.directory = directory
        self.opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        self.cache_shards = max(1, int(cache_shards))
        self.cache_blocks = max(1, int(cache_blocks))
        self._manifest = self._read_manifest(directory)
        if not self._manifest.get("complete", False):
            raise CorpusError(
                f"corpus at {directory!r} is incomplete (interrupted build); "
                f"re-run ShardedCorpus.build(..., resume=True) to finish it")
        self._shard_entries: "OrderedDict[int, List[Dict[str, Any]]]" = OrderedDict()
        self._parsed_blocks: "OrderedDict[int, BasicBlock]" = OrderedDict()

    # ------------------------------------------------------------------
    # Manifest plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _manifest_path(directory: str) -> str:
        return os.path.join(directory, storage.MANIFEST_NAME)

    @staticmethod
    def _read_manifest(directory: str) -> Dict[str, Any]:
        path = ShardedCorpus._manifest_path(directory)
        if not os.path.exists(path):
            raise CorpusError(f"no corpus manifest at {path!r}; "
                              f"build one with ShardedCorpus.build(...)")
        manifest = storage.read_json(path)
        if manifest.get("version") != CORPUS_VERSION:
            raise CorpusError(f"unsupported corpus version "
                              f"{manifest.get('version')!r} at {path!r} "
                              f"(expected {CORPUS_VERSION}); rebuild the corpus")
        return manifest

    @property
    def manifest(self) -> Dict[str, Any]:
        return self._manifest

    @property
    def uarch_name(self) -> str:
        return self._manifest["uarch"]

    @property
    def seed(self) -> int:
        return int(self._manifest["seed"])

    @property
    def shard_size(self) -> int:
        return int(self._manifest["shard_size"])

    @property
    def num_shards(self) -> int:
        return len(self._manifest["shards"])

    def __len__(self) -> int:
        return int(self._manifest["num_blocks"])

    def content_fingerprint(self) -> str:
        """Digest of the corpus content, computed from the manifest alone.

        Covers the uarch, block count, and every shard's content digest —
        the shard digests in turn cover each entry's assembly, applications,
        and timing, so any content change changes the fingerprint.
        """
        digest = storage.hasher()
        digest.update(self.uarch_name.encode())
        digest.update(str(len(self)).encode())
        for shard in self._manifest["shards"]:
            digest.update(shard["digest"].encode())
        return digest.hexdigest()

    def describe(self) -> Dict[str, Any]:
        """Summary payload for ``repro corpus stat``."""
        timings = self.timings()
        lengths = np.fromiter((len(entry["assembly"].splitlines())
                               for entry in self.iter_entries()),
                              dtype=np.int64, count=len(self))
        return {
            "directory": self.directory,
            "uarch": self.uarch_name,
            "seed": self.seed,
            "num_blocks": len(self),
            "num_generated": int(self._manifest["num_generated"]),
            "num_shards": self.num_shards,
            "shard_size": self.shard_size,
            "content_fingerprint": self.content_fingerprint(),
            "block_length_median": float(np.median(lengths)),
            "block_length_mean": float(lengths.mean()),
            "block_length_max": int(lengths.max()),
            "median_timing": float(np.median(timings)),
            "splits": {name: len(indices)
                       for name, indices in self.split_indices().items()},
        }

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    def _shard_path(self, shard_index: int) -> str:
        name = self._manifest["shards"][shard_index]["name"]
        return os.path.join(self.directory, SHARD_DIR, name)

    def _load_shard_entries(self, shard_index: int) -> List[Dict[str, Any]]:
        cached = self._shard_entries.get(shard_index)
        if cached is not None:
            self._shard_entries.move_to_end(shard_index)
            return cached
        path = self._shard_path(shard_index)
        with open(path, "rb") as handle:
            payload = handle.read()
        record = self._manifest["shards"][shard_index]
        digest = storage.digest(payload)
        if digest != record["digest"]:
            raise CorpusError(
                f"shard {path!r} is corrupted: content digest {digest} != "
                f"manifest digest {record['digest']}")
        entries = json.loads(payload)["entries"]
        if len(entries) != record["num_blocks"]:
            raise CorpusError(f"shard {record['name']!r} holds {len(entries)} "
                              f"entries; manifest says {record['num_blocks']}")
        self._shard_entries[shard_index] = entries
        while len(self._shard_entries) > self.cache_shards:
            self._shard_entries.popitem(last=False)
        return entries

    def _locate(self, global_index: int) -> "tuple[int, int]":
        if not 0 <= global_index < len(self):
            raise IndexError(f"block index {global_index} out of range "
                             f"[0, {len(self)})")
        return global_index // self.shard_size, global_index % self.shard_size

    def _parse_entry(self, entry: Dict[str, Any]) -> BasicBlock:
        return parse_block(entry["assembly"], self.opcode_table,
                           source_applications=tuple(entry.get("applications", ())))

    # ------------------------------------------------------------------
    # Streaming iteration (never materializes the corpus)
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[Dict[str, Any]]:
        """Stream raw entries shard by shard (no parsing, no caching)."""
        for shard_index in range(self.num_shards):
            yield from self._load_shard_entries(shard_index)

    def iter_blocks(self) -> Iterator[BasicBlock]:
        """Stream parsed blocks shard by shard."""
        for entry in self.iter_entries():
            yield self._parse_entry(entry)

    def shard(self, shard_index: int) -> CorpusShard:
        """One fully parsed shard (at most ``shard_size`` blocks)."""
        entries = self._load_shard_entries(shard_index)
        return CorpusShard(
            index=shard_index, start=shard_index * self.shard_size,
            blocks=[self._parse_entry(entry) for entry in entries],
            timings=np.array([entry["timing"] for entry in entries],
                             dtype=np.float64),
            digests=[entry["digest"] for entry in entries])

    def iter_shards(self) -> Iterator[CorpusShard]:
        """Stream fully parsed shards (bounded by ``shard_size`` blocks)."""
        for shard_index in range(self.num_shards):
            yield self.shard(shard_index)

    # ------------------------------------------------------------------
    # Random access (LRU-bounded)
    # ------------------------------------------------------------------
    def block(self, global_index: int) -> BasicBlock:
        cached = self._parsed_blocks.get(global_index)
        if cached is not None:
            self._parsed_blocks.move_to_end(global_index)
            return cached
        shard_index, local = self._locate(global_index)
        block = self._parse_entry(self._load_shard_entries(shard_index)[local])
        self._parsed_blocks[global_index] = block
        while len(self._parsed_blocks) > self.cache_blocks:
            self._parsed_blocks.popitem(last=False)
        return block

    def __getitem__(self, global_index: int) -> BasicBlock:
        return self.block(int(global_index))

    def timing(self, global_index: int) -> float:
        shard_index, local = self._locate(global_index)
        return float(self._load_shard_entries(shard_index)[local]["timing"])

    def digest(self, global_index: int) -> str:
        shard_index, local = self._locate(global_index)
        return self._load_shard_entries(shard_index)[local]["digest"]

    def timings(self) -> np.ndarray:
        """All timings, in corpus order (floats only — safe to materialize)."""
        return np.fromiter((entry["timing"] for entry in self.iter_entries()),
                           dtype=np.float64, count=len(self))

    # ------------------------------------------------------------------
    # Splits and views
    # ------------------------------------------------------------------
    def split_indices(self) -> Dict[str, List[int]]:
        """Deterministic 80/10/10 split on block content digests.

        Identical block text shares a digest, so the buckets are block-wise
        disjoint (the property the dataset layer's splits guarantee), and the
        assignment is a pure function of content — stable across processes
        and resumed builds.
        """
        train: List[int] = []
        validation: List[int] = []
        test: List[int] = []
        for index, entry in enumerate(self.iter_entries()):
            bucket = int(entry["digest"], 16) % 10
            if bucket < 8:
                train.append(index)
            elif bucket == 8:
                validation.append(index)
            else:
                test.append(index)
        if not train:
            raise CorpusError("corpus too small: empty train split")
        if not validation:
            validation = train[-1:]
        if not test:
            test = train[-1:]
        return {"train": train, "validation": validation, "test": test}

    def view(self, indices: Sequence[int]) -> "CorpusView":
        return CorpusView(self, indices)

    def split_view(self, which: str) -> "CorpusView":
        indices = self.split_indices()
        if which not in indices:
            raise ValueError(f"unknown split {which!r}; expected one of "
                             f"{sorted(indices)}")
        return self.view(indices[which])

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self) -> Dict[str, Any]:
        """Re-hash every shard and entry against the manifest; raise on corruption."""
        self._shard_entries.clear()
        checked_blocks = 0
        for shard_index in range(self.num_shards):
            entries = self._load_shard_entries(shard_index)
            for entry in entries:
                digest = block_content_digest(entry["assembly"],
                                              entry.get("applications", ()))
                if digest != entry["digest"]:
                    raise CorpusError(
                        f"entry {checked_blocks} in shard {shard_index} is "
                        f"corrupted: digest {digest} != {entry['digest']}")
                checked_blocks += 1
        if checked_blocks != len(self):
            raise CorpusError(f"manifest claims {len(self)} blocks; shards "
                              f"hold {checked_blocks}")
        return {"num_shards": self.num_shards, "num_blocks": checked_blocks}

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, directory: str, uarch_name: str = "haswell",
              num_blocks: int = 2000, seed: int = 0, shard_size: int = 1024,
              opcode_table: Optional[OpcodeTable] = None, resume: bool = False,
              progress: Optional[Callable[[int, int], None]] = None,
              **open_kwargs: Any) -> "ShardedCorpus":
        """Generate, measure, and shard ``num_blocks`` blocks to disk.

        Generation and measurement stream one block at a time — drawing from
        the same two rng streams :func:`repro.bhive.dataset.build_dataset`
        uses (generator ``seed``, hardware ``seed + 1``, harness ``seed + 2``)
        — so the kept blocks and timings are bit-identical to the in-memory
        builder's.  Unstable measurements are dropped, mirroring BHive.

        ``num_blocks`` counts *generated* blocks (the build's work budget);
        the kept count is slightly lower after the stability screen.  With
        ``resume=True`` an interrupted build continues from the last
        completed shard by restoring the pinned rng states; the finished
        corpus is bit-identical to an uninterrupted build.
        """
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        spec = get_uarch(uarch_name)
        generator = BlockGenerator(opcode_table=opcode_table, seed=seed)
        hardware = HardwareModel(spec, seed=seed + 1)
        harness = MeasurementHarness(hardware, seed=seed + 2)

        manifest_path = cls._manifest_path(directory)
        if os.path.exists(manifest_path):
            manifest = cls._read_manifest(directory)
            if manifest.get("complete", False):
                cls._check_build_params(manifest, spec.name, seed, shard_size,
                                        num_blocks, directory)
                return cls(directory, opcode_table=opcode_table, **open_kwargs)
            if not resume:
                raise CorpusError(
                    f"corpus at {directory!r} has an interrupted build; pass "
                    f"resume=True to finish it or delete the directory")
            cls._check_build_params(manifest, spec.name, seed, shard_size,
                                    num_blocks, directory)
            state = manifest["build_state"]
            generator._rng.bit_generator.state = storage.decode_rng_state(
                state["generator_rng"])
            harness._rng.bit_generator.state = storage.decode_rng_state(
                state["harness_rng"])
        else:
            manifest = {
                "version": CORPUS_VERSION,
                "uarch": spec.name,
                "seed": int(seed),
                "shard_size": int(shard_size),
                "num_requested": int(num_blocks),
                "num_generated": 0,
                "num_blocks": 0,
                "complete": False,
                "shards": [],
                "build_state": {
                    "generator_rng": storage.encode_rng_state(
                        generator._rng.bit_generator.state),
                    "harness_rng": storage.encode_rng_state(
                        harness._rng.bit_generator.state),
                },
            }

        pending: List[Dict[str, Any]] = []

        def flush(complete: bool) -> None:
            if pending:
                shard_index = len(manifest["shards"])
                name = f"shard-{shard_index:05d}.json"
                payload = _dump_shard_bytes(pending)
                _atomic_write(os.path.join(directory, SHARD_DIR, name), payload)
                manifest["shards"].append({
                    "name": name,
                    "num_blocks": len(pending),
                    "digest": storage.digest(payload),
                })
                manifest["num_blocks"] += len(pending)
                pending.clear()
            manifest["build_state"] = {
                "generator_rng": storage.encode_rng_state(
                    generator._rng.bit_generator.state),
                "harness_rng": storage.encode_rng_state(
                    harness._rng.bit_generator.state),
            }
            manifest["complete"] = complete
            _atomic_write(manifest_path, storage.encode_json(manifest))

        remaining = num_blocks - int(manifest["num_generated"])
        for block in generator.iter_blocks(remaining):
            manifest["num_generated"] += 1
            result = harness.measure_block(block)
            if result.stable:
                assembly = block.to_assembly()
                applications = list(block.source_applications)
                pending.append({
                    "assembly": assembly,
                    "applications": applications,
                    "timing": float(result.timing),
                    "digest": block_content_digest(assembly, applications),
                })
            if len(pending) == shard_size:
                flush(complete=False)
                if progress is not None:
                    progress(int(manifest["num_generated"]), num_blocks)
        flush(complete=True)
        if progress is not None:
            progress(num_blocks, num_blocks)
        return cls(directory, opcode_table=opcode_table, **open_kwargs)

    @staticmethod
    def _check_build_params(manifest: Dict[str, Any], uarch: str, seed: int,
                            shard_size: int, num_blocks: int,
                            directory: str) -> None:
        recorded = (manifest["uarch"], int(manifest["seed"]),
                    int(manifest["shard_size"]), int(manifest["num_requested"]))
        requested = (uarch, int(seed), int(shard_size), int(num_blocks))
        if recorded != requested:
            raise CorpusError(
                f"corpus at {directory!r} was built with "
                f"(uarch, seed, shard_size, num_blocks)={recorded}; "
                f"requested {requested} — delete it or pick another directory")


class CorpusView(Sequence):
    """A lazy, index-remapped window onto a corpus (e.g. one split).

    Implements the read-only ``Sequence[BasicBlock]`` protocol the collection
    and pipeline layers expect of a block list, without parsing anything
    until an index is touched; parsed blocks come from the corpus's bounded
    caches.
    """

    def __init__(self, corpus: ShardedCorpus, indices: Sequence[int]) -> None:
        self.corpus = corpus
        self.indices = np.asarray(indices, dtype=np.int64)
        if len(self.indices) and not (0 <= int(self.indices.min())
                                      and int(self.indices.max()) < len(corpus)):
            raise IndexError("view indices out of corpus range")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, position):
        if isinstance(position, slice):
            # Slicing stays lazy: `view[:max_blocks]` narrows the index map
            # without parsing a single block.
            return CorpusView(self.corpus, self.indices[position])
        return self.corpus.block(int(self.indices[int(position)]))

    def __iter__(self) -> Iterator[BasicBlock]:
        for index in self.indices:
            yield self.corpus.block(int(index))

    def global_index(self, position: int) -> int:
        return int(self.indices[int(position)])

    def timings(self) -> np.ndarray:
        all_timings = self.corpus.timings()
        return all_timings[self.indices]

    def content_fingerprint(self) -> str:
        """Digest of (corpus content, selected indices)."""
        digest = storage.hasher()
        digest.update(self.corpus.content_fingerprint().encode())
        digest.update(self.indices.tobytes())
        return digest.hexdigest()
