"""The persistence substrate (repro.storage) and the guard that keeps it single.

* a source scan asserts that only :mod:`repro.storage` renames files into
  place, writes NumPy archives or opens a file for writing, that sha256 is
  gone, and that ``hashlib`` is imported only by the substrate and the
  in-memory cache keys;
* unit tests pin the primitive: a failed write leaves the previous file
  intact, and an unparseable file is named in the error;
* the bench payload, report and CSV writers keep their previous file when a
  write fails;
* every manifest kind, truncated, fails with its path in the message.
"""

import ast
import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro import storage
from repro.bench.runner import Runner, RunnerConfig
from repro.eval.plots import Series, write_histogram_csv, write_series_csv
from repro.eval.reports import write_report
from repro.storage import (CheckpointMismatchError, CorruptArtifactError,
                           PinnedManifest)

SOURCE_ROOT = pathlib.Path(storage.__file__).resolve().parent

#: Calls that put a file in place or write a NumPy archive.
WRITE_CALLS = {("os", "replace"), ("os", "rename"), ("tempfile", "mkstemp"),
               ("np", "save"), ("np", "savez"), ("np", "savez_compressed"),
               ("numpy", "save"), ("numpy", "savez"),
               ("numpy", "savez_compressed")}
#: Modules that may import hashlib: the substrate, plus the in-memory cache
#: keys on the tuning hot path.
HASHLIB_IMPORTERS = {"storage.py", "engine/compile.py", "engine/binding.py",
                     "core/surrogate.py"}


def _sources():
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        yield path.relative_to(SOURCE_ROOT).as_posix(), ast.parse(path.read_text())


def _attribute_pairs(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id, node.attr, node.lineno


def _builtin_writes(tree):
    """``open(...)`` calls whose mode writes, appends or creates a file.

    A mode that is not a string literal counts as a write: the scan cannot
    prove it read-only.
    """
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (keyword.value for keyword in node.keywords if keyword.arg == "mode"), None)
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                or set(mode.value) & set("wax+"):
            yield node.lineno


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module, alias.name, node.lineno


class TestSingleSubstrate:
    def test_only_storage_writes_files_into_place(self):
        offenders = []
        for name, tree in _sources():
            if name == "storage.py":
                continue
            offenders += [f"{name}:{line} {owner}.{attr}"
                          for owner, attr, line in _attribute_pairs(tree)
                          if (owner, attr) in WRITE_CALLS]
            offenders += [f"{name}:{line} from {module} import {member}"
                          for module, member, line in _imported_names(tree)
                          if (module, member) in WRITE_CALLS]
            offenders += [f"{name}:{line} open for writing"
                          for line in _builtin_writes(tree)]
        assert offenders == []

    def test_sha256_appears_nowhere(self):
        offenders = []
        for name, tree in _sources():
            offenders += [f"{name}:{line}"
                          for _owner, attr, line in _attribute_pairs(tree)
                          if attr == "sha256"]
            offenders += [f"{name}:{line}"
                          for _module, member, line in _imported_names(tree)
                          if member == "sha256"]
        assert offenders == []

    def test_hashlib_imported_only_by_substrate_and_cache_keys(self):
        importers = {name for name, tree in _sources()
                     for module, _member, _line in _imported_names(tree)
                     if module == "hashlib"}
        assert importers <= HASHLIB_IMPORTERS
        assert "storage.py" in importers


class TestAtomicWrite:
    def test_creates_parent_and_replaces(self, tmp_path):
        path = str(tmp_path / "nested" / "file.bin")
        storage.atomic_write(path, b"one")
        storage.atomic_write(path, b"two")
        assert pathlib.Path(path).read_bytes() == b"two"
        assert os.listdir(tmp_path / "nested") == ["file.bin"]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = str(tmp_path / "file.bin")
        storage.atomic_write(path, b"previous")
        with pytest.raises(TypeError):
            storage.atomic_write(path, "not bytes")
        assert pathlib.Path(path).read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["file.bin"]

    def test_failed_rename_keeps_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "file.bin")
        storage.atomic_write(path, b"previous")

        def fail(source, target):
            raise OSError("disk gone")

        monkeypatch.setattr(storage.os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            storage.atomic_write(path, b"next")
        assert pathlib.Path(path).read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["file.bin"]


class TestBuiltinWriteScan:
    """Which ``open`` calls the source guard counts as writes."""

    @pytest.mark.parametrize("call", ['open(path, "w")', 'open(path, "a")',
                                      'open(path, "x")', 'open(path, "r+")',
                                      'open(path, mode="wb")', 'open(path, mode)'])
    def test_writing_or_unknown_modes_flagged(self, call):
        assert list(_builtin_writes(ast.parse(call))) == [1]

    @pytest.mark.parametrize("call", ['open(path)', 'open(path, "r")',
                                      'open(path, mode="rb")'])
    def test_read_modes_pass(self, call):
        assert list(_builtin_writes(ast.parse(call))) == []


def _write_bench_payload(output_dir, value):
    runner = Runner(RunnerConfig(tier="smoke", suite="demo", output_dir=output_dir),
                    log=None)
    return runner.write({"value": value})


def _write_report(output_dir, value):
    path = os.path.join(output_dir, "REPORT.md")
    write_report(os.path.join(output_dir, "no-results"), path, title=f"Run {value}")
    return path


def _write_series_csv(output_dir, value):
    path = os.path.join(output_dir, "series.csv")
    write_series_csv(path, [Series("a", x=[1.0], y=[float(value)])])
    return path


def _write_histogram_csv(output_dir, value):
    path = os.path.join(output_dir, "histogram.csv")
    write_histogram_csv(path, {"a": [0.5]}, bins=[0.0, float(value)])
    return path


class TestHumanFacingOutputs:
    """Bench payloads, reports and CSV exports are replaced, never rewritten in place."""

    @pytest.mark.parametrize("writer", [_write_bench_payload, _write_report,
                                        _write_series_csv, _write_histogram_csv],
                             ids=["bench_payload", "report", "series_csv",
                                  "histogram_csv"])
    def test_failed_write_keeps_previous_output(self, tmp_path, monkeypatch, writer):
        path = writer(str(tmp_path), 1)
        previous = pathlib.Path(path).read_bytes()

        def fail(source, target):
            raise OSError("disk gone")

        monkeypatch.setattr(storage.os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            writer(str(tmp_path), 2)
        assert pathlib.Path(path).read_bytes() == previous
        assert os.listdir(tmp_path) == [os.path.basename(path)]


class TestEncodings:
    def test_json_form(self, tmp_path):
        path = str(tmp_path / "payload.json")
        storage.write_json(path, {"b": 1, "a": [1.5]})
        text = pathlib.Path(path).read_text()
        assert text == json.dumps({"a": [1.5], "b": 1}, indent=2) + "\n"
        assert storage.read_json(path) == {"a": [1.5], "b": 1}

    def test_read_json_names_the_path(self, tmp_path):
        path = str(tmp_path / "broken.json")
        pathlib.Path(path).write_text('{"version": 2, "stag')
        with pytest.raises(CorruptArtifactError) as excinfo:
            storage.read_json(path)
        assert path in str(excinfo.value)

    def test_arrays_round_trip(self):
        arrays = {"a": np.arange(5), "b.c": np.eye(2)}
        for compressed in (False, True):
            decoded = storage.decode_arrays(
                storage.encode_arrays(arrays, compressed=compressed), "memory")
            assert decoded.keys() == arrays.keys()
            for key in arrays:
                np.testing.assert_array_equal(decoded[key], arrays[key])

    def test_decode_arrays_names_the_source(self):
        payload = storage.encode_arrays({"a": np.arange(100)})
        with pytest.raises(CorruptArtifactError, match="somewhere.npz"):
            storage.decode_arrays(payload[:len(payload) // 2], "somewhere.npz")

    def test_npy_bytes_match_np_save(self, tmp_path):
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        np.save(tmp_path / "reference.npy", array)
        assert storage.encode_array(array) == \
            (tmp_path / "reference.npy").read_bytes()

    def test_rng_state_codec_round_trips(self):
        rng = np.random.default_rng(3)
        rng.integers(0, 10, size=4)
        encoded = json.loads(json.dumps(
            storage.encode_rng_state(rng.bit_generator.state)))
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = storage.decode_rng_state(encoded)
        assert fresh.integers(0, 1 << 30) == rng.integers(0, 1 << 30)


class TestDigest:
    def test_blake2b_sixteen_bytes(self):
        assert storage.digest(b"payload") == \
            hashlib.blake2b(b"payload", digest_size=16).hexdigest()
        incremental = storage.hasher()
        incremental.update(b"pay")
        incremental.update(b"load")
        assert incremental.hexdigest() == storage.digest(b"payload")


class TestPinnedManifest:
    def test_bind_then_mismatch(self, tmp_path):
        manifest = PinnedManifest(str(tmp_path), owner="matrix spec")
        manifest.bind_fingerprint("abc", resume=False)
        manifest.record("cell", {"status": "ok"})
        reopened = PinnedManifest(str(tmp_path), owner="matrix spec")
        assert reopened.entries == {"cell": {"status": "ok"}}
        with pytest.raises(CheckpointMismatchError, match="different matrix spec"):
            reopened.bind_fingerprint("def", resume=True)
        reopened.reset()
        assert PinnedManifest(str(tmp_path), owner="matrix spec").entries == {}

    def test_older_version_names_the_directory(self, tmp_path):
        pathlib.Path(tmp_path / "manifest.json").write_text(json.dumps(
            {"version": 1, "fingerprint": "abc", "entries": {}}))
        with pytest.raises(CheckpointMismatchError) as excinfo:
            PinnedManifest(str(tmp_path), owner="matrix spec").bind_fingerprint(
                "abc", resume=True)
        assert str(tmp_path) in str(excinfo.value)
        assert "version 1" in str(excinfo.value)


# ----------------------------------------------------------------------
# Every manifest kind, truncated, is named in the error
# ----------------------------------------------------------------------
def _truncate(path):
    payload = pathlib.Path(path).read_bytes()
    pathlib.Path(path).write_bytes(payload[:len(payload) // 2])


def _pipeline_manifest(directory):
    from repro.pipeline import CheckpointStore

    CheckpointStore(directory).bind_fingerprint("abc", resume=False)
    path = os.path.join(directory, "manifest.json")
    _truncate(path)
    return path, lambda: CheckpointStore(directory).bind_fingerprint(
        "abc", resume=True)


def _matrix_manifest(directory):
    from repro.distributed import MatrixCampaignSpec, run_matrix

    spec = {"campaign": {"axes": [{"field": "WriteLatency", "opcode": "ADD32rr",
                                   "values": [1, 3]}], "num_blocks": 8},
            "cells": [{"target": "haswell", "simulator": "mca"}],
            "checkpoint_dir": directory}
    PinnedManifest(directory, owner="matrix spec").bind_fingerprint(
        "abc", resume=False)
    path = os.path.join(directory, "manifest.json")
    _truncate(path)
    return path, lambda: run_matrix(MatrixCampaignSpec.from_dict(
        dict(spec, resume=True)))


def _corpus_manifest(directory):
    from repro.corpus import ShardedCorpus

    ShardedCorpus.build(directory, num_blocks=12, seed=0, shard_size=8)
    path = os.path.join(directory, "manifest.json")
    _truncate(path)
    return path, lambda: ShardedCorpus(directory)


def _store_manifest(directory):
    from repro.core.surrogate import BlockFeaturizer
    from repro.corpus import ShardedCorpus, ShardedFeaturizationStore
    from repro.isa.opcodes import DEFAULT_OPCODE_TABLE

    corpus = ShardedCorpus.build(os.path.join(directory, "corpus"),
                                 num_blocks=12, seed=0, shard_size=8)
    store_dir = os.path.join(directory, "store")
    featurizer = BlockFeaturizer(DEFAULT_OPCODE_TABLE)
    ShardedFeaturizationStore(store_dir, featurizer).ensure(corpus)
    path = os.path.join(store_dir, "manifest.json")
    _truncate(path)
    return path, lambda: ShardedFeaturizationStore(store_dir, featurizer)


def _collection_checkpoint(directory):
    from repro.core.parameters import ParameterArrays
    from repro.corpus import CollectionCheckpoint, StreamingSimulatedDataset

    dataset = StreamingSimulatedDataset()
    dataset.append_round(ParameterArrays(global_values=np.zeros(2),
                                         per_instruction_values=np.ones((3, 2))),
                         np.arange(4), np.linspace(1.0, 2.0, 4))
    checkpoint = CollectionCheckpoint(directory)
    checkpoint.save(dataset, np.random.default_rng(0).bit_generator.state, 16)
    _truncate(checkpoint.path)
    return checkpoint.path, CollectionCheckpoint(directory).load


@pytest.mark.parametrize("make", [_pipeline_manifest, _matrix_manifest,
                                  _corpus_manifest, _store_manifest,
                                  _collection_checkpoint],
                         ids=["pipeline", "matrix", "corpus",
                              "featurization_store", "collection_checkpoint"])
def test_truncated_manifest_error_names_its_path(make, tmp_path):
    path, reopen = make(str(tmp_path / "artifact"))
    with pytest.raises(CorruptArtifactError) as excinfo:
        reopen()
    assert path in str(excinfo.value)
