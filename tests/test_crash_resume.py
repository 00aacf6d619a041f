"""Crash-injection harness: a kill at any write, then resume.

Every file a later run reads back is written through
:func:`repro.storage.atomic_write`.  :func:`crash_at` replaces it so that its
N-th call leaves a truncated temp file beside the target and raises
:class:`InjectedCrash` — what a process killed mid-write leaves behind.  For each flow
the harness counts the writes K of an uninterrupted run, then for every N in
1..K crashes the flow at write N and runs it again with resume.  The resumed
result must equal the uninterrupted run's.

Run on its own with ``python -m pytest tests/test_crash_resume.py -q``.
"""

import contextlib
import os

import numpy as np
import pytest

from repro import storage
from repro.api import CampaignSpec, EvaluateSpec, PredictSpec, Session
from repro.api.bundle import load_bundle
from repro.campaigns import run_campaign
from repro.core.adapters import MCAAdapter
from repro.core.config import test_config as tiny_config
from repro.core.difftune import DiffTune
from repro.core.surrogate import BlockFeaturizer
from repro.corpus import ShardedCorpus, ShardedFeaturizationStore
from repro.distributed import MatrixCampaignSpec, run_matrix
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE
from repro.targets import HASWELL


class InjectedCrash(BaseException):
    """The simulated kill mid-write.

    A ``BaseException``, like a kill it cannot be caught by ``except
    Exception``: a matrix cell never records it as a failed outcome.
    """


@contextlib.contextmanager
def crash_at(fail_at=None):
    """Route atomic writes through a counter; write ``fail_at`` crashes.

    Yields the list of written paths (the crashed one included).
    """
    written = []
    real = storage.atomic_write

    def write(path, payload):
        written.append(path)
        if len(written) == fail_at:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            with open(f"{path}.crashed.tmp", "wb") as handle:
                handle.write(payload[:len(payload) // 2])
            raise InjectedCrash(f"injected crash writing {path}")
        real(path, payload)

    storage.atomic_write = write
    try:
        yield written
    finally:
        storage.atomic_write = real


def sweep(run, compare, tmp_path):
    """Crash ``run`` at each of its writes, resume, and compare.

    ``run(directory, resume)`` executes the flow with its files under
    ``directory``; ``compare(resumed, reference)`` asserts that a resumed
    result equals the uninterrupted one.
    """
    with crash_at() as written:
        reference = run(str(tmp_path / "clean"), resume=False)
    assert written, "the flow wrote nothing"
    for fail_at in range(1, len(written) + 1):
        directory = str(tmp_path / f"crash-{fail_at:02d}")
        with crash_at(fail_at) as crashed:
            with pytest.raises(InjectedCrash):
                run(directory, resume=False)
        assert len(crashed) == fail_at, f"no write {fail_at} to crash"
        compare(run(directory, resume=True), reference)


def _files(directory):
    """Every file under ``directory`` (crash leftovers aside), as bytes."""
    contents = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            if not name.endswith(".tmp"):
                path = os.path.join(root, name)
                with open(path, "rb") as handle:
                    contents[os.path.relpath(path, directory)] = handle.read()
    return contents


def _equal(resumed, reference):
    assert resumed == reference


def _learned_equal(resumed, reference):
    """Equal ``(learned_arrays, train_error)`` pairs."""
    np.testing.assert_array_equal(resumed[0].global_values,
                                  reference[0].global_values)
    np.testing.assert_array_equal(resumed[0].per_instruction_values,
                                  reference[0].per_instruction_values)
    assert resumed[1] == reference[1]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return ShardedCorpus.build(str(tmp_path_factory.mktemp("crash-corpus")),
                               num_blocks=48, seed=0, shard_size=16)


def test_pipeline(small_dataset, tmp_path):
    train = small_dataset.train_examples[:40]
    blocks = [example.block for example in train]
    timings = np.array([example.timing for example in train])
    # One adapter for every run: its engine's result cache only saves
    # simulations, it never changes a result.
    adapter = MCAAdapter(HASWELL, narrow_sampling=True)

    def run(directory, resume):
        config = tiny_config(0)
        config.refinement_rounds = 1
        config.refinement_dataset_size = 48
        result = DiffTune(adapter, config).learn(
            blocks, timings, checkpoint_dir=directory, resume=resume)
        return result.learned_arrays, result.train_error

    sweep(run, _learned_equal, tmp_path)


def test_campaign(tmp_path):
    session = Session.from_spec(EvaluateSpec(target="haswell", num_blocks=40,
                                             seed=2))

    def run(directory, resume):
        report_path = os.path.join(directory, "report.json")
        run_campaign(CampaignSpec.from_dict({
            "target": "haswell", "num_blocks": 40, "seed": 2, "max_blocks": 12,
            "axes": [{"field": "DispatchWidth", "low": 1, "high": 6}],
            "chunk_size": 2, "checkpoint_dir": os.path.join(directory, "ckpt"),
            "report_path": report_path, "resume": resume}), session=session)
        with open(report_path, "rb") as handle:
            return handle.read()

    sweep(run, _equal, tmp_path)


def test_corpus_build_and_featurization_store(tmp_path):
    featurizer = BlockFeaturizer(DEFAULT_OPCODE_TABLE)

    def run(directory, resume):
        corpus = ShardedCorpus.build(os.path.join(directory, "corpus"),
                                     num_blocks=48, seed=0, shard_size=16,
                                     resume=resume)
        store = os.path.join(directory, "store")
        ShardedFeaturizationStore(store, featurizer).ensure(corpus)
        return (list(corpus.iter_entries()), corpus.split_indices(),
                _files(store))

    sweep(run, _equal, tmp_path)


@pytest.mark.parametrize("engine_workers", [0, 2])
def test_corpus_backed_learn(corpus, tmp_path, engine_workers):
    # Collection draws several shards' worth of examples and saves nothing
    # until it has finished, like every stage: a crash inside it collects
    # again from the stage's start, whatever the worker count.
    train = corpus.split_view("train")
    timings = train.timings()
    assert tiny_config(0).simulated_dataset_size > corpus.shard_size
    adapter = MCAAdapter(HASWELL, narrow_sampling=True,
                         engine_workers=engine_workers)

    def run(directory, resume):
        result = DiffTune(adapter, tiny_config(0)).learn(
            train, timings, checkpoint_dir=directory, resume=resume)
        return result.learned_arrays, result.train_error

    sweep(run, _learned_equal, tmp_path)


def test_matrix_inline(tmp_path_factory, tmp_path):
    campaign = {"axes": [{"field": "WriteLatency", "opcode": "ADD32rr",
                          "values": [1, 3]}],
                "num_blocks": 24, "seed": 3, "chunk_size": 8}
    corpus_root = str(tmp_path_factory.mktemp("matrix-corpora"))
    # Built up front so every run reads it and none writes it.
    ShardedCorpus.build(os.path.join(corpus_root, "haswell"),
                        num_blocks=24, seed=3)

    def run(directory, resume):
        report_path = os.path.join(directory, "matrix_report.json")
        # A crash inside a cell leaves it unrecorded; resume runs it again
        # from its own campaign checkpoints.
        run_matrix(MatrixCampaignSpec.from_dict({
            "campaign": campaign, "executor": "inline",
            "cells": [{"target": "haswell", "simulator": "mca"},
                      {"target": "haswell", "simulator": "llvm_sim"}],
            "corpus_dir": corpus_root,
            "checkpoint_dir": os.path.join(directory, "ckpt"),
            "report_path": report_path, "resume": resume}))
        with open(report_path, "rb") as handle:
            return handle.read()

    sweep(run, _equal, tmp_path)


def test_bundle_export_over_existing_bundle(tmp_path):
    session = Session.from_spec(PredictSpec(target="haswell"))
    path = str(tmp_path / "haswell.bundle")
    previous = session.export_bundle(path)
    table = session.default_table().copy()
    table.dispatch_width = 2
    with crash_at() as written:
        expected = session.export_bundle(str(tmp_path / "clean.bundle"),
                                         table=table)
    for fail_at in range(1, len(written) + 1):
        with crash_at(fail_at):
            with pytest.raises(InjectedCrash):
                session.export_bundle(path, table=table)
        assert load_bundle(path).manifest == previous
        session.export_bundle(path, table=table)
        assert load_bundle(path).manifest == expected
        session.export_bundle(path)
