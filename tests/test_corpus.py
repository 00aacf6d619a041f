"""Corpus-scale streaming dataset layer: sharding, resume, bit-identity.

The contracts under test are the tentpole guarantees of :mod:`repro.corpus`:

* building a sharded corpus is bit-identical to the in-memory dataset
  builder, including after a kill/resume at any shard boundary;
* streaming simulated-dataset collection produces byte-identical arrays to
  the in-memory collector, including after a kill/resume at any collection
  checkpoint, and the surrogate trained from either source follows the
  same loss trajectory;
* the featurization store serves the exact per-block arrays the featurizer
  computes, and the featurization cache is content-keyed and bounded.
"""

import json
import os

import numpy as np
import pytest

from repro.bhive.dataset import build_dataset
from repro.bhive.generator import BlockGenerator
from repro.core.simulated_dataset import collect_simulated_dataset
from repro.core.surrogate import (BlockFeaturizer, FeaturizationCache,
                                  build_block_arrays,
                                  featurization_cache_stats,
                                  featurized_block_digest)
from repro.corpus import (CollectionCheckpoint, CorpusError, ShardedCorpus,
                          ShardedFeaturizationStore, StreamingExamples,
                          StreamingSimulatedDataset,
                          collect_simulated_dataset_streaming)
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE
from repro.pipeline.stages import _examples_to_arrays


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus") / "haswell"
    return ShardedCorpus.build(str(directory), uarch_name="haswell",
                               num_blocks=120, seed=0, shard_size=32)


@pytest.fixture(scope="module")
def adapter():
    from repro.api.registries import SIMULATORS, TARGETS

    return SIMULATORS.get("mca").create_adapter(TARGETS.get("haswell"),
                                                narrow_sampling=True)


class TestGeneratorStreaming:
    def test_iter_blocks_matches_generate_blocks(self):
        import types

        iterator = BlockGenerator(seed=3).iter_blocks(24)
        assert isinstance(iterator, types.GeneratorType)
        streamed = [block.to_assembly() for block in iterator]
        batch = [block.to_assembly()
                 for block in BlockGenerator(seed=3).generate_blocks(24)]
        assert streamed == batch


class TestShardedCorpus:
    def test_build_matches_in_memory_dataset(self, corpus):
        dataset = build_dataset("haswell", num_blocks=120, seed=0)
        kept = [example.block.to_assembly() for example in dataset.examples]
        timings = np.array([example.timing for example in dataset.examples])
        assert [block.to_assembly() for block in corpus.iter_blocks()] == kept
        np.testing.assert_array_equal(corpus.timings(), timings)

    def test_random_access_matches_iteration(self, corpus):
        streamed = [block.to_assembly() for block in corpus.iter_blocks()]
        assert [corpus[i].to_assembly() for i in range(len(corpus))] == streamed
        assert corpus.timing(5) == float(corpus.timings()[5])

    def test_split_views_partition_the_corpus(self, corpus):
        indices = corpus.split_indices()
        assert sorted(indices) == ["test", "train", "validation"]
        combined = sorted(indices["train"] + indices["validation"]
                          + indices["test"])
        assert combined == list(range(len(corpus)))
        view = corpus.split_view("train")
        assert len(view) == len(indices["train"])
        position = len(view) // 2
        global_index = view.global_index(position)
        assert view[position].to_assembly() == corpus[global_index].to_assembly()
        np.testing.assert_array_equal(view.timings(),
                                      corpus.timings()[indices["train"]])

    def test_build_kill_resume_is_bit_identical(self, corpus, tmp_path):
        class Killed(RuntimeError):
            pass

        interrupted = str(tmp_path / "interrupted")
        boundary = 0
        while True:
            boundary += 1
            flushes = 0

            def kill_at_boundary(done, total):
                nonlocal flushes
                flushes += 1
                if flushes == boundary and done < total:
                    raise Killed()

            try:
                resumed = ShardedCorpus.build(
                    interrupted, uarch_name="haswell", num_blocks=120, seed=0,
                    shard_size=32, resume=boundary > 1,
                    progress=kill_at_boundary)
                break
            except Killed:
                # Interrupted mid-build: the directory must refuse plain
                # opening until the build is finished.
                with pytest.raises(CorpusError, match="incomplete"):
                    ShardedCorpus(interrupted)
        assert resumed.content_fingerprint() == corpus.content_fingerprint()

    def test_resume_rejects_changed_parameters(self, corpus):
        with pytest.raises(CorpusError, match="built with"):
            ShardedCorpus.build(corpus.directory, uarch_name="haswell",
                                num_blocks=120, seed=1, shard_size=32)

    def test_verify_detects_corruption(self, tmp_path):
        directory = str(tmp_path / "tampered")
        corpus = ShardedCorpus.build(directory, uarch_name="haswell",
                                     num_blocks=40, seed=0, shard_size=16)
        assert corpus.verify()["num_blocks"] == len(corpus)
        shard_path = os.path.join(directory, "shards", "shard-00000.json")
        with open(shard_path) as handle:
            payload = json.load(handle)
        payload["entries"][0]["timing"] += 1.0
        with open(shard_path, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        with pytest.raises(CorpusError, match="corrupted"):
            ShardedCorpus(directory).verify()

    def test_describe_is_json_pure(self, corpus):
        description = corpus.describe()
        json.dumps(description)
        assert description["num_blocks"] == len(corpus)
        assert description["splits"]["train"] > 0


class TestFeaturizationStore:
    def test_store_serves_exact_featurizer_arrays(self, corpus, tmp_path):
        featurizer = BlockFeaturizer(DEFAULT_OPCODE_TABLE)
        store = ShardedFeaturizationStore(
            str(tmp_path / "store"), featurizer).ensure(corpus)
        assert len(store) == len(corpus)
        for index in range(0, len(corpus), 17):
            expected = build_block_arrays(featurizer.featurize(corpus[index]))
            served = store.arrays_for_index(index)
            assert served.keys() == expected.keys()
            for key in expected:
                np.testing.assert_array_equal(served[key], expected[key])
            digest = featurized_block_digest(featurizer.featurize(corpus[index]))
            by_digest = store.arrays_for_digest(digest)
            np.testing.assert_array_equal(by_digest["opcode_indices"],
                                          expected["opcode_indices"])

    def test_ensure_is_idempotent(self, corpus, tmp_path):
        featurizer = BlockFeaturizer(DEFAULT_OPCODE_TABLE)
        directory = str(tmp_path / "store")
        first = ShardedFeaturizationStore(directory, featurizer).ensure(corpus)
        reopened = ShardedCorpus(corpus.directory)
        again = ShardedFeaturizationStore(directory, featurizer).ensure(reopened)
        assert len(again) == len(first)
        assert not reopened._shard_entries  # a complete store reads no shard

    def test_store_is_pinned_to_its_corpus_shards(self, corpus, tmp_path):
        """A store recorded against other corpus content (e.g. a corpus
        rebuilt in place with equal shard sizes) is refused, not served."""
        featurizer = BlockFeaturizer(DEFAULT_OPCODE_TABLE)
        directory = str(tmp_path / "store")
        ShardedFeaturizationStore(directory, featurizer).ensure(corpus)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["shards"][1]["corpus_digest"] = "0" * 32
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CorpusError) as excinfo:
            ShardedFeaturizationStore(directory, featurizer).ensure(corpus)
        assert directory in str(excinfo.value)


class TestStreamingCollection:
    def test_streaming_matches_in_memory_arrays(self, corpus, adapter):
        streaming = collect_simulated_dataset_streaming(
            adapter, corpus, 48, np.random.default_rng(7), blocks_per_table=8)
        examples = collect_simulated_dataset(
            adapter, list(corpus.iter_blocks()), 48, np.random.default_rng(7),
            blocks_per_table=8)
        expected = _examples_to_arrays(examples)
        produced = streaming.to_arrays()
        assert produced.keys() == expected.keys()
        for key in expected:
            np.testing.assert_array_equal(produced[key], expected[key])

    def test_kill_resume_at_every_checkpoint_boundary(self, corpus, adapter,
                                                      tmp_path):
        checkpoint_every = 16
        num_examples = 48
        reference = collect_simulated_dataset_streaming(
            adapter, corpus, num_examples, np.random.default_rng(7),
            blocks_per_table=8).to_arrays()
        boundaries = range(checkpoint_every, num_examples, checkpoint_every)
        for boundary in boundaries:
            checkpoint = CollectionCheckpoint(
                str(tmp_path / f"checkpoint-{boundary}"))

            class Killed(RuntimeError):
                pass

            # progress fires before the boundary's checkpoint save, so the
            # kill lands one round later — after the save hit the disk.
            def kill_after(done, total, limit=boundary):
                if done > limit:
                    raise Killed()

            with pytest.raises(Killed):
                collect_simulated_dataset_streaming(
                    adapter, corpus, num_examples, np.random.default_rng(7),
                    blocks_per_table=8, checkpoint=checkpoint,
                    checkpoint_every=checkpoint_every, progress=kill_after)
            # Resume with a fresh rng: the checkpoint restores the stream.
            resumed = collect_simulated_dataset_streaming(
                adapter, corpus, num_examples, np.random.default_rng(99),
                blocks_per_table=8, checkpoint=checkpoint,
                checkpoint_every=checkpoint_every).to_arrays()
            for key in reference:
                np.testing.assert_array_equal(resumed[key], reference[key])

    def test_checkpoint_rejects_mismatched_target(self, corpus, adapter,
                                                  tmp_path):
        checkpoint = CollectionCheckpoint(str(tmp_path / "checkpoint"))
        dataset = collect_simulated_dataset_streaming(
            adapter, corpus, 32, np.random.default_rng(7), blocks_per_table=8)
        checkpoint.save(dataset, np.random.default_rng(7), 64)
        with pytest.raises(ValueError, match="targets 64"):
            collect_simulated_dataset_streaming(
                adapter, corpus, 32, np.random.default_rng(7),
                blocks_per_table=8, checkpoint=checkpoint)

    def test_dataset_roundtrips_through_arrays(self, corpus, adapter):
        dataset = collect_simulated_dataset_streaming(
            adapter, corpus, 32, np.random.default_rng(7), blocks_per_table=8)
        rebuilt = StreamingSimulatedDataset.from_arrays(dataset.to_arrays())
        assert len(rebuilt) == len(dataset)
        for key, value in dataset.to_arrays().items():
            np.testing.assert_array_equal(rebuilt.to_arrays()[key], value)


class TestStreamingTraining:
    def test_streaming_losses_match_in_memory(self, corpus, adapter, tmp_path):
        from repro.core import SurrogateConfig, build_surrogate
        from repro.core.surrogate_training import (SurrogateTrainingConfig,
                                                   train_surrogate)

        num_examples = 48
        dataset = collect_simulated_dataset_streaming(
            adapter, corpus, num_examples, np.random.default_rng(7),
            blocks_per_table=8)
        examples = collect_simulated_dataset(
            adapter, list(corpus.iter_blocks()), num_examples,
            np.random.default_rng(7), blocks_per_table=8)
        featurizer = BlockFeaturizer(adapter.opcode_table)
        store = ShardedFeaturizationStore(
            str(tmp_path / "store"), featurizer).ensure(corpus)
        spec = adapter.parameter_spec()
        config = SurrogateTrainingConfig(epochs=2, batch_size=16, seed=0)
        outcomes = {}
        for label, source in (
                ("in_memory", examples),
                ("streaming", StreamingExamples(
                    dataset, corpus, FeaturizationCache(featurizer))),
                ("streaming_store", StreamingExamples(
                    dataset, corpus, FeaturizationCache(featurizer),
                    store=store))):
            surrogate = build_surrogate(spec, featurizer,
                                        SurrogateConfig(kind="pooled", seed=0))
            outcomes[label] = train_surrogate(surrogate, source, config)
        for label in ("streaming", "streaming_store"):
            assert outcomes[label].epoch_losses == \
                outcomes["in_memory"].epoch_losses
            assert outcomes[label].final_training_error == \
                outcomes["in_memory"].final_training_error


class TestPipelineResume:
    def test_corpus_backed_learn_resumes_bit_identically(self, corpus,
                                                         tmp_path):
        from repro.api.registries import PRESETS, SIMULATORS, TARGETS
        from repro.core.difftune import DiffTune

        def make_difftune():
            adapter = SIMULATORS.get("mca").create_adapter(
                TARGETS.get("haswell"), narrow_sampling=True)
            return DiffTune(adapter, PRESETS.get("test")(0))

        train = corpus.split_view("train")
        timings = train.timings()
        full = make_difftune().learn(train, timings)
        checkpoint_dir = str(tmp_path / "checkpoints")
        stopped = make_difftune().learn(train, timings,
                                        checkpoint_dir=checkpoint_dir,
                                        stop_after="collect_dataset")
        assert stopped is None
        resumed = make_difftune().learn(train, timings,
                                        checkpoint_dir=checkpoint_dir,
                                        resume=True)
        assert "collect_dataset" in resumed.resumed_stages
        np.testing.assert_array_equal(
            full.learned_arrays.per_instruction_values,
            resumed.learned_arrays.per_instruction_values)
        np.testing.assert_array_equal(full.learned_arrays.global_values,
                                      resumed.learned_arrays.global_values)
        assert full.train_error == resumed.train_error


class TestFeaturizationCacheContract:
    def test_content_keys_hit_across_distinct_objects(self):
        generator = BlockGenerator(seed=5)
        block = generator.generate_block()
        twin = BlockGenerator(seed=5).generate_block()
        assert block is not twin
        cache = FeaturizationCache(BlockFeaturizer(DEFAULT_OPCODE_TABLE))
        before = featurization_cache_stats()
        first = cache.arrays_for(cache.featurize(block))
        second = cache.arrays_for(cache.featurize(twin))
        after = featurization_cache_stats()
        assert second is first  # digest-keyed, not id()-keyed
        assert after["block_misses"] == before["block_misses"] + 1
        assert after["block_hits"] == before["block_hits"] + 1

    def test_lru_bound_evicts_oldest(self):
        cache = FeaturizationCache(BlockFeaturizer(DEFAULT_OPCODE_TABLE),
                                   max_blocks=2)
        generator = BlockGenerator(seed=6)
        featurized = [cache.featurize(generator.generate_block())
                      for _ in range(3)]
        before = featurization_cache_stats()
        for item in featurized:
            cache.arrays_for(item)
        after = featurization_cache_stats()
        assert len(cache._block_arrays) <= 2
        assert after["block_evictions"] > before["block_evictions"]

    def test_session_stats_exposes_featurization_counters(self):
        from repro.api import Session

        stats = Session.from_spec({"target": "haswell",
                                   "simulator": "mca"}).stats()
        # Parameter inputs are normalized per minibatch, not memoized per
        # table, so the counters cover the per-block cache only.
        assert set(stats["featurization"]) == {"block_hits", "block_misses",
                                               "block_evictions"}


class TestCorpusSpecAndSession:
    def test_corpus_spec_validation(self):
        from repro.api import CorpusSpec, SpecValidationError

        CorpusSpec(directory="/tmp/somewhere").validate()
        with pytest.raises(SpecValidationError, match="directory"):
            CorpusSpec(directory="").validate()
        with pytest.raises(SpecValidationError, match="num_blocks"):
            CorpusSpec(directory="x", num_blocks=0).validate()

    def test_tune_spec_corpus_path_is_exclusive_with_dataset_path(self):
        from repro.api import SpecValidationError, TuneSpec

        with pytest.raises(SpecValidationError, match="corpus_path"):
            TuneSpec(target="haswell", corpus_path="a",
                     dataset_path="b").validate()

    def test_evaluate_spec_validation_split_requires_corpus(self):
        from repro.api import EvaluateSpec, SpecValidationError

        EvaluateSpec(target="haswell", corpus_path="a",
                     split="validation").validate()
        with pytest.raises(SpecValidationError, match="split"):
            EvaluateSpec(target="haswell", split="validation").validate()

    def test_session_builds_and_splits_corpus(self, tmp_path):
        from repro.api import CorpusSpec, Session, TuneSpec

        directory = str(tmp_path / "corpus")
        built = Session.from_spec(CorpusSpec(
            target="haswell", directory=directory, num_blocks=60,
            shard_size=16, seed=0)).build_corpus()
        assert len(built) > 0
        session = Session.from_spec(TuneSpec(target="haswell",
                                             corpus_path=directory))
        blocks, timings = session.split("validation")
        assert len(blocks) == len(timings) > 0
        assert session.corpus().content_fingerprint() == \
            built.content_fingerprint()

    def test_session_rejects_mismatched_corpus_target(self, tmp_path):
        from repro.api import Session, SpecValidationError, TuneSpec

        directory = str(tmp_path / "corpus")
        ShardedCorpus.build(directory, uarch_name="skylake", num_blocks=40,
                            seed=0, shard_size=16)
        session = Session.from_spec(TuneSpec(target="haswell",
                                             corpus_path=directory))
        with pytest.raises(SpecValidationError, match="corpus_path"):
            session.corpus()


class TestCorpusCLI:
    def test_build_then_stat_verifies(self, tmp_path, capsys):
        from repro import cli

        directory = str(tmp_path / "corpus")
        cli.main(["corpus", "build", "--uarch", "haswell", "--directory",
                  directory, "--blocks", "60", "--shard-size", "16"])
        capsys.readouterr()
        cli.main(["corpus", "stat", directory, "--verify"])
        output = capsys.readouterr().out
        payload = json.loads(output[output.index("{"):])
        assert payload["num_blocks"] == len(ShardedCorpus(directory))

    def test_stat_reports_manifest_summary(self, tmp_path, capsys):
        from repro import cli

        directory = str(tmp_path / "corpus")
        ShardedCorpus.build(directory, uarch_name="haswell", num_blocks=60,
                            seed=0, shard_size=16)
        cli.main(["corpus", "stat", directory])
        output = capsys.readouterr().out
        payload = json.loads(output[output.index("{"):])
        assert payload["uarch"] == "Haswell"
        assert payload["num_shards"] == 4


class TestBenchSchemaCompat:
    def test_peak_rss_helper_returns_bytes(self):
        from repro.bench.runner import peak_rss_bytes

        value = peak_rss_bytes()
        assert value is None or value > 1024 * 1024

    def test_old_payloads_without_minor_fields_still_validate(self):
        from repro.bench.schema import collect_problems

        payload = {
            "schema_version": 1, "suite": "smoke", "tier": "smoke",
            "workers": 0,
            "environment": {"python": "3", "platform": "p", "numpy": "1",
                            "cpu_count": 1},
            "scenarios": {"s": {
                "name": "s", "description": "", "tier": "smoke", "seed": 0,
                "workers": 0, "uarches": None, "scale": {}, "rounds": 1,
                "warmup": 0,
                "wall_time_seconds": {"rounds": [1.0], "min": 1.0,
                                      "mean": 1.0},
                "metrics": {}}},
            "total_wall_time_seconds": 1.0,
        }
        assert collect_problems(payload) == []
