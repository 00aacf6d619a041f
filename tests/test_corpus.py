"""Corpus-scale streaming dataset layer: sharding, resume, bit-identity.

The contracts under test are the tentpole guarantees of :mod:`repro.corpus`:

* building a sharded corpus is bit-identical to the in-memory dataset
  builder, including after a kill/resume at any shard boundary;
* simulated-dataset collection over a corpus produces byte-identical
  arrays to collection over the same blocks as a list, and a checkpointed
  corpus-backed run resumes at a stage boundary to the same table;
* a block list, a corpus view and a view with a featurization store train
  the same surrogate and learn the same table, and a store-backed run
  featurizes no block inside the pipeline stages;
* a view carries its store, which is bound once and checked against the
  view's corpus;
* the featurization store serves the exact per-block arrays the featurizer
  computes, and the featurizer's cache is content-keyed and bounded;
* per-block caches stay bounded at 65,536 blocks under a corpus stream,
  and one ``DiffTune.learn`` featurizes each distinct block once.
"""

import json
import os

import numpy as np
import pytest

from repro.bhive.dataset import build_dataset
from repro.bhive.generator import BlockGenerator
from repro.core.simulated_dataset import SimulatedDataset, collect_simulated_dataset
from repro import storage
from repro.core.surrogate import (BlockFeaturizer, build_block_arrays,
                                  featurization_cache_stats)
from repro.corpus import CorpusError, ShardedCorpus, ShardedFeaturizationStore
from repro.corpus import sharded
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE


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

    def test_build_kill_resume_is_bit_identical(self, corpus, tmp_path, monkeypatch):
        class Killed(RuntimeError):
            pass

        interrupted = str(tmp_path / "interrupted")
        write = sharded._atomic_write
        boundary = 0
        flushes = 0

        def kill_at_boundary(path, payload):
            # Dies right after the boundary-th manifest write of an
            # unfinished build, as a kill between two shards would.
            nonlocal flushes
            write(path, payload)
            if (os.path.basename(path) == "manifest.json"
                    and not json.loads(payload)["complete"]):
                flushes += 1
                if flushes == boundary:
                    raise Killed()

        monkeypatch.setattr(sharded, "_atomic_write", kill_at_boundary)
        while True:
            boundary += 1
            flushes = 0
            try:
                resumed = ShardedCorpus.build(
                    interrupted, uarch_name="haswell", num_blocks=120, seed=0,
                    shard_size=32, resume=boundary > 1)
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
        for index in range(len(corpus)):
            expected = build_block_arrays(featurizer.featurize(corpus[index]))
            served = store.arrays_for_index(index)
            assert served.keys() == expected.keys()
            for key in expected:
                assert served[key].dtype == expected[key].dtype
                assert served[key].tobytes() == expected[key].tobytes()
                np.testing.assert_array_equal(served[key], expected[key])

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


class TestViewStoreBinding:
    def test_bound_view_carries_its_store(self, corpus, store):
        train = corpus.split_view("train")
        bound = train.with_featurization_store(store)
        assert train.featurization_store is None
        assert bound.featurization_store is store
        np.testing.assert_array_equal(bound.indices, train.indices)
        assert bound.content_fingerprint() == train.content_fingerprint()
        assert bound[:5].featurization_store is store
        np.testing.assert_array_equal(bound[:5].indices, train.indices[:5])

    def test_store_of_another_corpus_is_refused(self, corpus, adapter,
                                                tmp_path):
        """Binding checks the store against the view's corpus: a store
        built from corpus A never serves a view of corpus B."""
        other = ShardedCorpus.build(str(tmp_path / "other"), uarch_name="haswell",
                                    num_blocks=64, seed=1, shard_size=32)
        other_store = ShardedFeaturizationStore(
            str(tmp_path / "other-store"),
            BlockFeaturizer(adapter.opcode_table)).ensure(other)
        with pytest.raises(CorpusError) as excinfo:
            corpus.split_view("train").with_featurization_store(other_store)
        message = str(excinfo.value)
        assert other_store.directory in message
        assert corpus.directory in message


def _learner(refinement_rounds=0):
    from repro.api.registries import PRESETS, SIMULATORS, TARGETS
    from repro.core.difftune import DiffTune

    config = PRESETS.get("test")(0)
    config.refinement_rounds = refinement_rounds
    config.refinement_dataset_size = 48
    adapter = SIMULATORS.get("mca").create_adapter(TARGETS.get("haswell"),
                                                   narrow_sampling=True)
    return DiffTune(adapter, config)


@pytest.fixture(scope="module")
def store(corpus, adapter, tmp_path_factory):
    return ShardedFeaturizationStore(
        str(tmp_path_factory.mktemp("store")),
        BlockFeaturizer(adapter.opcode_table)).ensure(corpus)


class TestStreamingCollection:
    def test_streaming_matches_in_memory_arrays(self, corpus, adapter):
        streaming = collect_simulated_dataset(
            adapter, corpus, 48, np.random.default_rng(7), blocks_per_table=8)
        in_memory = collect_simulated_dataset(
            adapter, list(corpus.iter_blocks()), 48, np.random.default_rng(7),
            blocks_per_table=8)
        expected = in_memory.to_arrays()
        produced = streaming.to_arrays()
        assert produced.keys() == expected.keys()
        for key in expected:
            np.testing.assert_array_equal(produced[key], expected[key])

    def test_dataset_roundtrips_through_arrays(self, corpus, adapter):
        dataset = collect_simulated_dataset(
            adapter, corpus, 32, np.random.default_rng(7), blocks_per_table=8)
        rebuilt = SimulatedDataset.from_arrays(dataset.to_arrays(), corpus)
        assert len(rebuilt) == len(dataset)
        assert rebuilt.blocks is corpus
        for key, value in dataset.to_arrays().items():
            np.testing.assert_array_equal(rebuilt.to_arrays()[key], value)


class TestStreamingTraining:
    def test_streaming_losses_match_in_memory(self, corpus, adapter, store):
        from repro.core import SurrogateConfig, build_surrogate
        from repro.core.surrogate_training import (SurrogateTrainingConfig,
                                                   train_surrogate)

        num_examples = 48
        dataset = collect_simulated_dataset(
            adapter, corpus, num_examples, np.random.default_rng(7),
            blocks_per_table=8)
        in_memory = collect_simulated_dataset(
            adapter, list(corpus.iter_blocks()), num_examples,
            np.random.default_rng(7), blocks_per_table=8)
        featurizer = BlockFeaturizer(adapter.opcode_table)
        spec = adapter.parameter_spec()
        config = SurrogateTrainingConfig(epochs=2, batch_size=16, seed=0)
        whole = corpus.view(range(len(corpus))).with_featurization_store(store)
        stored = collect_simulated_dataset(
            adapter, whole, num_examples, np.random.default_rng(7),
            blocks_per_table=8)
        outcomes = {}
        for label, source in (("in_memory", in_memory), ("streaming", dataset),
                              ("streaming_store", stored)):
            surrogate = build_surrogate(spec, featurizer,
                                        SurrogateConfig(kind="pooled", seed=0))
            outcomes[label] = train_surrogate(surrogate, source, config)
        for label in ("streaming", "streaming_store"):
            assert outcomes[label].epoch_losses == \
                outcomes["in_memory"].epoch_losses
            assert outcomes[label].final_training_error == \
                outcomes["in_memory"].final_training_error

    def test_evaluate_reads_the_store_a_view_carries(self, corpus, adapter,
                                                      store, monkeypatch):
        from repro.core import SurrogateConfig, build_surrogate
        from repro.core.surrogate_training import evaluate_surrogate

        whole = corpus.view(range(len(corpus)))
        datasets = {
            label: collect_simulated_dataset(adapter, blocks, 32,
                                             np.random.default_rng(7),
                                             blocks_per_table=8)
            for label, blocks in (("list", list(whole)), ("view", whole),
                                  ("view_store",
                                   whole.with_featurization_store(store)))}
        surrogate = build_surrogate(adapter.parameter_spec(),
                                    BlockFeaturizer(adapter.opcode_table),
                                    SurrogateConfig(kind="pooled", seed=0))
        expected = evaluate_surrogate(surrogate, datasets["list"])
        assert evaluate_surrogate(surrogate, datasets["view"]) == expected

        def refuse(featurizer, block):
            raise AssertionError("a store-backed evaluation featurized a block")

        monkeypatch.setattr(BlockFeaturizer, "featurize", refuse)
        assert evaluate_surrogate(surrogate, datasets["view_store"]) == expected

    def test_list_view_and_store_learn_identically(self, corpus, store):
        """One refinement round end to end: every block source gives the
        same learned table, epoch losses and train error."""
        train = corpus.split_view("train")
        timings = train.timings()
        results = {
            "list": _learner(1).learn(list(train), timings),
            "view": _learner(1).learn(train, timings),
            "view_store": _learner(1).learn(
                train.with_featurization_store(store), timings),
        }
        reference = results["list"]
        for label in ("view", "view_store"):
            result = results[label]
            np.testing.assert_array_equal(
                result.learned_arrays.per_instruction_values,
                reference.learned_arrays.per_instruction_values)
            np.testing.assert_array_equal(result.learned_arrays.global_values,
                                          reference.learned_arrays.global_values)
            assert result.surrogate_result.epoch_losses == \
                reference.surrogate_result.epoch_losses
            assert result.table_result.epoch_losses == \
                reference.table_result.epoch_losses
            assert result.train_error == reference.train_error

    def test_store_backed_run_featurizes_no_block_in_stages(self, corpus,
                                                            store, monkeypatch):
        """With a store, every stage — phase two and the refinement round
        included — reads per-block arrays from it instead of featurizing."""
        from repro.pipeline import stages

        in_stage = []
        calls = {"featurize": 0}
        featurize = BlockFeaturizer.featurize

        def counted(featurizer, block):
            calls["featurize"] += bool(in_stage)
            return featurize(featurizer, block)

        def tracked(run):
            def wrapper(stage, state):
                in_stage.append(stage.name)
                try:
                    return run(stage, state)
                finally:
                    in_stage.pop()
            return wrapper

        monkeypatch.setattr(BlockFeaturizer, "featurize", counted)
        for stage_class in (stages.CollectDatasetStage,
                            stages.TrainSurrogateStage,
                            stages.OptimizeTableStage,
                            stages.RefinementRoundStage,
                            stages.ExtractEvaluateStage):
            monkeypatch.setattr(stage_class, "run", tracked(stage_class.run))
        train = corpus.split_view("train").with_featurization_store(store)
        result = _learner(1).learn(train, train.timings())
        assert result is not None
        assert calls["featurize"] == 0


class TestPipelineResume:
    def test_corpus_backed_learn_resumes_bit_identically(self, corpus,
                                                         tmp_path):
        train = corpus.split_view("train")
        timings = train.timings()
        full = _learner().learn(train, timings)
        checkpoint_dir = str(tmp_path / "checkpoints")
        stopped = _learner().learn(train, timings,
                                   checkpoint_dir=checkpoint_dir,
                                   stop_after="collect_dataset")
        assert stopped is None
        resumed = _learner().learn(train, timings,
                                   checkpoint_dir=checkpoint_dir, resume=True)
        assert "collect_dataset" in resumed.resumed_stages
        np.testing.assert_array_equal(
            full.learned_arrays.per_instruction_values,
            resumed.learned_arrays.per_instruction_values)
        np.testing.assert_array_equal(full.learned_arrays.global_values,
                                      resumed.learned_arrays.global_values)
        assert full.train_error == resumed.train_error

    def test_finished_run_leaves_only_the_dataset_archive(self, corpus,
                                                          store, tmp_path):
        """Collection saves only its finished dataset, even when it draws
        more than a corpus shard's worth of examples."""
        train = corpus.split_view("train").with_featurization_store(store)
        assert _learner().config.simulated_dataset_size > corpus.shard_size
        checkpoint_dir = str(tmp_path / "checkpoints")
        _learner().learn(train, train.timings(), checkpoint_dir=checkpoint_dir)
        assert os.listdir(os.path.join(checkpoint_dir, "collect_dataset")) == \
            ["simulated_dataset.npz"]


class TestFeaturizationCacheContract:
    def test_content_keys_hit_across_distinct_objects(self):
        generator = BlockGenerator(seed=5)
        block = generator.generate_block()
        twin = BlockGenerator(seed=5).generate_block()
        assert block is not twin
        featurizer = BlockFeaturizer(DEFAULT_OPCODE_TABLE)
        before = featurization_cache_stats()
        first = featurizer.arrays(block)
        second = featurizer.arrays(twin)
        after = featurization_cache_stats()
        assert second is first  # content-keyed, not id()-keyed
        assert after["block_misses"] == before["block_misses"] + 1
        assert after["block_hits"] == before["block_hits"] + 1

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        import repro.core.surrogate as surrogate_module

        monkeypatch.setattr(surrogate_module, "MAX_CACHED_BLOCKS", 2)
        featurizer = BlockFeaturizer(DEFAULT_OPCODE_TABLE)
        generator = BlockGenerator(seed=6)
        blocks = [generator.generate_block() for _ in range(3)]
        before = featurization_cache_stats()
        arrays = [featurizer.arrays(block) for block in blocks]
        after = featurization_cache_stats()
        assert len(featurizer._arrays) == 2
        assert after["block_evictions"] == before["block_evictions"] + 1
        assert featurizer.arrays(blocks[2]) is arrays[2]
        assert featurizer.arrays(blocks[0]) is not arrays[0]  # the oldest went

    def test_session_stats_exposes_featurization_counters(self):
        from repro.api import Session

        stats = Session.from_spec({"target": "haswell",
                                   "simulator": "mca"}).stats()
        # Parameter inputs are normalized per minibatch, not memoized per
        # table, so the counters cover the per-block cache only.
        assert set(stats["featurization"]) == {"block_hits", "block_misses",
                                               "block_evictions"}


def _write_corpus(directory, assemblies, shard_size):
    """A complete corpus holding ``assemblies``, laid out as ``build`` writes it."""
    shards = []
    for start in range(0, len(assemblies), shard_size):
        entries = [{"assembly": text, "applications": [], "timing": 1.0,
                    "digest": sharded.block_content_digest(text, [])}
                   for text in assemblies[start:start + shard_size]]
        name = f"shard-{len(shards):05d}.json"
        payload = sharded._dump_shard_bytes(entries)
        sharded._atomic_write(os.path.join(directory, sharded.SHARD_DIR, name), payload)
        shards.append({"name": name, "num_blocks": len(entries),
                       "digest": storage.digest(payload)})
    manifest = {"version": sharded.CORPUS_VERSION, "uarch": "haswell", "seed": 0,
                "shard_size": shard_size, "num_requested": len(assemblies),
                "num_generated": len(assemblies), "num_blocks": len(assemblies),
                "complete": True, "shards": shards}
    sharded._atomic_write(os.path.join(directory, storage.MANIFEST_NAME),
                          storage.encode_json(manifest))
    return ShardedCorpus(directory)


class TestCacheBounds:
    def test_corpus_stream_keeps_per_block_caches_bounded(self, tmp_path):
        """70,000 distinct blocks through a view with no store leave at most
        65,536 blocks in the featurizer's cache and in the compiler's."""
        from repro.engine.compile import MAX_COMPILED_BLOCKS, BlockCompiler
        from repro.core.surrogate import MAX_CACHED_BLOCKS

        assert MAX_CACHED_BLOCKS == MAX_COMPILED_BLOCKS == 65536
        count = 70000
        corpus = _write_corpus(str(tmp_path / "corpus"),
                               [f"pushq ${value}" for value in range(count)],
                               shard_size=10000)
        view = corpus.view(range(count))
        featurizer = BlockFeaturizer(DEFAULT_OPCODE_TABLE)
        compiler = BlockCompiler(DEFAULT_OPCODE_TABLE)
        block_arrays = featurizer.lookup(view)
        before = featurization_cache_stats()
        for position in range(count):
            block_arrays(position)
            compiler.compile(view[position])
        after = featurization_cache_stats()
        assert len(featurizer._arrays) == MAX_CACHED_BLOCKS
        assert compiler.cache_size == MAX_COMPILED_BLOCKS
        assert compiler.misses == count
        assert after["block_misses"] - before["block_misses"] == count
        assert after["block_evictions"] - before["block_evictions"] == \
            count - MAX_CACHED_BLOCKS

    @pytest.mark.parametrize("source", ["list", "view"])
    def test_learn_featurizes_each_distinct_block_once(self, corpus, source):
        """Both phases of every round read one featurizer's cache, so a run
        with two refinement rounds (six training calls) misses once per
        distinct training block, from a block list or from a corpus view
        with no featurization store (read on demand)."""
        view = corpus.split_view("train")
        blocks = list(view) if source == "list" else view
        distinct = len({block.structural_key() for block in view})
        learner = _learner(refinement_rounds=2)
        before = featurization_cache_stats()
        result = learner.learn(blocks, view.timings())
        after = featurization_cache_stats()
        assert result is not None
        assert after["block_misses"] - before["block_misses"] == distinct
        assert after["block_hits"] > before["block_hits"]


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
