"""Unit tests for the shared simulation-engine layer.

Covers the three engine stages in isolation — block compilation, table
binding, batched execution — plus the caching contracts the rest of the
pipeline relies on: LRU behaviour, content digests, and the adapters'
``table_from_arrays`` memoization.
"""

import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.adapters import MCAAdapter, SimulatorAdapter
from repro.engine import (BlockCompiler, LRUCache, SimulationEngine, bind_llvm_sim_block,
                          bind_mca_block, block_digest, compile_block, llvm_sim_table_digest,
                          mca_engine, mca_table_digest, parameter_arrays_digest)
from repro.llvm_sim.uops import decode_instruction
from repro.targets import HASWELL
from repro.targets.defaults import build_default_llvm_sim_table, build_default_mca_table


@pytest.fixture(scope="module")
def mca_table():
    return build_default_mca_table(HASWELL)


@pytest.fixture(scope="module")
def llvm_sim_table():
    return build_default_llvm_sim_table(HASWELL)


class TestBlockCompilation:
    def test_opcode_indices_match_table(self, sample_blocks, opcode_table):
        block = sample_blocks[0]
        compiled = compile_block(block, opcode_table)
        expected = [opcode_table.index_of(instruction.opcode.name) for instruction in block]
        assert compiled.opcode_indices.tolist() == expected
        assert compiled.length == len(block)

    def test_register_interning_is_consistent(self, sample_blocks, opcode_table):
        """Two instructions naming the same register get the same id, and the
        id universe is dense."""
        for block in sample_blocks[:10]:
            compiled = compile_block(block, opcode_table)
            name_to_id = {}
            for position, instruction in enumerate(block):
                for name, identifier in zip(instruction.source_registers(),
                                            compiled.source_ids[position]):
                    assert name_to_id.setdefault(name, identifier) == identifier
                for name, identifier in zip(instruction.destination_registers(),
                                            compiled.destination_ids[position]):
                    assert name_to_id.setdefault(name, identifier) == identifier
            assert set(name_to_id.values()) == set(range(compiled.num_registers))

    def test_equal_content_blocks_share_digest(self, simple_block, opcode_table):
        from repro.isa.parser import parse_block

        twin = parse_block(simple_block.to_assembly())
        assert twin is not simple_block
        assert block_digest(twin) == block_digest(simple_block)

    def test_compiler_caches_by_content(self, simple_block, opcode_table):
        from repro.isa.parser import parse_block

        compiler = BlockCompiler(opcode_table)
        first = compiler.compile(simple_block)
        second = compiler.compile(parse_block(simple_block.to_assembly()))
        assert second is first
        assert compiler.hits == 1 and compiler.misses == 1

    def test_compiler_cache_is_lru_bounded(self, sample_blocks, opcode_table,
                                           monkeypatch):
        import repro.engine.compile as compile_module

        monkeypatch.setattr(compile_module, "MAX_COMPILED_BLOCKS", 2)
        compiler = BlockCompiler(opcode_table)
        first, second, third = sample_blocks[:3]
        kept = compiler.compile(first)
        compiler.compile(second)
        assert compiler.compile(first) is kept      # refresh `first`
        compiler.compile(third)                     # evicts `second`
        assert compiler.cache_size == 2
        assert compiler.compile(first) is kept
        compiler.compile(second)
        assert (compiler.hits, compiler.misses) == (2, 4)

    def test_operand_rows_are_memoized_on_the_compiled_block(self, simple_block,
                                                             opcode_table):
        compiled = compile_block(simple_block, opcode_table)
        sources, destinations = compiled.operand_rows()
        assert compiled.operand_rows()[0] is sources
        assert sources.shape[0] == destinations.shape[0] == len(simple_block)
        for position in range(len(simple_block)):
            row = sources[position]
            assert tuple(row[row >= 0]) == compiled.source_ids[position]
            row = destinations[position]
            assert tuple(row[row >= 0]) == compiled.destination_ids[position]


class TestTableBinding:
    def test_mca_binding_gathers_table_rows(self, sample_blocks, opcode_table, mca_table):
        block = sample_blocks[1]
        bound = bind_mca_block(mca_table, compile_block(block, opcode_table))
        for position, instruction in enumerate(block):
            index = opcode_table.index_of(instruction.opcode.name)
            num_uops, latency, advance, port_cycles, _, _ = bound.instructions[position]
            assert num_uops == int(mca_table.num_micro_ops[index])
            assert latency == int(mca_table.write_latency[index])
            assert advance == mca_table.read_advance_cycles[index].tolist()
            assert port_cycles == mca_table.port_map[index].tolist()

    def test_llvm_sim_binding_matches_decode(self, sample_blocks, opcode_table,
                                             llvm_sim_table):
        """Bound micro-op port sequences agree with the reference decoder."""
        block = sample_blocks[2]
        bound = bind_llvm_sim_block(llvm_sim_table, compile_block(block, opcode_table))
        for position, instruction in enumerate(block):
            decoded = decode_instruction(instruction, position, llvm_sim_table)
            _, _, latency, ports = bound.instructions[position]
            assert ports == [micro_op.port for micro_op in decoded]
            assert all(micro_op.latency == latency for micro_op in decoded)


class TestDigests:
    def test_mca_digest_tracks_content(self, mca_table):
        digest = mca_table_digest(mca_table)
        assert digest == mca_table_digest(mca_table.copy())
        changed = mca_table.copy()
        changed.write_latency = changed.write_latency + 1
        assert mca_table_digest(changed) != digest
        resized = mca_table.copy()
        resized.dispatch_width += 1
        assert mca_table_digest(resized) != digest

    def test_llvm_sim_digest_tracks_content(self, llvm_sim_table):
        digest = llvm_sim_table_digest(llvm_sim_table)
        assert digest == llvm_sim_table_digest(llvm_sim_table.copy())
        changed = llvm_sim_table.copy()
        changed.port_uops = changed.port_uops + 1
        assert llvm_sim_table_digest(changed) != digest

    def test_arrays_digest_tracks_content(self, mca_adapter):
        arrays = mca_adapter.default_arrays()
        assert parameter_arrays_digest(arrays) == parameter_arrays_digest(arrays.copy())
        changed = arrays.copy()
        changed.per_instruction_values[0, 0] += 1.0
        assert parameter_arrays_digest(changed) != parameter_arrays_digest(arrays)


class TestLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh "a"
        cache.put("c", 3)                   # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        assert cache.get("missing") is None
        cache.put("key", 7)
        assert cache.get("key") == 7
        assert cache.hits == 1 and cache.misses == 1

    def test_get_or_compute(self):
        cache = LRUCache(4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("key", lambda: calls.append(1) or 42)
            assert value == 42
        assert len(calls) == 1


class TestSimulationEngine:
    def test_run_matrix_matches_run_one_rows(self, mca_table, sample_blocks):
        blocks = sample_blocks[:6]
        wider = mca_table.copy()
        wider.dispatch_width += 2
        engine = mca_engine()
        matrix = engine.run([mca_table, wider], blocks)
        assert matrix.shape == (2, len(blocks))
        assert np.array_equal(matrix[0], mca_engine().run_one(mca_table, blocks))
        assert np.array_equal(matrix[1], mca_engine().run_one(wider, blocks))

    def test_cache_avoids_reexecution(self, mca_table, sample_blocks):
        blocks = sample_blocks[:5]
        engine = mca_engine()
        engine.run_one(mca_table, blocks)
        misses_after_first = engine.stats["result_misses"]
        engine.run_one(mca_table, blocks)
        assert engine.stats["result_misses"] == misses_after_first
        assert engine.stats["result_hits"] == len(blocks)

    def test_identical_tables_share_cache_entries(self, mca_table, sample_blocks):
        """Distinct table objects with equal content hit the same entries."""
        blocks = sample_blocks[:4]
        engine = mca_engine()
        first = engine.run_one(mca_table, blocks)
        second = engine.run_one(mca_table.copy(), blocks)
        assert np.array_equal(first, second)
        assert engine.stats["result_misses"] == len(blocks)

    def test_blocks_compile_once_across_tables(self, mca_table, sample_blocks):
        blocks = sample_blocks[:5]
        tables = []
        for extra in range(3):
            table = mca_table.copy()
            table.write_latency = table.write_latency + extra
            tables.append(table)
        engine = mca_engine()
        engine.run(tables, blocks)
        assert engine.stats["compile_misses"] == len(blocks)

    def test_empty_blocks(self, mca_table):
        engine = mca_engine()
        assert engine.run([mca_table], []).shape == (1, 0)

    def test_cache_capacity_is_bounded(self, mca_table, sample_blocks):
        blocks = sample_blocks[:6]
        engine = mca_engine(cache_size=3)
        engine.run_one(mca_table, blocks)
        assert engine.stats["result_entries"] == 3

    def test_clear_cache(self, mca_table, sample_blocks):
        engine = mca_engine()
        engine.run_one(mca_table, sample_blocks[:3])
        engine.clear_cache()
        assert engine.stats["result_entries"] == 0
        assert engine.stats["result_misses"] == 0


class TestRunPairs:
    def test_heterogeneous_pairs_match_run_one(self, mca_table, sample_blocks):
        wider = mca_table.copy()
        wider.dispatch_width += 2
        pairs = [(mca_table, sample_blocks[:4]), (wider, sample_blocks[4:9])]
        engine = mca_engine()
        results = engine.run_pairs(pairs)
        assert np.array_equal(results[0], mca_engine().run_one(mca_table, sample_blocks[:4]))
        assert np.array_equal(results[1], mca_engine().run_one(wider, sample_blocks[4:9]))

    def test_parallel_pairs_match_serial(self, mca_table, sample_blocks):
        slower = mca_table.copy()
        slower.write_latency = slower.write_latency + 1
        pairs = [(mca_table, sample_blocks[:5]), (slower, sample_blocks[2:8])]
        serial = mca_engine().run_pairs(pairs)
        parallel = mca_engine(num_workers=2).run_pairs(pairs)
        for serial_row, parallel_row in zip(serial, parallel):
            assert np.array_equal(serial_row, parallel_row)


class _WorkerKillingSimulator:
    """A simulator whose timing call SIGKILLs the pool worker running it.

    Module level, so the pool can pickle it by reference.
    """

    def __init__(self, table):
        self.table = table

    def predict_timing(self, block):
        if multiprocessing.parent_process() is None:
            raise AssertionError("the killing simulator ran in the test process")
        os.kill(os.getpid(), signal.SIGKILL)


class TestPoolWorkerDeath:
    def test_killed_worker_raises_instead_of_hanging(self, mca_table, sample_blocks,
                                                     deadline):
        slower = mca_table.copy()
        slower.write_latency = slower.write_latency + 1
        engine = SimulationEngine(_WorkerKillingSimulator, mca_table_digest,
                                  num_workers=2)
        with deadline(30), pytest.raises(BrokenProcessPool):
            engine.run_pairs([(mca_table, sample_blocks[:4]),
                              (slower, sample_blocks[4:8])])


class TestAdapterEngineIntegration:
    def test_predict_timings_batch_matches_per_candidate(self, mca_adapter, sample_blocks,
                                                         rng):
        spec = mca_adapter.parameter_spec()
        candidates = [spec.sample(rng) for _ in range(3)]
        pairs = [(arrays, sample_blocks[start:start + 5])
                 for arrays, start in zip(candidates, (0, 5, 3))]
        batch = mca_adapter.predict_timings_batch(pairs)
        assert [row.shape for row in batch] == [(5,)] * 3
        for (arrays, blocks), row in zip(pairs, batch):
            assert np.array_equal(row, mca_adapter.predict_timings(arrays, blocks))

    def test_predict_timings_batch_falls_back_without_engine(self, sample_blocks):
        class Constant(SimulatorAdapter):
            def parameter_spec(self):
                raise NotImplementedError

            def default_arrays(self):
                raise NotImplementedError

            def predict_timings(self, arrays, blocks):
                return np.full(len(blocks), 2.0)

        batch = Constant().predict_timings_batch([(object(), sample_blocks[:3]),
                                                  (object(), sample_blocks[:2])])
        assert [row.shape for row in batch] == [(3,), (2,)]
        assert all(np.all(row == 2.0) for row in batch)
        assert Constant().predict_timings_batch([]) == []

    def test_simulator_factory_drives_engine_and_build_simulator(self, sample_blocks):
        """Overriding simulator_factory customizes both prediction paths."""
        import functools

        from repro.llvm_mca.simulator import MCASimulator

        class ShortWindow(MCAAdapter):
            def simulator_factory(self):
                return functools.partial(MCASimulator, warmup_iterations=1,
                                         measure_iterations=2)

        adapter = ShortWindow(HASWELL)
        arrays = adapter.default_arrays()
        table = adapter.table_from_arrays(arrays)
        expected = MCASimulator(table, warmup_iterations=1,
                                measure_iterations=2).predict_many(sample_blocks[:4])
        assert np.array_equal(adapter.predict_timings(arrays, sample_blocks[:4]), expected)
        built = adapter.build_simulator(arrays)
        assert built.warmup_iterations == 1 and built.measure_iterations == 2

    def test_table_from_arrays_is_memoized_by_digest(self, monkeypatch):
        adapter = MCAAdapter(HASWELL)
        calls = []
        original = MCAAdapter.table_from_arrays

        def counting(self, arrays):
            calls.append(1)
            return original(self, arrays)

        monkeypatch.setattr(MCAAdapter, "table_from_arrays", counting)
        arrays = adapter.default_arrays()
        blocks = []
        adapter.predict_timings(arrays, blocks)
        adapter.predict_timings(arrays, blocks)
        # An equal-content copy must also reuse the conversion.
        adapter.predict_timings(arrays.copy(), blocks)
        assert len(calls) == 1

    def test_native_table_returns_equivalent_table(self, mca_adapter):
        arrays = mca_adapter.default_arrays()
        cached = mca_adapter.native_table(arrays)
        rebuilt = mca_adapter.table_from_arrays(arrays)
        assert mca_table_digest(cached) == mca_table_digest(rebuilt)
        assert mca_adapter.native_table(arrays.copy()) is cached

    def test_adapter_engine_is_shared_and_lazy(self):
        adapter = MCAAdapter(HASWELL)
        assert getattr(adapter, "_engine", None) is None
        assert adapter.engine is adapter.engine

    def test_non_engine_adapter_raises(self):
        class Minimal(SimulatorAdapter):
            def parameter_spec(self):
                raise NotImplementedError

            def default_arrays(self):
                raise NotImplementedError

            def predict_timings(self, arrays, blocks):
                return np.zeros(len(blocks))

        with pytest.raises(NotImplementedError):
            _ = Minimal().engine

    def test_engine_workers_plumbing(self):
        adapter = MCAAdapter(HASWELL, engine_workers=2)
        engine = adapter.engine
        assert engine.num_workers == 2
        assert isinstance(engine, SimulationEngine)
