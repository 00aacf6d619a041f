"""Property tests pinning the megabatch kernels to the scalar simulators.

The megabatch paths (``predict_timing_batch``, the engine's gathered-miss
execution, the chunked parallel fan-out) are pure reimplementations of the
per-block scalar kernels in int64 cycle arithmetic, so their timings must be
*bit-identical* — not merely close — for every table and every block.  These
tests sweep randomly sampled parameter tables and randomly generated block
corpora for both simulators and assert exact equality, plus the edge cases
the kernels special-case: ragged batches, duplicate and empty batches,
single-instruction blocks, shrunken iteration windows, tiny reorder buffers
(the in-kernel ROB slow path), skinny chunks (scalar fallback), and
cache-hit/miss interleavings through the engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bhive.generator import BlockGenerator
from repro.core.adapters import LLVMSimAdapter, MCAAdapter
from repro.engine import (MIN_LOCKSTEP_BLOCKS, BlockCompiler, llvm_sim_engine,
                          mca_engine, pack_corpus, shrink_iteration_counts)
from repro.isa.basic_block import BasicBlock
from repro.llvm_mca.megabatch import simulate_packed_mca
from repro.llvm_mca.simulator import MCASimulator
from repro.llvm_sim.megabatch import simulate_packed_llvm_sim
from repro.llvm_sim.simulator import LLVMSimSimulator
from repro.targets import HASWELL


@pytest.fixture(scope="module")
def mca_adapter():
    return MCAAdapter(HASWELL)


@pytest.fixture(scope="module")
def sim_adapter():
    return LLVMSimAdapter(HASWELL)


@pytest.fixture(scope="module")
def corpus_blocks():
    return BlockGenerator(seed=7).generate_blocks(48)


def _sampled_table(adapter, seed):
    spec = adapter.parameter_spec()
    return adapter.table_from_arrays(spec.sample(np.random.default_rng(seed)))


def _scalar_timings(simulator, blocks):
    return np.array([simulator.predict_timing(block) for block in blocks],
                    dtype=np.float64)


# ----------------------------------------------------------------------
# Random tables x random blocks, both simulators (the core property)
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mca_megabatch_matches_scalar_random_tables(mca_adapter, corpus_blocks,
                                                    seed):
    simulator = MCASimulator(_sampled_table(mca_adapter, seed))
    batched = simulator.predict_timing_batch(corpus_blocks)
    assert np.array_equal(batched, _scalar_timings(simulator, corpus_blocks))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_llvm_sim_megabatch_matches_scalar_random_tables(sim_adapter,
                                                         corpus_blocks, seed):
    simulator = LLVMSimSimulator(_sampled_table(sim_adapter, seed))
    batched = simulator.predict_timing_batch(corpus_blocks)
    assert np.array_equal(batched, _scalar_timings(simulator, corpus_blocks))


@settings(max_examples=6, deadline=None)
@given(block_seed=st.integers(min_value=0, max_value=10_000))
def test_megabatch_matches_scalar_random_blocks(mca_adapter, sim_adapter,
                                                block_seed):
    blocks = BlockGenerator(seed=block_seed).generate_blocks(24)
    for simulator in (MCASimulator(mca_adapter.default_table()),
                      LLVMSimSimulator(sim_adapter.default_table())):
        batched = simulator.predict_timing_batch(blocks)
        assert np.array_equal(batched, _scalar_timings(simulator, blocks))


# ----------------------------------------------------------------------
# Edge-case batches
# ----------------------------------------------------------------------
def test_empty_batch(mca_adapter, sim_adapter):
    for simulator in (MCASimulator(mca_adapter.default_table()),
                      LLVMSimSimulator(sim_adapter.default_table())):
        result = simulator.predict_timing_batch([])
        assert result.shape == (0,)


def test_ragged_batch_with_duplicates_and_singletons(mca_adapter, sim_adapter,
                                                     corpus_blocks):
    # Mixed lengths (ragged), repeated blocks, and single-instruction blocks
    # in one batch; input order must be preserved by the scatter.
    singletons = [BasicBlock(instructions=(block.instructions[0],))
                  for block in corpus_blocks[:4]]
    ragged = list(corpus_blocks) + singletons + list(corpus_blocks[:8])
    for simulator in (MCASimulator(mca_adapter.default_table()),
                      LLVMSimSimulator(sim_adapter.default_table())):
        batched = simulator.predict_timing_batch(ragged)
        assert np.array_equal(batched, _scalar_timings(simulator, ragged))


def test_shrunken_iteration_windows(mca_adapter, sim_adapter, corpus_blocks):
    # A small dynamic-instruction cap forces the per-block window shrinking
    # (first measure, then warmup) that shrink_iteration_counts vectorizes.
    for simulator in (
            MCASimulator(mca_adapter.default_table(),
                         max_dynamic_instructions=48),
            LLVMSimSimulator(sim_adapter.default_table(),
                             max_dynamic_instructions=48)):
        batched = simulator.predict_timing_batch(corpus_blocks)
        assert np.array_equal(batched, _scalar_timings(simulator, corpus_blocks))


def test_shrink_iteration_counts_matches_scalar(mca_adapter, corpus_blocks):
    simulator = MCASimulator(mca_adapter.default_table(),
                             max_dynamic_instructions=96)
    lengths = np.array([len(block) for block in corpus_blocks], dtype=np.int64)
    warmup, measure = shrink_iteration_counts(
        lengths, simulator.warmup_iterations, simulator.measure_iterations,
        simulator.max_dynamic_instructions)
    for index, block in enumerate(corpus_blocks):
        expected = simulator._iteration_counts(len(block))
        assert (int(warmup[index]), int(measure[index])) == expected


def test_tiny_reorder_buffer_slow_path(mca_adapter, corpus_blocks):
    # A tiny ROB makes nearly every lane hit the in-kernel deferred-drain
    # bisection; the cycle walk must still match ReorderBuffer exactly.
    table = mca_adapter.default_table().copy()
    table.reorder_buffer_size = 3
    simulator = MCASimulator(table)
    batched = simulator.predict_timing_batch(corpus_blocks)
    assert np.array_equal(batched, _scalar_timings(simulator, corpus_blocks))


def test_chunking_is_invisible(mca_adapter, corpus_blocks):
    # Chunk membership must never change a block's timing, only throughput.
    simulator = MCASimulator(mca_adapter.default_table())
    reference = simulator.predict_timing_batch(corpus_blocks)
    for chunk_size in (1, 3, 7, len(corpus_blocks)):
        chunked = simulator.predict_timing_batch(corpus_blocks,
                                                 chunk_size=chunk_size)
        assert np.array_equal(chunked, reference)


def test_scalar_fallback_for_skinny_batches(mca_adapter, corpus_blocks):
    # Fewer blocks than MIN_LOCKSTEP_BLOCKS takes the per-block fallback
    # inside megabatch_timings — same bits by construction, verified anyway.
    skinny = list(corpus_blocks[:MIN_LOCKSTEP_BLOCKS - 1])
    simulator = MCASimulator(mca_adapter.default_table())
    batched = simulator.predict_timing_batch(skinny)
    assert np.array_equal(batched, _scalar_timings(simulator, skinny))


def test_precompiled_argument_matches(mca_adapter, sim_adapter, corpus_blocks):
    # The engine's fast path hands precompiled blocks to the batch kernel.
    for simulator in (MCASimulator(mca_adapter.default_table()),
                      LLVMSimSimulator(sim_adapter.default_table())):
        compiled = [simulator.compiler.compile(block)
                    for block in corpus_blocks]
        batched = simulator.predict_timing_batch(corpus_blocks,
                                                 compiled=compiled)
        assert np.array_equal(batched,
                              simulator.predict_timing_batch(corpus_blocks))


def test_packed_kernels_accept_arbitrary_lane_order(mca_adapter, sim_adapter,
                                                    corpus_blocks):
    # The kernels lexsort lanes internally; calling them directly with a
    # shuffled corpus must scatter results back into input order.
    rng = np.random.default_rng(11)
    shuffled = [corpus_blocks[i]
                for i in rng.permutation(len(corpus_blocks))]
    mca_table = mca_adapter.default_table()
    compiler = BlockCompiler(mca_table.opcode_table)
    compiled = [compiler.compile(block) for block in shuffled]
    lengths = np.array([block.length for block in compiled], dtype=np.int64)
    warmup, measure = shrink_iteration_counts(lengths, 4, 8, 2048)
    corpus = pack_corpus(compiled)

    mca_ref = _scalar_timings(MCASimulator(mca_table), shuffled)
    assert np.array_equal(
        simulate_packed_mca(mca_table, corpus, warmup, measure), mca_ref)

    sim_table = sim_adapter.default_table()
    sim_compiler = BlockCompiler(sim_table.opcode_table)
    sim_compiled = [sim_compiler.compile(block) for block in shuffled]
    sim_corpus = pack_corpus(sim_compiled)
    sim_ref = _scalar_timings(LLVMSimSimulator(sim_table), shuffled)
    assert np.array_equal(
        simulate_packed_llvm_sim(sim_table, sim_corpus, 4, 3, warmup, measure),
        sim_ref)


def test_predict_many_equals_per_block_loop(mca_adapter, sim_adapter,
                                            corpus_blocks):
    for simulator in (MCASimulator(mca_adapter.default_table()),
                      LLVMSimSimulator(sim_adapter.default_table())):
        assert np.array_equal(simulator.predict_many(corpus_blocks),
                              _scalar_timings(simulator, corpus_blocks))


# ----------------------------------------------------------------------
# Engine integration: scalar oracle, cache interleavings, parallel
# ----------------------------------------------------------------------
#: The scalar simulator each engine factory wraps (same default windows).
SCALAR_SIMULATORS = {mca_engine: MCASimulator, llvm_sim_engine: LLVMSimSimulator}


@pytest.mark.parametrize("factory,adapter_fixture",
                         [(mca_engine, "mca_adapter"),
                          (llvm_sim_engine, "sim_adapter")])
def test_engine_megabatch_matches_scalar_engine(factory, adapter_fixture,
                                                corpus_blocks, request):
    adapter = request.getfixturevalue(adapter_fixture)
    tables = [_sampled_table(adapter, seed) for seed in (1, 2)]
    engine = factory()
    fast = engine.run(tables, corpus_blocks)
    scalar = np.stack([
        _scalar_timings(SCALAR_SIMULATORS[factory](table), corpus_blocks)
        for table in tables])
    assert np.array_equal(fast, scalar)
    assert engine.stats["megabatch_batches"] == len(tables)


def test_engine_cache_interleavings(mca_adapter, corpus_blocks):
    # Warm some blocks under one table, then run overlapping batches so hits
    # and misses interleave arbitrarily; gathered megabatches must scatter
    # every miss to the right position.
    tables = [_sampled_table(mca_adapter, seed) for seed in (3, 4)]
    engine = mca_engine()
    engine.run_one(tables[0], corpus_blocks[:16])
    mixed = list(corpus_blocks[8:32]) + list(corpus_blocks[:8])
    result = engine.run(tables, mixed)
    reference = np.stack([
        _scalar_timings(MCASimulator(table), mixed) for table in tables])
    assert np.array_equal(result, reference)
    stats = engine.stats
    assert stats["result_hits"] > 0 and stats["result_misses"] > 0


def test_engine_parallel_chunked_fanout_deterministic(mca_adapter,
                                                      corpus_blocks):
    tables = [_sampled_table(mca_adapter, seed) for seed in (5, 6)]
    serial = mca_engine(num_workers=0).run(tables, corpus_blocks)
    parallel_engine = mca_engine(num_workers=2)
    parallel = parallel_engine.run(tables, corpus_blocks)
    assert np.array_equal(parallel, serial)
    again = mca_engine(num_workers=2).run(tables, corpus_blocks)
    assert np.array_equal(again, serial)
    assert parallel_engine.stats["parallel_batches"] == 1
