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
cache-hit/miss interleavings through the engine.  Multi-table calls, where
every lane carries its own table, are pinned per ``(table, block)`` pair
against the scalar ``simulate_bound_*`` kernels.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.llvm_mca.megabatch
import repro.llvm_sim.megabatch
from repro.bhive.generator import BlockGenerator
from repro.core.adapters import LLVMSimAdapter, MCAAdapter
from repro.engine import (MIN_LOCKSTEP_BLOCKS, BlockCompiler, SimulationEngine,
                          bind_llvm_sim_block, bind_mca_block, llvm_sim_engine,
                          llvm_sim_table_digest, mca_engine, mca_table_digest,
                          pack_corpus, shrink_iteration_counts)
from repro.isa.basic_block import BasicBlock
from repro.llvm_mca.megabatch import simulate_packed_mca
from repro.llvm_mca.params import NUM_PORTS as MCA_PORTS
from repro.llvm_mca.simulator import MCASimulator, simulate_bound_mca
from repro.llvm_sim.megabatch import simulate_packed_llvm_sim
from repro.llvm_sim.params import NUM_PORTS as SIM_PORTS
from repro.llvm_sim.simulator import LLVMSimSimulator, simulate_bound_llvm_sim
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

    single_table = np.zeros(len(shuffled), dtype=np.intp)
    mca_ref = _scalar_timings(MCASimulator(mca_table), shuffled)
    assert np.array_equal(
        simulate_packed_mca([mca_table], corpus, single_table, warmup, measure),
        mca_ref)

    sim_table = sim_adapter.default_table()
    sim_compiler = BlockCompiler(sim_table.opcode_table)
    sim_compiled = [sim_compiler.compile(block) for block in shuffled]
    sim_corpus = pack_corpus(sim_compiled)
    sim_ref = _scalar_timings(LLVMSimSimulator(sim_table), shuffled)
    assert np.array_equal(
        simulate_packed_llvm_sim([sim_table], sim_corpus, single_table, 4, 3,
                                 warmup, measure),
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
    # Every table's misses run in one multi-table batch.
    assert engine.stats["megabatch_batches"] == 1


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


# ----------------------------------------------------------------------
# Multi-table calls: every lane under its own table
# ----------------------------------------------------------------------
def _port_rows(rng, num_opcodes, num_ports, max_used):
    """Per-opcode port counts (1-3) on at most ``max_used`` ports each."""
    rows = np.zeros((num_opcodes, num_ports), dtype=np.int64)
    for row in rows:
        used = rng.choice(num_ports, size=rng.integers(0, max_used + 1),
                          replace=False)
        row[used] = rng.integers(1, 4, size=len(used))
    return rows


def _mca_table(base, seed, dispatch_width, reorder_buffer_size, max_ports):
    """``base`` with every field the mca kernel reads redrawn.

    Micro-op counts reach past narrow dispatch widths (the extra dispatch
    cycle path), small buffers make the drain loop run, and ``max_ports``
    sets how many port slots the table's widest opcode uses.
    """
    rng = np.random.default_rng(seed)
    table = base.copy()
    num_opcodes = table.num_micro_ops.shape[0]
    table.dispatch_width = dispatch_width
    table.reorder_buffer_size = reorder_buffer_size
    table.num_micro_ops = rng.integers(1, 7, size=num_opcodes)
    table.write_latency = rng.integers(0, 9, size=num_opcodes)
    table.read_advance_cycles = rng.integers(
        0, 4, size=table.read_advance_cycles.shape)
    table.port_map = _port_rows(rng, num_opcodes, MCA_PORTS, max_ports)
    return table


def _sim_table(base, seed, max_ports):
    """``base`` with WriteLatency and the port micro-op counts redrawn."""
    rng = np.random.default_rng(seed)
    table = base.copy()
    num_opcodes = table.write_latency.shape[0]
    table.write_latency = rng.integers(0, 9, size=num_opcodes)
    table.port_uops = _port_rows(rng, num_opcodes, SIM_PORTS, max_ports)
    return table


def mca_tables(base):
    return st.builds(functools.partial(_mca_table, base),
                     seed=st.integers(0, 2 ** 32 - 1),
                     dispatch_width=st.sampled_from([1, 2, 3, 4, 8]),
                     reorder_buffer_size=st.integers(1, 40),
                     max_ports=st.integers(1, MCA_PORTS))


def sim_tables(base):
    return st.builds(functools.partial(_sim_table, base),
                     seed=st.integers(0, 2 ** 32 - 1),
                     max_ports=st.integers(1, SIM_PORTS))


def _mca_scalar(table, block):
    """One pair through the scalar kernel, with the engine's windows."""
    simulator = MCASimulator(table)
    warmup, measure = simulator._iteration_counts(len(block))
    bound = bind_mca_block(table, simulator.compiler.compile(block))
    return simulate_bound_mca(bound, int(table.dispatch_width),
                              int(table.reorder_buffer_size), warmup,
                              measure).cycles_per_iteration


def _sim_scalar(table, block):
    simulator = LLVMSimSimulator(table)
    warmup, measure = simulator._iteration_counts(len(block))
    bound = bind_llvm_sim_block(table, simulator.compiler.compile(block))
    return simulate_bound_llvm_sim(bound, simulator.frontend_uops_per_cycle,
                                   warmup, measure).cycles_per_iteration


def _expected(pairs, scalar):
    return [[scalar(table, block) for block in blocks] for table, blocks in pairs]


def _run_pairs_matches_scalar(engine, digest, tables, blocks, picks, scalar):
    """One ``run_pairs`` call with warm hits, repeats and every table."""
    # Warm some pairs so cache hits interleave with misses in the call.
    warm = blocks[::5]
    engine.run_one(tables[0], warm)
    pairs = [(table, [blocks[index] for index in pick])
             for table, pick in zip(tables, picks)]
    # The same (table, block) pairs again, later in the same call.
    pairs.append((tables[-1], pairs[-1][1][:3]))
    executed = engine.stats["executed"]
    results = engine.run_pairs(pairs)
    assert [row.tolist() for row in results] == _expected(pairs, scalar)
    # Every distinct missing pair ran exactly once, in one batch.
    misses = ({(digest(table), block.structural_key())
               for table, pair_blocks in pairs for block in pair_blocks}
              - {(digest(tables[0]), block.structural_key()) for block in warm})
    assert engine.stats["executed"] - executed == len(misses)
    assert engine.stats["megabatch_batches"] == 1 + bool(misses)


def _picks(count, num_blocks):
    return st.lists(st.lists(st.integers(0, num_blocks - 1), min_size=1,
                             max_size=num_blocks),
                    min_size=count, max_size=count)


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_mca_run_pairs_multi_table_matches_scalar(mca_adapter, corpus_blocks,
                                                  data):
    tables = data.draw(st.lists(mca_tables(mca_adapter.default_table()),
                                min_size=2, max_size=4))
    picks = data.draw(_picks(len(tables), len(corpus_blocks)))
    _run_pairs_matches_scalar(mca_engine(), mca_table_digest, tables,
                              corpus_blocks, picks, _mca_scalar)


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_llvm_sim_run_pairs_multi_table_matches_scalar(sim_adapter,
                                                       corpus_blocks, data):
    tables = data.draw(st.lists(sim_tables(sim_adapter.default_table()),
                                min_size=2, max_size=4))
    picks = data.draw(_picks(len(tables), len(corpus_blocks)))
    _run_pairs_matches_scalar(llvm_sim_engine(), llvm_sim_table_digest, tables,
                              corpus_blocks, picks, _sim_scalar)


def _fixed_tables(mca_adapter, sim_adapter):
    mca = [_mca_table(mca_adapter.default_table(), seed, width, rob, ports)
           for seed, width, rob, ports in ((1, 1, 3, 1), (2, 2, 40, 4),
                                           (3, 8, 12, MCA_PORTS))]
    sim = [_sim_table(sim_adapter.default_table(), seed, ports)
           for seed, ports in ((4, 1), (5, 3), (6, SIM_PORTS))]
    return {"mca": (mca, MCASimulator, _mca_scalar, mca_engine),
            "llvm_sim": (sim, LLVMSimSimulator, _sim_scalar, llvm_sim_engine)}


#: Each simulator's lockstep kernel, as its batch path looks it up.
KERNELS = {"mca": (repro.llvm_mca.megabatch, "simulate_packed_mca"),
           "llvm_sim": (repro.llvm_sim.megabatch, "simulate_packed_llvm_sim")}


@pytest.mark.parametrize("name", ["mca", "llvm_sim"])
def test_multi_table_chunks_mix_tables(mca_adapter, sim_adapter, corpus_blocks,
                                       name, monkeypatch):
    tables, simulator_class, scalar, _ = _fixed_tables(mca_adapter,
                                                       sim_adapter)[name]
    # Every block under every table, interleaved lane by lane.
    lane_blocks = [block for block in corpus_blocks for _ in tables]
    lane_table = np.tile(np.arange(len(tables)), len(corpus_blocks))
    expected = [scalar(tables[index], block)
                for block, index in zip(lane_blocks, lane_table)]
    tables_per_call = []
    module, attribute = KERNELS[name]
    kernel = getattr(module, attribute)

    def recording(call_tables, corpus, chunk_tables, *rest):
        tables_per_call.append(len(np.unique(chunk_tables)))
        return kernel(call_tables, corpus, chunk_tables, *rest)

    monkeypatch.setattr(module, attribute, recording)
    simulator = simulator_class(tables[0])
    # 3 and 7 lanes per chunk run the scalar fallback; the rest lockstep.
    for chunk_size in (3, 7, 16, len(lane_blocks)):
        batched = simulator.predict_timing_batch(
            lane_blocks, tables=tables, lane_table=lane_table,
            chunk_size=chunk_size)
        assert batched.tolist() == expected
    assert max(tables_per_call) == len(tables)


@pytest.mark.parametrize("name", ["mca", "llvm_sim"])
def test_multi_table_skinny_call_takes_scalar_fallback(mca_adapter, sim_adapter,
                                                       corpus_blocks, name):
    tables, _, scalar, factory = _fixed_tables(mca_adapter, sim_adapter)[name]
    pairs = [(tables[0], corpus_blocks[:3]), (tables[1], corpus_blocks[3:6])]
    assert sum(len(blocks) for _, blocks in pairs) < MIN_LOCKSTEP_BLOCKS
    results = factory().run_pairs(pairs)
    assert [row.tolist() for row in results] == _expected(pairs, scalar)


@pytest.mark.parametrize("name", ["mca", "llvm_sim"])
def test_multi_table_pooled_matches_serial(mca_adapter, sim_adapter,
                                           corpus_blocks, name):
    tables, _, _, factory = _fixed_tables(mca_adapter, sim_adapter)[name]
    pairs = [(table, corpus_blocks[offset:offset + 24])
             for offset, table in zip((0, 12, 24), tables)]
    pairs.append((tables[0], corpus_blocks[:5]))
    serial = factory().run_pairs(pairs)
    pooled_engine = factory(num_workers=2)
    pooled = pooled_engine.run_pairs(pairs)
    assert [row.tolist() for row in pooled] == [row.tolist() for row in serial]
    assert pooled_engine.stats["parallel_batches"] == 1


class _ScalarOnly:
    """A simulator without ``predict_timing_batch``, as a third party's."""

    def __init__(self, table):
        self._simulator = MCASimulator(table)

    def predict_timing(self, block):
        return self._simulator.predict_timing(block)


@pytest.mark.parametrize("num_workers", [0, 2])
def test_engine_steps_lanes_without_batch_kernel(mca_adapter, sim_adapter,
                                                 corpus_blocks, num_workers):
    tables, _, scalar, _ = _fixed_tables(mca_adapter, sim_adapter)["mca"]
    pairs = [(table, corpus_blocks[offset:offset + 10])
             for offset, table in zip((0, 5, 10), tables)]
    engine = SimulationEngine(_ScalarOnly, mca_table_digest,
                              num_workers=num_workers)
    results = engine.run_pairs(pairs)
    assert [row.tolist() for row in results] == _expected(pairs, scalar)
