"""Property-based invariants of the llvm-mca style simulator.

These are the monotonicity and consistency properties that make gradient-based
parameter optimization meaningful at all: making an instruction slower (higher
WriteLatency, more port cycles, more micro-ops) must never make the simulated
block faster, and widening global resources (DispatchWidth,
ReorderBufferSize) must never make it slower.  DiffTune's surrogate learns a
smooth approximation of exactly these monotone responses (Figure 2), so the
original simulator violating them would silently break phase-2 optimization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bhive.generator import BlockGenerator
from repro.core.adapters import LLVMSimAdapter, MCAAdapter
from repro.engine import llvm_sim_engine, mca_engine
from repro.llvm_mca import MCASimulator
from repro.llvm_sim.simulator import LLVMSimSimulator
from repro.targets import HASWELL
from repro.targets.defaults import build_default_mca_table


@pytest.fixture(scope="module")
def default_table():
    return build_default_mca_table(HASWELL)


@pytest.fixture(scope="module")
def generated_blocks():
    generator = BlockGenerator(seed=123)
    return generator.generate_blocks(12)


@pytest.fixture(scope="module")
def module_mca_adapter():
    return MCAAdapter(HASWELL)


@pytest.fixture(scope="module")
def module_llvm_sim_adapter():
    return LLVMSimAdapter(HASWELL)


def _timing(table, block):
    return MCASimulator(table).predict_timing(block)


block_index = st.integers(min_value=0, max_value=11)


class TestMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(index=block_index, extra=st.integers(min_value=1, max_value=12))
    def test_increasing_write_latency_never_speeds_up(self, index, extra, default_table,
                                                      generated_blocks):
        block = generated_blocks[index]
        base = _timing(default_table, block)
        slower = default_table.copy()
        slower.write_latency = slower.write_latency + extra
        assert _timing(slower, block) >= base - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(index=block_index, extra=st.integers(min_value=1, max_value=4))
    def test_increasing_port_occupancy_never_speeds_up(self, index, extra, default_table,
                                                       generated_blocks):
        block = generated_blocks[index]
        base = _timing(default_table, block)
        slower = default_table.copy()
        occupied = slower.port_map > 0
        slower.port_map = slower.port_map + occupied.astype(np.int64) * extra
        assert _timing(slower, block) >= base - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(index=block_index, extra=st.integers(min_value=1, max_value=6))
    def test_increasing_micro_ops_never_speeds_up(self, index, extra, default_table,
                                                  generated_blocks):
        block = generated_blocks[index]
        base = _timing(default_table, block)
        slower = default_table.copy()
        slower.num_micro_ops = slower.num_micro_ops + extra
        assert _timing(slower, block) >= base - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(index=block_index, width=st.integers(min_value=1, max_value=9))
    def test_wider_dispatch_does_not_meaningfully_slow_down(self, index, width,
                                                            default_table, generated_blocks):
        """Widening dispatch by one slot never costs more than a fraction of a cycle.

        The dispatch stage packs whole micro-ops into integer-width slots, so
        adjacent widths can differ by one packing decision (the same staircase
        llvm-mca itself exhibits); anything beyond that small discretization
        slack would indicate a real monotonicity bug.
        """
        block = generated_blocks[index]
        narrow = default_table.copy()
        narrow.dispatch_width = width
        wide = default_table.copy()
        wide.dispatch_width = width + 1
        assert _timing(wide, block) <= _timing(narrow, block) + 0.5

    @settings(max_examples=15, deadline=None)
    @given(index=block_index)
    def test_widest_dispatch_never_slower_than_narrowest(self, index, default_table,
                                                         generated_blocks):
        block = generated_blocks[index]
        narrow = default_table.copy()
        narrow.dispatch_width = 1
        wide = default_table.copy()
        wide.dispatch_width = 10
        assert _timing(wide, block) <= _timing(narrow, block) + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(index=block_index, size=st.integers(min_value=20, max_value=200))
    def test_larger_reorder_buffer_never_slows_down(self, index, size, default_table,
                                                    generated_blocks):
        block = generated_blocks[index]
        small = default_table.copy()
        small.reorder_buffer_size = size
        large = default_table.copy()
        large.reorder_buffer_size = size + 64
        assert _timing(large, block) <= _timing(small, block) + 1e-9


class TestConsistency:
    @settings(max_examples=20, deadline=None)
    @given(index=block_index)
    def test_timing_is_deterministic(self, index, default_table, generated_blocks):
        block = generated_blocks[index]
        assert _timing(default_table, block) == _timing(default_table, block)

    @settings(max_examples=20, deadline=None)
    @given(index=block_index)
    def test_timing_is_positive_and_finite(self, index, default_table, generated_blocks):
        timing = _timing(default_table, generated_blocks[index])
        assert np.isfinite(timing)
        assert timing > 0.0

    @settings(max_examples=20, deadline=None)
    @given(index=block_index)
    def test_stage_cycles_are_ordered(self, index, default_table, generated_blocks):
        result = MCASimulator(default_table).simulate(generated_blocks[index])
        for dispatch, issue, retire in zip(result.dispatch_cycles, result.issue_cycles,
                                           result.retire_cycles):
            assert dispatch <= issue <= retire

    @settings(max_examples=20, deadline=None)
    @given(index=block_index)
    def test_retirement_is_in_program_order(self, index, default_table, generated_blocks):
        result = MCASimulator(default_table).simulate(generated_blocks[index])
        retire = result.retire_cycles
        assert all(earlier <= later for earlier, later in zip(retire, retire[1:]))

    @settings(max_examples=10, deadline=None)
    @given(index=block_index)
    def test_zero_latency_zero_ports_is_dispatch_bound(self, index, default_table,
                                                       generated_blocks):
        """With no latencies and no port demand, only DispatchWidth matters."""
        block = generated_blocks[index]
        free = default_table.copy()
        free.write_latency = np.zeros_like(free.write_latency)
        free.read_advance_cycles = np.zeros_like(free.read_advance_cycles)
        free.port_map = np.zeros_like(free.port_map)
        free.num_micro_ops = np.ones_like(free.num_micro_ops)
        timing = _timing(free, block)
        dispatch_bound = len(block) / free.dispatch_width
        assert timing <= dispatch_bound + 1.0 + 1e-9


class TestEngineEquivalence:
    """The engine's batched / cached / parallel paths must be *bit-identical*
    to calling the simulators directly: the engine only reorganizes when and
    where simulations run (compile sharing, result caching, process fan-out),
    never what they compute.  Any drift here would silently decouple the
    searchers and dataset collection from the simulator they claim to tune.
    """

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_mca_batched_and_cached_match_direct(self, seed, module_mca_adapter,
                                                 generated_blocks):
        adapter = module_mca_adapter
        rng = np.random.default_rng(seed)
        tables = [adapter.table_from_arrays(adapter.parameter_spec().sample(rng))
                  for _ in range(2)]
        direct = np.stack([MCASimulator(table).predict_many(generated_blocks)
                           for table in tables])
        engine = mca_engine()
        batched = engine.run(tables, generated_blocks)
        assert np.array_equal(batched, direct)
        cached = engine.run(tables, generated_blocks)
        assert np.array_equal(cached, direct)
        assert engine.stats["result_hits"] >= direct.size

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_llvm_sim_batched_and_cached_match_direct(self, seed, module_llvm_sim_adapter,
                                                      generated_blocks):
        adapter = module_llvm_sim_adapter
        rng = np.random.default_rng(seed)
        tables = [adapter.table_from_arrays(adapter.parameter_spec().sample(rng))
                  for _ in range(2)]
        direct = np.stack([
            LLVMSimSimulator(table,
                             frontend_uops_per_cycle=HASWELL.dispatch_width
                             ).predict_many(generated_blocks)
            for table in tables])
        engine = llvm_sim_engine(frontend_uops_per_cycle=HASWELL.dispatch_width)
        assert np.array_equal(engine.run(tables, generated_blocks), direct)
        assert np.array_equal(engine.run(tables, generated_blocks), direct)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_adapter_predict_timings_matches_direct(self, seed, module_mca_adapter,
                                                    generated_blocks):
        adapter = module_mca_adapter
        rng = np.random.default_rng(seed)
        arrays = adapter.parameter_spec().sample(rng)
        direct = MCASimulator(adapter.table_from_arrays(arrays)).predict_many(generated_blocks)
        assert np.array_equal(adapter.predict_timings(arrays, generated_blocks), direct)

    def test_parallel_execution_matches_direct(self, module_mca_adapter, generated_blocks):
        """The multiprocessing executor returns the same matrix, in the same
        deterministic (table-row, block-column) order, as direct calls."""
        adapter = module_mca_adapter
        rng = np.random.default_rng(2024)
        tables = [adapter.table_from_arrays(adapter.parameter_spec().sample(rng))
                  for _ in range(3)]
        direct = np.stack([MCASimulator(table).predict_many(generated_blocks)
                           for table in tables])
        parallel = mca_engine(num_workers=2)
        assert np.array_equal(parallel.run(tables, generated_blocks), direct)
        assert parallel.stats["parallel_batches"] == 1
        # A second run is served from the cache without another fan-out.
        assert np.array_equal(parallel.run(tables, generated_blocks), direct)
        assert parallel.stats["parallel_batches"] == 1

    def test_parallel_dataset_collection_is_seed_identical(self, generated_blocks):
        """collect_simulated_dataset with engine workers draws the same rng
        sequence and produces the same examples as the serial path."""
        from repro.core.simulated_dataset import collect_simulated_dataset

        def collect(workers):
            adapter = MCAAdapter(HASWELL, narrow_sampling=True, engine_workers=workers)
            return collect_simulated_dataset(adapter, generated_blocks, 40,
                                             np.random.default_rng(17), blocks_per_table=6)

        serial = collect(0).to_arrays()
        parallel = collect(2).to_arrays()
        assert serial.keys() == parallel.keys()
        for key in serial:
            np.testing.assert_array_equal(serial[key], parallel[key])

    def test_parallel_llvm_sim_matches_direct(self, module_llvm_sim_adapter,
                                              generated_blocks):
        adapter = module_llvm_sim_adapter
        rng = np.random.default_rng(2025)
        tables = [adapter.table_from_arrays(adapter.parameter_spec().sample(rng))
                  for _ in range(2)]
        direct = np.stack([
            LLVMSimSimulator(table,
                             frontend_uops_per_cycle=HASWELL.dispatch_width
                             ).predict_many(generated_blocks)
            for table in tables])
        parallel = llvm_sim_engine(frontend_uops_per_cycle=HASWELL.dispatch_width,
                                   num_workers=2)
        assert np.array_equal(parallel.run(tables, generated_blocks), direct)
