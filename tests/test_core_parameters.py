"""Tests for the DiffTune parameter-space description and adapters."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adapters import LLVMSimAdapter, MCAAdapter
from repro.core.parameters import ParameterArrays, ParameterField, ParameterSpec
from repro.core.parameters import PORT_MAP_FIELD_NAME
from repro.targets import HASWELL, ZEN2


def make_simple_spec(num_opcodes=5):
    return ParameterSpec(
        global_fields=[ParameterField("Width", 1, lower_bound=1, integer=True,
                                      sample_low=1, sample_high=8)],
        per_instruction_fields=[
            ParameterField("Latency", 1, lower_bound=0, integer=True,
                           sample_low=0, sample_high=5),
            ParameterField("Ports", 4, lower_bound=0, integer=True,
                           sample_low=0, sample_high=2),
        ],
        num_opcodes=num_opcodes)


class TestParameterField:
    def test_scale(self):
        field = ParameterField("X", 1, lower_bound=1, integer=True, sample_low=1, sample_high=9)
        assert field.scale == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterField("X", 0, 0, True, 0, 5)
        with pytest.raises(ValueError):
            ParameterField("X", 1, 0, True, 5, 1)
        with pytest.raises(ValueError):
            ParameterField("X", 1, 2, True, 0, 5)


class TestParameterSpec:
    def test_dimensions(self):
        spec = make_simple_spec()
        assert spec.global_dim == 1
        assert spec.per_instruction_dim == 5
        assert spec.num_parameters == 1 + 5 * 5

    def test_field_slices(self):
        spec = make_simple_spec()
        assert spec.per_instruction_field_slice("Latency") == slice(0, 1)
        assert spec.per_instruction_field_slice("Ports") == slice(1, 5)
        assert spec.global_field_slice("Width") == slice(0, 1)

    def test_field_by_name(self):
        spec = make_simple_spec()
        assert spec.field_by_name("Latency").lower_bound == 0
        with pytest.raises(KeyError):
            spec.field_by_name("Nope")

    def test_lower_bounds_and_scales(self):
        spec = make_simple_spec()
        np.testing.assert_allclose(spec.per_instruction_lower_bounds(), [0, 0, 0, 0, 0])
        np.testing.assert_allclose(spec.global_lower_bounds(), [1])
        assert spec.per_instruction_scales()[0] == 5.0

    def test_sampling_respects_ranges(self, rng):
        spec = make_simple_spec()
        arrays = spec.sample(rng)
        assert arrays.global_values.shape == (1,)
        assert arrays.per_instruction_values.shape == (5, 5)
        assert arrays.global_values[0] >= 1
        assert arrays.per_instruction_values.min() >= 0
        assert arrays.per_instruction_values[:, 0].max() <= 5

    def test_port_map_sampling_is_sparse(self, rng):
        spec = ParameterSpec(
            global_fields=[],
            per_instruction_fields=[ParameterField(PORT_MAP_FIELD_NAME, 10, 0, True, 0, 2)],
            num_opcodes=200)
        arrays = spec.sample(rng)
        # "0 to 2 cycles to between 0 and 2 randomly selected ports".
        per_row_nonzero = (arrays.per_instruction_values > 0).sum(axis=1)
        assert per_row_nonzero.max() <= 2
        assert (arrays.per_instruction_values <= 2).all()

    @pytest.mark.parametrize("placement", ["global", "per_instruction"])
    def test_port_map_narrower_than_two_ports_is_rejected(self, placement):
        narrow = ParameterField(PORT_MAP_FIELD_NAME, 1, 0, True, 0, 2)
        fields = {"global_fields": [], "per_instruction_fields": []}
        fields[f"{placement}_fields"] = [narrow]
        with pytest.raises(ValueError, match=r"^PortMap: .*at least 2 ports.*got 1"):
            ParameterSpec(num_opcodes=4, **fields)

    def test_two_port_port_map_samples(self, rng):
        spec = ParameterSpec(
            global_fields=[],
            per_instruction_fields=[ParameterField(PORT_MAP_FIELD_NAME, 2, 0, True, 1, 2)],
            num_opcodes=300)
        values = spec.sample(rng).per_instruction_values
        per_row = (values > 0).sum(axis=1)
        assert set(np.unique(per_row)) == {0, 1, 2}
        assert set(np.unique(values)) == {0.0, 1.0, 2.0}

    def test_sample_near_stays_in_range(self, rng):
        spec = make_simple_spec()
        center = spec.sample(rng)
        nearby = spec.sample_near(center, rng, spread=0.3)
        assert nearby.per_instruction_values.min() >= 0
        assert nearby.per_instruction_values[:, 0].max() <= 5 + 1e-9
        assert nearby.global_values[0] >= 1

    def test_normalize_for_surrogate_training(self, rng):
        spec = make_simple_spec()
        arrays = spec.sample(rng)
        normalized = spec.normalize_for_surrogate_training(arrays)
        assert normalized.per_instruction_values.min() >= 0
        assert normalized.per_instruction_values.max() <= 1 + 1e-9
        assert normalized.global_values.min() >= 0

    def test_clip_and_round(self):
        spec = make_simple_spec()
        arrays = ParameterArrays(global_values=np.array([-3.2]),
                                 per_instruction_values=np.full((5, 5), 2.6))
        cleaned = spec.round_to_integers(spec.clip_to_bounds(arrays))
        assert cleaned.global_values[0] == 1
        assert np.all(cleaned.per_instruction_values == 3)

    def test_flat_vector_roundtrip(self, rng):
        spec = make_simple_spec()
        arrays = spec.sample(rng)
        flat = arrays.to_flat_vector()
        restored = ParameterArrays.from_flat_vector(flat, spec.global_dim, spec.num_opcodes,
                                                    spec.per_instruction_dim)
        np.testing.assert_allclose(restored.global_values, arrays.global_values)
        np.testing.assert_allclose(restored.per_instruction_values,
                                   arrays.per_instruction_values)

    def test_flat_vector_length_check(self):
        with pytest.raises(ValueError):
            ParameterArrays.from_flat_vector(np.zeros(3), 1, 2, 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sampled_tables_always_satisfy_bounds(self, seed):
        spec = make_simple_spec(num_opcodes=8)
        arrays = spec.sample(np.random.default_rng(seed))
        clipped = spec.clip_to_bounds(arrays)
        np.testing.assert_allclose(clipped.global_values, arrays.global_values)
        np.testing.assert_allclose(clipped.per_instruction_values,
                                   arrays.per_instruction_values)


#: Upper 1e-4 tail of the chi-square distribution, by degrees of freedom
#: (``scipy.stats.chi2.isf(1e-4, dof)``, written out because the test
#: dependencies hold no scipy).  Ten seeds times nine statistics give a
#: correct sampler under a 1% chance of failing any of them.
CHI_SQUARE_CRITICAL = {1: 15.14, 2: 18.42, 5: 25.74, 9: 33.72, 44: 87.68}
#: Seeds of the distribution tests, fixed before any run.
DISTRIBUTION_SEEDS = range(10)
#: Haswell tables drawn per seed: 177,600 PortMap rows and 300 draws of
#: each global field.
DISTRIBUTION_TABLES = 300
#: A field with more values than this is tested over this many bins of
#: consecutive values (ReorderBufferSize's 201 values, for one).
MAX_BINS = 10
#: Per-row count of nonzero PortMap entries under D with 0-2 cycles: the
#: port count is uniform over {0, 1, 2} and each used port's cycles over
#: {0, 1, 2}, so P(0) = 1/3 + 1/3 * 1/3 + 1/3 * 1/9 = 13/27,
#: P(1) = 1/3 * 2/3 + 1/3 * 2 * 2/9 = 10/27 and P(2) = 1/3 * 4/9 = 4/27.
NONZERO_PORTS_PER_ROW = np.array([13, 10, 4]) / 27


def chi_square(observed, probabilities) -> float:
    observed = np.asarray(observed, dtype=np.float64)
    expected = observed.sum() * np.asarray(probabilities, dtype=np.float64)
    return float(((observed - expected) ** 2 / expected).sum())


def assert_fits(name, observed, probabilities):
    """Pearson's chi-square goodness of fit at the 1e-4 level."""
    statistic = chi_square(observed, probabilities)
    critical = CHI_SQUARE_CRITICAL[len(probabilities) - 1]
    assert statistic < critical, (
        f"{name}: chi-square {statistic:.2f} >= {critical} for counts "
        f"{np.asarray(observed).tolist()}")


def uniform_bins(num_values: int):
    """``(bin of each value, exact bin probabilities)`` of a uniform field."""
    bins = min(num_values, MAX_BINS)
    bin_of_value = np.arange(num_values) * bins // num_values
    return bin_of_value, np.bincount(bin_of_value) / num_values


@functools.lru_cache(maxsize=None)
def haswell_sample_counts(seed: int):
    """Counts over :data:`DISTRIBUTION_TABLES` Haswell tables of one seed.

    Every value is checked to be an integer inside its field's sampling
    range, each PortMap row to use at most two ports, on the way.
    """
    spec = MCAAdapter(HASWELL).parameter_spec()
    port_map = spec.field_by_name(PORT_MAP_FIELD_NAME)
    ports = spec.per_instruction_field_slice(PORT_MAP_FIELD_NAME)
    counts = {"per_row": np.zeros(3, dtype=np.int64),
              "occupancy": np.zeros(port_map.size, dtype=np.int64),
              "pairs": np.zeros((port_map.size, port_map.size), dtype=np.int64),
              "cycles": np.zeros(port_map.sample_high + 1, dtype=np.int64)}
    layouts = ([(field_, spec.global_field_slice(field_.name), "global_values")
                for field_ in spec.global_fields]
               + [(field_, spec.per_instruction_field_slice(field_.name),
                   "per_instruction_values")
                  for field_ in spec.per_instruction_fields
                  if field_.name != PORT_MAP_FIELD_NAME])
    for field_, _, _ in layouts:
        counts[field_.name] = np.zeros(field_.sample_high - field_.sample_low + 1,
                                       dtype=np.int64)
    rng = np.random.default_rng(seed)
    for _ in range(DISTRIBUTION_TABLES):
        table = spec.sample(rng)
        for field_, columns, attribute in layouts:
            values = getattr(table, attribute)[..., columns].ravel()
            offsets = values.astype(np.int64) - field_.sample_low
            assert np.array_equal(values, np.round(values)), field_.name
            assert offsets.min() >= 0 and offsets.max() < counts[field_.name].size, \
                field_.name
            counts[field_.name] += np.bincount(offsets, minlength=counts[field_.name].size)
        cycles = table.per_instruction_values[:, ports]
        used = cycles > 0
        per_row = used.sum(axis=1)
        assert per_row.max() <= 2, "a row used more than two ports"
        assert cycles.max() <= port_map.sample_high, "a port got too many cycles"
        counts["per_row"] += np.bincount(per_row, minlength=3)
        counts["occupancy"] += used.sum(axis=0)
        _, pair_ports = np.nonzero(used[per_row == 2])
        pairs = pair_ports.reshape(-1, 2)
        np.add.at(counts["pairs"], (pairs[:, 0], pairs[:, 1]), 1)
        counts["cycles"] += np.bincount(cycles[used].astype(np.int64),
                                        minlength=counts["cycles"].size)
    return counts


class TestSamplingDistribution:
    """The Haswell spec's tables follow the paper's sampling distribution D.

    PortMap rows map "0 to 2 cycles to between 0 and 2 randomly selected
    ports"; every other field is uniform over its sampling range.  Each
    statistic is tested on every seed of :data:`DISTRIBUTION_SEEDS`.
    """

    def test_port_map_is_the_paper_configuration(self, mca_adapter):
        port_map = mca_adapter.parameter_spec().field_by_name(PORT_MAP_FIELD_NAME)
        # NONZERO_PORTS_PER_ROW and the pair count assume 10 ports of 0-2 cycles.
        assert (port_map.size, port_map.sample_low, port_map.sample_high) == (10, 0, 2)

    @pytest.mark.parametrize("seed", DISTRIBUTION_SEEDS)
    def test_nonzero_ports_per_row(self, seed):
        counts = haswell_sample_counts(seed)
        assert_fits("nonzero ports per row", counts["per_row"], NONZERO_PORTS_PER_ROW)

    @pytest.mark.parametrize("seed", DISTRIBUTION_SEEDS)
    def test_port_occupancy_is_uniform(self, seed):
        counts = haswell_sample_counts(seed)
        # A row's two ports are distinct, which only makes this statistic
        # smaller than a multinomial one: the test stays conservative.
        ports = counts["occupancy"].size
        assert_fits("port occupancy", counts["occupancy"], np.full(ports, 1 / ports))

    @pytest.mark.parametrize("seed", DISTRIBUTION_SEEDS)
    def test_unordered_port_pairs_are_uniform(self, seed):
        counts = haswell_sample_counts(seed)
        # np.nonzero lists a row's ports in ascending order.
        upper = np.triu_indices(counts["pairs"].shape[0], k=1)
        assert_fits("unordered port pairs", counts["pairs"][upper],
                    np.full(upper[0].size, 1 / upper[0].size))

    @pytest.mark.parametrize("seed", DISTRIBUTION_SEEDS)
    def test_nonzero_cycles_are_uniform(self, seed):
        counts = haswell_sample_counts(seed)
        assert_fits("nonzero cycle values", counts["cycles"][1:], [0.5, 0.5])

    @pytest.mark.parametrize("seed", DISTRIBUTION_SEEDS)
    @pytest.mark.parametrize("name", ["DispatchWidth", "ReorderBufferSize", "NumMicroOps",
                                      "WriteLatency", "ReadAdvanceCycles"])
    def test_other_fields_are_uniform_over_their_range(self, seed, name):
        counts = haswell_sample_counts(seed)
        bin_of_value, probabilities = uniform_bins(counts[name].size)
        assert_fits(name, np.bincount(bin_of_value, weights=counts[name]), probabilities)


class TestMCAAdapter:
    def test_spec_matches_paper_table2(self, mca_adapter):
        spec = mca_adapter.parameter_spec()
        names = [field.name for field in spec.per_instruction_fields]
        assert names == ["NumMicroOps", "WriteLatency", "ReadAdvanceCycles", "PortMap"]
        assert [field.name for field in spec.global_fields] == \
            ["DispatchWidth", "ReorderBufferSize"]
        assert spec.per_instruction_dim == 1 + 1 + 3 + 10

    def test_parameter_count_scale(self, mca_adapter):
        # The paper counts 11265 parameters for 837 opcodes (2 + 15 per opcode
        # minus the global double count); our opcode universe is smaller but
        # the per-opcode structure is identical.
        spec = mca_adapter.parameter_spec()
        assert spec.num_parameters == 2 + 15 * len(mca_adapter.opcode_table)

    def test_default_arrays_roundtrip(self, mca_adapter):
        arrays = mca_adapter.default_arrays()
        table = mca_adapter.table_from_arrays(arrays)
        np.testing.assert_array_equal(table.write_latency,
                                      mca_adapter.default_table().write_latency)
        assert table.dispatch_width == mca_adapter.default_table().dispatch_width

    def test_table_from_arrays_clips(self, mca_adapter):
        arrays = mca_adapter.default_arrays()
        arrays.per_instruction_values[:, :] = -5.0
        arrays.global_values[:] = -1.0
        table = mca_adapter.table_from_arrays(arrays)
        table.validate()

    def test_predict_timings_shape(self, mca_adapter, sample_blocks):
        timings = mca_adapter.predict_timings(mca_adapter.default_arrays(), sample_blocks[:4])
        assert timings.shape == (4,)
        assert np.all(timings > 0)

    def test_narrow_sampling_ranges(self):
        narrow = MCAAdapter(HASWELL, narrow_sampling=True)
        wide = MCAAdapter(HASWELL, narrow_sampling=False)
        assert narrow.parameter_spec().field_by_name("NumMicroOps").sample_high < \
            wide.parameter_spec().field_by_name("NumMicroOps").sample_high

    def test_learn_fields_freezing(self, sample_blocks):
        adapter = MCAAdapter(HASWELL, learn_fields=["WriteLatency"])
        spec = adapter.parameter_spec()
        arrays = spec.sample(np.random.default_rng(0))
        table = adapter.table_from_arrays(arrays)
        default = adapter.default_table()
        # Non-learned fields come back as defaults; WriteLatency is learned.
        np.testing.assert_array_equal(table.num_micro_ops, default.num_micro_ops)
        np.testing.assert_array_equal(table.port_map, default.port_map)
        assert table.dispatch_width == default.dispatch_width
        assert not np.array_equal(table.write_latency, default.write_latency)

    def test_freeze_unlearned_fields(self):
        adapter = MCAAdapter(HASWELL, learn_fields=["WriteLatency"])
        spec = adapter.parameter_spec()
        arrays = spec.sample(np.random.default_rng(1))
        frozen = adapter.freeze_unlearned_fields(arrays)
        default = adapter.default_arrays()
        uops_slice = spec.per_instruction_field_slice("NumMicroOps")
        np.testing.assert_allclose(frozen.per_instruction_values[:, uops_slice],
                                   default.per_instruction_values[:, uops_slice])
        latency_slice = spec.per_instruction_field_slice("WriteLatency")
        np.testing.assert_allclose(frozen.per_instruction_values[:, latency_slice],
                                   arrays.per_instruction_values[:, latency_slice])

    def test_unlearned_dimension_masks(self):
        adapter = MCAAdapter(HASWELL, learn_fields=["WriteLatency"])
        per_mask, global_mask = adapter.unlearned_dimension_masks()
        spec = adapter.parameter_spec()
        assert per_mask.sum() == spec.per_instruction_dim - 1
        assert global_mask.all()
        full = MCAAdapter(HASWELL)
        assert full.unlearned_dimension_masks() == (None, None)


class TestLLVMSimAdapter:
    def test_spec_matches_table7(self, llvm_sim_adapter):
        spec = llvm_sim_adapter.parameter_spec()
        assert [field.name for field in spec.per_instruction_fields] == \
            ["WriteLatency", "PortMap"]
        assert spec.global_dim == 0

    def test_default_roundtrip(self, llvm_sim_adapter):
        arrays = llvm_sim_adapter.default_arrays()
        table = llvm_sim_adapter.table_from_arrays(arrays)
        np.testing.assert_array_equal(table.write_latency,
                                      llvm_sim_adapter.default_table().write_latency)

    def test_predict_timings(self, llvm_sim_adapter, sample_blocks):
        timings = llvm_sim_adapter.predict_timings(llvm_sim_adapter.default_arrays(),
                                                   sample_blocks[:4])
        assert timings.shape == (4,) and np.all(timings > 0)

    def test_sampling_shapes(self, llvm_sim_adapter, rng):
        arrays = llvm_sim_adapter.parameter_spec().sample(rng)
        assert arrays.global_values.shape == (0,)
        assert arrays.per_instruction_values.shape == (
            len(llvm_sim_adapter.opcode_table), 11)
