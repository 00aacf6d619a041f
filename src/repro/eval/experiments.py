"""Experiment drivers: one function per paper table or figure.

Each driver builds (or accepts) a dataset, runs the relevant predictors, and
returns a plain-data dictionary with the rows the paper reports.  The
benchmark harness under ``benchmarks/`` times these drivers and prints their
output; the examples call them directly.

Scale note: every driver takes a ``num_blocks`` / config argument so the same
code runs at test scale (seconds), benchmark scale (minutes), or larger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.iaca import IACAModel
from repro.baselines.ithemal import IthemalBaseline, IthemalConfig
from repro.baselines.opentuner import OpenTunerBaseline, OpenTunerConfig
from repro.bhive.dataset import BasicBlockDataset, build_dataset
from repro.api.registries import SIMULATORS
from repro.core.config import fast_config
from repro.autodiff.tensor import no_grad
from repro.core.difftune import DiffTune, DiffTuneConfig
from repro.core.surrogate import BlockFeaturizer, batch_parameter_inputs
from repro.eval.analysis import (case_study_report, parameter_histograms,
                                 per_application_error, per_category_error)
from repro.eval.metrics import error_and_tau, mean_absolute_percentage_error
from repro.isa.parser import parse_block
from repro.targets import get_uarch
from repro.targets.hardware import HardwareModel
from repro.targets.measured_tables import build_measured_latency_table


#: The scale tiers every benchmark scenario supports, smallest first.
SCALE_TIERS = ("smoke", "quick", "full")


@dataclass
class ExperimentScale:
    """Knobs that shrink or grow every experiment uniformly."""

    num_blocks: int = 500
    difftune: DiffTuneConfig = field(default_factory=fast_config)
    opentuner_budget: int = 40000
    ithemal_epochs: int = 4
    seed: int = 0

    @classmethod
    def benchmark(cls) -> "ExperimentScale":
        """The scale used by the benchmark harness (minutes per experiment)."""
        config = fast_config()
        config.simulated_dataset_size = 2500
        config.refinement_rounds = 2
        return cls(num_blocks=500, difftune=config, opentuner_budget=30000,
                   ithemal_epochs=4)

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """A tiny scale for integration tests and CI gating (seconds)."""
        from repro.core.config import test_config

        return cls(num_blocks=120, difftune=test_config(), opentuner_budget=2000,
                   ithemal_epochs=1)

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """The reduced scale the benchmark harness records (minutes total).

        This is the scale EXPERIMENTS.md results were collected at.
        """
        config = fast_config()
        config.simulated_dataset_size = 2200
        config.surrogate_training.epochs = 3
        config.table_optimization.epochs = 8
        config.refinement_rounds = 2
        config.refinement_dataset_size = 1000
        config.refinement_epochs = 2
        return cls(num_blocks=480, difftune=config, opentuner_budget=25000,
                   ithemal_epochs=5, seed=0)

    @classmethod
    def full(cls) -> "ExperimentScale":
        """The largest routinely-run scale (closest to the paper's grid)."""
        config = fast_config()
        config.simulated_dataset_size = 4000
        config.refinement_rounds = 2
        return cls(num_blocks=1000, difftune=config, opentuner_budget=40000,
                   ithemal_epochs=6)

    @classmethod
    def for_tier(cls, tier: str) -> "ExperimentScale":
        """The preset for one of :data:`SCALE_TIERS`."""
        try:
            return {"smoke": cls.smoke, "quick": cls.quick, "full": cls.full}[tier]()
        except KeyError:
            raise ValueError(f"unknown scale tier {tier!r}; expected one of {SCALE_TIERS}")

    def describe(self) -> Dict[str, float]:
        """A flat, JSON-ready summary of the knobs (for result fingerprints)."""
        return {
            "num_blocks": self.num_blocks,
            "seed": self.seed,
            "opentuner_budget": self.opentuner_budget,
            "ithemal_epochs": self.ithemal_epochs,
            "simulated_dataset_size": self.difftune.simulated_dataset_size,
            "surrogate_epochs": self.difftune.surrogate_training.epochs,
            "table_optimization_epochs": self.difftune.table_optimization.epochs,
            "refinement_rounds": self.difftune.refinement_rounds,
        }


def _dataset_split(dataset: BasicBlockDataset):
    train = dataset.train_examples
    test = dataset.test_examples
    train_blocks = [example.block for example in train]
    train_timings = np.array([example.timing for example in train])
    test_blocks = [example.block for example in test]
    test_timings = np.array([example.timing for example in test])
    return train_blocks, train_timings, test_blocks, test_timings


# ----------------------------------------------------------------------
# Table III: dataset summary statistics
# ----------------------------------------------------------------------
def run_table3_dataset_statistics(num_blocks: int = 1000, seed: int = 0,
                                  uarches: Sequence[str] = ("ivybridge", "haswell",
                                                            "skylake", "zen2")
                                  ) -> Dict[str, Dict[str, float]]:
    """Summary statistics of the generated dataset per microarchitecture."""
    results: Dict[str, Dict[str, float]] = {}
    for uarch in uarches:
        dataset = build_dataset(uarch, num_blocks=num_blocks, seed=seed)
        results[get_uarch(uarch).name] = dataset.summary_statistics()
    return results


# ----------------------------------------------------------------------
# Table IV: main results (default / DiffTune / Ithemal / IACA / OpenTuner)
# ----------------------------------------------------------------------
def run_table4_for_uarch(uarch_name: str, scale: Optional[ExperimentScale] = None,
                         dataset: Optional[BasicBlockDataset] = None,
                         include_opentuner: bool = True,
                         include_ithemal: bool = True
                         ) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
    """Table IV rows for one microarchitecture.

    Returns ``{predictor: (error, kendall_tau)}`` on the test split; IACA is
    ``(None, None)`` on non-Intel targets.
    """
    scale = scale or ExperimentScale()
    spec = get_uarch(uarch_name)
    if dataset is None:
        dataset = build_dataset(uarch_name, num_blocks=scale.num_blocks, seed=scale.seed)
    train_blocks, train_timings, test_blocks, test_timings = _dataset_split(dataset)
    adapter = SIMULATORS.get("mca").create_adapter(spec, narrow_sampling=True)
    results: Dict[str, Tuple[Optional[float], Optional[float]]] = {}

    # Default expert parameters.
    default_predictions = adapter.predict_timings(adapter.default_arrays(), test_blocks)
    results["Default"] = error_and_tau(default_predictions, test_timings)

    # DiffTune.
    difftune = DiffTune(adapter, scale.difftune)
    learned = difftune.learn(train_blocks, train_timings)
    learned_predictions = adapter.predict_timings(learned.learned_arrays, test_blocks)
    results["DiffTune"] = error_and_tau(learned_predictions, test_timings)

    # Ithemal baseline (learned directly on measurements).
    if include_ithemal:
        ithemal = IthemalBaseline(adapter.opcode_table,
                                  IthemalConfig(epochs=scale.ithemal_epochs,
                                                seed=scale.seed))
        ithemal.fit(train_blocks, train_timings)
        results["Ithemal"] = error_and_tau(ithemal.predict_many(test_blocks), test_timings)

    # IACA analytical baseline (Intel only).
    iaca = IACAModel(spec)
    if iaca.supported:
        results["IACA"] = error_and_tau(iaca.predict_many(test_blocks), test_timings)
    else:
        results["IACA"] = (None, None)

    # OpenTuner black-box baseline.
    if include_opentuner:
        tuner = OpenTunerBaseline(adapter, OpenTunerConfig(
            evaluation_budget=scale.opentuner_budget,
            blocks_per_evaluation=min(100, len(train_blocks)),
            seed=scale.seed))
        tuned = tuner.tune(train_blocks, train_timings)
        results["OpenTuner"] = error_and_tau(adapter.predict_timings(tuned, test_blocks),
                                             test_timings)
    return results


# ----------------------------------------------------------------------
# Table V: per-application and per-category error on Haswell
# ----------------------------------------------------------------------
def run_table5(scale: Optional[ExperimentScale] = None,
               dataset: Optional[BasicBlockDataset] = None) -> Dict[str, Dict]:
    """Per-application and per-category error of default vs learned tables."""
    scale = scale or ExperimentScale()
    spec = get_uarch("haswell")
    if dataset is None:
        dataset = build_dataset("haswell", num_blocks=scale.num_blocks, seed=scale.seed)
    train_blocks, train_timings, _test_blocks, _test_timings = _dataset_split(dataset)
    adapter = SIMULATORS.get("mca").create_adapter(spec, narrow_sampling=True)
    difftune = DiffTune(adapter, scale.difftune)
    learned = difftune.learn(train_blocks, train_timings)

    def default_predictor(blocks):
        return adapter.predict_timings(adapter.default_arrays(), blocks)

    def learned_predictor(blocks):
        return adapter.predict_timings(learned.learned_arrays, blocks)

    return {
        "per_application": {
            "default": per_application_error(dataset, default_predictor),
            "learned": per_application_error(dataset, learned_predictor),
        },
        "per_category": {
            "default": per_category_error(dataset, default_predictor),
            "learned": per_category_error(dataset, learned_predictor),
        },
    }


# ----------------------------------------------------------------------
# Table VI + Figure 4 + Figure 5: learned globals, histograms, sensitivity
# ----------------------------------------------------------------------
def run_table6_and_figures(scale: Optional[ExperimentScale] = None,
                           dataset: Optional[BasicBlockDataset] = None) -> Dict:
    """Global parameters (Table VI), histograms (Fig. 4), sensitivity (Fig. 5)."""
    scale = scale or ExperimentScale()
    spec = get_uarch("haswell")
    if dataset is None:
        dataset = build_dataset("haswell", num_blocks=scale.num_blocks, seed=scale.seed)
    train_blocks, train_timings, _test_blocks, _test_timings = _dataset_split(dataset)
    adapter = SIMULATORS.get("mca").create_adapter(spec, narrow_sampling=True)
    difftune = DiffTune(adapter, scale.difftune)
    learned_result = difftune.learn(train_blocks, train_timings)
    default_table = adapter.default_table()
    learned_table = adapter.table_from_arrays(learned_result.learned_arrays)

    # One shared engine across the four sweeps: each block compiles once and
    # its per-table results accumulate in the engine cache.
    from repro.campaigns.runner import sweep_error_curve
    from repro.engine.factories import mca_engine

    engine = mca_engine()
    dispatch_sweep_default = sweep_error_curve(
        default_table, dataset, "DispatchWidth", list(range(1, 11)),
        max_blocks=60, engine=engine)
    dispatch_sweep_learned = sweep_error_curve(
        learned_table, dataset, "DispatchWidth", list(range(1, 11)),
        max_blocks=60, engine=engine)
    rob_values = [10, 25, 50, 75, 100, 150, 200, 250, 300, 400]
    rob_sweep_default = sweep_error_curve(
        default_table, dataset, "ReorderBufferSize", rob_values,
        max_blocks=60, engine=engine)
    rob_sweep_learned = sweep_error_curve(
        learned_table, dataset, "ReorderBufferSize", rob_values,
        max_blocks=60, engine=engine)

    return {
        "table6": {
            "default": {"DispatchWidth": default_table.dispatch_width,
                        "ReorderBufferSize": default_table.reorder_buffer_size},
            "learned": {"DispatchWidth": learned_table.dispatch_width,
                        "ReorderBufferSize": learned_table.reorder_buffer_size},
        },
        "figure4": parameter_histograms(default_table, learned_table),
        "figure5": {
            "DispatchWidth": {"default": dispatch_sweep_default,
                              "learned": dispatch_sweep_learned},
            "ReorderBufferSize": {"default": rob_sweep_default,
                                  "learned": rob_sweep_learned},
        },
    }


# ----------------------------------------------------------------------
# Figure 2: surrogate vs simulator while sweeping DispatchWidth
# ----------------------------------------------------------------------
def run_figure2_surrogate_sweep(scale: Optional[ExperimentScale] = None,
                                block_assembly: str = "shrq $5, 16(%rsp)",
                                dataset: Optional[BasicBlockDataset] = None) -> Dict:
    """Timing of llvm-mca vs the trained surrogate while sweeping DispatchWidth."""
    scale = scale or ExperimentScale()
    spec = get_uarch("haswell")
    if dataset is None:
        dataset = build_dataset("haswell", num_blocks=max(200, scale.num_blocks // 2),
                                seed=scale.seed)
    train_blocks, _train_timings, _tb, _tt = _dataset_split(dataset)
    adapter = SIMULATORS.get("mca").create_adapter(spec, narrow_sampling=True)
    difftune = DiffTune(adapter, scale.difftune)
    rng = np.random.default_rng(scale.seed)
    simulated = difftune.collect_simulated_dataset(train_blocks, rng)
    surrogate = difftune.build_surrogate()
    from repro.core.surrogate_training import train_surrogate

    train_surrogate(surrogate, simulated, scale.difftune.surrogate_training)

    block = parse_block(block_assembly)
    parameter_spec = adapter.parameter_spec()
    base_arrays = adapter.default_arrays()
    widths = list(range(1, 11))
    tables = []
    for width in widths:
        arrays = base_arrays.copy()
        arrays.global_values[parameter_spec.global_field_slice("DispatchWidth")] = width
        tables.append(arrays)
    simulator_curve = [(width, float(adapter.predict_timing(arrays, block)))
                       for width, arrays in zip(widths, tables)]
    # One batched forward: the block packed once per width, each row with
    # its own table.
    packed = BlockFeaturizer.pack([difftune.featurizer.arrays(block)] * len(widths))
    per_instruction, global_values = batch_parameter_inputs(parameter_spec, packed,
                                                            tables)
    with no_grad():
        predictions = surrogate.forward_batch(packed, per_instruction,
                                              global_values).numpy()
    surrogate_curve = [(width, float(prediction))
                       for width, prediction in zip(widths, predictions)]
    return {"block": block.to_assembly(), "llvm_mca": simulator_curve,
            "surrogate": surrogate_curve}


# ----------------------------------------------------------------------
# Section II-B: measured min/median/max latency tables
# ----------------------------------------------------------------------
def run_section2b_measured_tables(num_blocks: int = 400, seed: int = 0) -> Dict[str, float]:
    """Error of llvm-mca under measured min/median/max latency tables (Haswell)."""
    spec = get_uarch("haswell")
    dataset = build_dataset("haswell", num_blocks=num_blocks, seed=seed)
    _train_blocks, _train_timings, test_blocks, test_timings = _dataset_split(dataset)
    adapter = SIMULATORS.get("mca").create_adapter(spec)
    results: Dict[str, float] = {}
    default_predictions = adapter.predict_timings(adapter.default_arrays(), test_blocks)
    results["default"] = mean_absolute_percentage_error(default_predictions, test_timings)
    for statistic in ("min", "median", "max"):
        table = build_measured_latency_table(spec, statistic)
        # Same engine as the default-table run above, so the test blocks are
        # compiled once and shared across all four tables.
        predictions = adapter.engine.run_one(table, test_blocks)
        results[statistic] = mean_absolute_percentage_error(predictions, test_timings)
    return results


# ----------------------------------------------------------------------
# Section VI-B: WriteLatency-only learning
# ----------------------------------------------------------------------
def run_section6b_writelatency_only(scale: Optional[ExperimentScale] = None,
                                    dataset: Optional[BasicBlockDataset] = None
                                    ) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
    """Learning only WriteLatency, keeping every other parameter at its default."""
    scale = scale or ExperimentScale()
    spec = get_uarch("haswell")
    if dataset is None:
        dataset = build_dataset("haswell", num_blocks=scale.num_blocks, seed=scale.seed)
    train_blocks, train_timings, test_blocks, test_timings = _dataset_split(dataset)
    results: Dict[str, Tuple[Optional[float], Optional[float]]] = {}

    default_adapter = SIMULATORS.get("mca").create_adapter(spec)
    default_predictions = default_adapter.predict_timings(default_adapter.default_arrays(),
                                                          test_blocks)
    results["Default"] = error_and_tau(default_predictions, test_timings)

    latency_adapter = SIMULATORS.get("mca").create_adapter(spec, learn_fields=["WriteLatency"], narrow_sampling=True)
    difftune = DiffTune(latency_adapter, scale.difftune)
    learned = difftune.learn(train_blocks, train_timings)
    predictions = latency_adapter.predict_timings(learned.learned_arrays, test_blocks)
    results["DiffTune (WriteLatency only)"] = error_and_tau(predictions, test_timings)

    full_adapter = SIMULATORS.get("mca").create_adapter(spec, narrow_sampling=True)
    difftune_full = DiffTune(full_adapter, scale.difftune)
    learned_full = difftune_full.learn(train_blocks, train_timings)
    predictions_full = full_adapter.predict_timings(learned_full.learned_arrays, test_blocks)
    results["DiffTune (all parameters)"] = error_and_tau(predictions_full, test_timings)
    return results


# ----------------------------------------------------------------------
# Section VI-C: case studies
# ----------------------------------------------------------------------
CASE_STUDY_BLOCKS = {
    "PUSH64r": ("pushq %rbx\ntestl %r8d, %r8d", "PUSH64r"),
    "XOR32rr (zero idiom)": ("xorl %r13d, %r13d", "XOR32rr"),
    "ADD32mr (memory RMW)": ("addl %eax, 16(%rsp)", "ADD32mr"),
}


def run_section6c_case_studies(scale: Optional[ExperimentScale] = None,
                               dataset: Optional[BasicBlockDataset] = None) -> List:
    """The PUSH64r / XOR32rr / ADD32mr case studies with learned WriteLatency."""
    scale = scale or ExperimentScale()
    spec = get_uarch("haswell")
    if dataset is None:
        dataset = build_dataset("haswell", num_blocks=scale.num_blocks, seed=scale.seed)
    train_blocks, train_timings, _tb, _tt = _dataset_split(dataset)
    adapter = SIMULATORS.get("mca").create_adapter(spec, learn_fields=["WriteLatency"], narrow_sampling=True)
    difftune = DiffTune(adapter, scale.difftune)
    learned = difftune.learn(train_blocks, train_timings)
    default_table = adapter.default_table()
    learned_table = adapter.table_from_arrays(learned.learned_arrays)
    hardware = HardwareModel(spec, seed=scale.seed)
    blocks = {name: (parse_block(assembly), opcode)
              for name, (assembly, opcode) in CASE_STUDY_BLOCKS.items()}
    return case_study_report(blocks, default_table, learned_table,
                             lambda block: hardware.measure(block, noisy=False))


# ----------------------------------------------------------------------
# Table VIII (Appendix A): llvm_sim
# ----------------------------------------------------------------------
def run_table8_llvm_sim(scale: Optional[ExperimentScale] = None,
                        dataset: Optional[BasicBlockDataset] = None
                        ) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
    """Default vs DiffTune-learned parameters for the llvm_sim model (Haswell)."""
    scale = scale or ExperimentScale()
    spec = get_uarch("haswell")
    if dataset is None:
        dataset = build_dataset("haswell", num_blocks=scale.num_blocks, seed=scale.seed)
    train_blocks, train_timings, test_blocks, test_timings = _dataset_split(dataset)
    adapter = SIMULATORS.get("llvm_sim").create_adapter(spec)
    results: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
    default_predictions = adapter.predict_timings(adapter.default_arrays(), test_blocks)
    results["Default"] = error_and_tau(default_predictions, test_timings)
    difftune = DiffTune(adapter, scale.difftune)
    learned = difftune.learn(train_blocks, train_timings)
    learned_predictions = adapter.predict_timings(learned.learned_arrays, test_blocks)
    results["DiffTune"] = error_and_tau(learned_predictions, test_timings)
    return results
