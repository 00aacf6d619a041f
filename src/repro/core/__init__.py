"""DiffTune core: learning simulator parameters via differentiable surrogates.

This package implements the paper's primary contribution (Section III–IV):

1. :mod:`~repro.core.parameters` — a generic description of a simulator's
   ordinal parameter space (global + per-instruction fields, lower bounds,
   integer constraints, sampling distributions).  Categorical and
   dependent parameters, which the paper's Section VII leaves as future
   work, are not modelled.
2. :mod:`~repro.core.adapters` — adapters binding that description to the
   concrete simulators (llvm-mca and llvm_sim), including conversion between
   optimization arrays and native parameter tables.
3. :mod:`~repro.core.simulated_dataset` — collection of the
   ``(parameters, block, simulated timing)`` dataset used to train the
   surrogate.
4. :mod:`~repro.core.surrogate` — the differentiable surrogate models: the
   Ithemal-style stacked-LSTM surrogate from the paper and a faster pooled
   variant for CPU-budget experiments.
5. :mod:`~repro.core.surrogate_training` / :mod:`~repro.core.table_optimization`
   — the two gradient-based optimization phases (Equations 2 and 3).
6. :mod:`~repro.core.extraction` — mapping learned continuous values back to
   valid integer parameter tables.
7. :mod:`~repro.core.difftune` — the end-to-end driver.

Adapters, the driver and the config presets are imported from their defining
submodules (``repro.core.adapters``, ``repro.core.difftune``,
``repro.core.config``); end-to-end runs go through the registry-driven facade
in :mod:`repro.api` (``Session.from_spec(...)``).
"""

from repro.core.parameters import (ParameterField, ParameterSpec, ParameterArrays,
                                   PORT_MAP_FIELD_NAME)
from repro.core.surrogate import (SurrogateConfig, BlockFeaturizer, IthemalSurrogate,
                                  PackedBlockBatch, PooledSurrogate, build_surrogate)
from repro.core.simulated_dataset import SimulatedDataset, collect_simulated_dataset
from repro.core.losses import mape_loss_value, surrogate_loss
from repro.core.surrogate_training import (SurrogateTrainingConfig, evaluate_surrogate,
                                           train_surrogate)
from repro.core.table_optimization import TableOptimizationConfig, optimize_parameter_table
from repro.core.extraction import extract_parameter_arrays

__all__ = [
    "ParameterField",
    "ParameterSpec",
    "ParameterArrays",
    "PORT_MAP_FIELD_NAME",
    "SurrogateConfig",
    "BlockFeaturizer",
    "IthemalSurrogate",
    "PooledSurrogate",
    "build_surrogate",
    "PackedBlockBatch",
    "evaluate_surrogate",
    "SimulatedDataset",
    "collect_simulated_dataset",
    "mape_loss_value",
    "surrogate_loss",
    "SurrogateTrainingConfig",
    "train_surrogate",
    "TableOptimizationConfig",
    "optimize_parameter_table",
    "extract_parameter_arrays",
]
