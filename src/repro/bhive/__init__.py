"""A BHive-like basic-block dataset substrate.

The paper trains and evaluates against the BHive dataset (Chen et al., 2019):
~287k basic blocks sampled from real applications, each timed on several
microarchitectures under the convention that the block executes repeatedly in
a loop with all memory resident in L1.

This package provides the equivalent built entirely from the repository's own
substrates:

* :mod:`~repro.bhive.applications` — per-application generation profiles
  (OpenBLAS, Redis, SQLite, GZip, TensorFlow, Clang/LLVM, Eigen, Embree,
  FFmpeg) describing instruction mix and block-length distributions.
* :mod:`~repro.bhive.generator` — the synthetic block generator.
* :mod:`~repro.bhive.categories` — the Scalar / Vec / Scalar-Vec / Ld / St /
  Ld-St category classification used for the per-category error analysis.
* :mod:`~repro.bhive.measurement` — the timing harness that measures blocks on
  a :class:`~repro.targets.hardware.HardwareModel` (the hardware substitute).
* :mod:`~repro.bhive.dataset` — the dataset container with train/validation/
  test splits, summary statistics (Table III), and (de)serialization.
"""

from repro.bhive.applications import APPLICATION_PROFILES, ApplicationProfile
from repro.bhive.categories import BlockCategory, categorize_block
from repro.bhive.generator import BlockGenerator
from repro.bhive.measurement import MeasurementHarness
from repro.bhive.dataset import BasicBlockDataset, DatasetSplits, LabeledBlock, build_dataset

__all__ = [
    "APPLICATION_PROFILES",
    "ApplicationProfile",
    "BlockCategory",
    "categorize_block",
    "BlockGenerator",
    "MeasurementHarness",
    "BasicBlockDataset",
    "DatasetSplits",
    "LabeledBlock",
    "build_dataset",
]
