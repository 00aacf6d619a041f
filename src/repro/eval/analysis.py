"""Error analyses: per-application/category breakdowns, histograms, case studies.

These functions regenerate the analysis artifacts of the paper's evaluation
and analysis sections:

* :func:`per_application_error` / :func:`per_category_error` — Table V.
* :func:`parameter_histograms` — Figure 4 (default vs learned distributions).
* :func:`case_study_report` — the Section VI-C case studies (PUSH64r,
  XOR32rr, ADD32mr) on individual blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.bhive.categories import BlockCategory
from repro.bhive.dataset import BasicBlockDataset
from repro.eval.metrics import mean_absolute_percentage_error
from repro.isa.basic_block import BasicBlock
from repro.llvm_mca.params import MCAParameterTable
from repro.llvm_mca.simulator import MCASimulator

Predictor = Callable[[Sequence[BasicBlock]], np.ndarray]


def _grouped_error(dataset: BasicBlockDataset, groups: Dict, predictor: Predictor
                   ) -> Dict[str, Tuple[int, float]]:
    """Error per group: returns ``{group: (num_blocks, error)}``."""
    results: Dict[str, Tuple[int, float]] = {}
    for group, indices in groups.items():
        blocks = [dataset[index].block for index in indices]
        targets = np.array([dataset[index].timing for index in indices])
        if not blocks:
            continue
        predictions = predictor(blocks)
        results[str(group)] = (len(blocks),
                               mean_absolute_percentage_error(predictions, targets))
    return results


def per_application_error(dataset: BasicBlockDataset, predictor: Predictor
                          ) -> Dict[str, Tuple[int, float]]:
    """Test-set error grouped by source application (Table V, top half)."""
    return _grouped_error(dataset, dataset.per_application_indices(), predictor)


def per_category_error(dataset: BasicBlockDataset, predictor: Predictor
                       ) -> Dict[str, Tuple[int, float]]:
    """Test-set error grouped by resource category (Table V, bottom half)."""
    return _grouped_error(dataset, dataset.per_category_indices(), predictor)


# ----------------------------------------------------------------------
# Figure 4: parameter-value histograms
# ----------------------------------------------------------------------
def parameter_histograms(default_table: MCAParameterTable, learned_table: MCAParameterTable,
                         max_value: int = 10) -> Dict[str, Dict[str, List[int]]]:
    """Histograms of default vs learned per-instruction parameter values.

    Returns, for each parameter family, ``{"default": counts, "learned":
    counts}`` where ``counts[v]`` is the number of values equal to ``v``
    (values above ``max_value`` are clipped into the last bucket), matching
    the presentation of Figure 4.
    """
    def histogram(values: np.ndarray) -> List[int]:
        clipped = np.clip(values.astype(np.int64).ravel(), 0, max_value)
        return np.bincount(clipped, minlength=max_value + 1).tolist()

    return {
        "NumMicroOps": {"default": histogram(default_table.num_micro_ops),
                        "learned": histogram(learned_table.num_micro_ops)},
        "WriteLatency": {"default": histogram(default_table.write_latency),
                         "learned": histogram(learned_table.write_latency)},
        "ReadAdvanceCycles": {"default": histogram(default_table.read_advance_cycles),
                              "learned": histogram(learned_table.read_advance_cycles)},
        "PortMap": {"default": histogram(default_table.port_map),
                    "learned": histogram(learned_table.port_map)},
    }


# ----------------------------------------------------------------------
# Section VI-C case studies
# ----------------------------------------------------------------------
@dataclass
class CaseStudy:
    """One case-study block with default/learned predictions and ground truth."""

    name: str
    assembly: str
    true_timing: float
    default_prediction: float
    learned_prediction: float
    default_latency: int
    learned_latency: int


def case_study_report(blocks: Dict[str, Tuple[BasicBlock, str]],
                      default_table: MCAParameterTable, learned_table: MCAParameterTable,
                      measure: Callable[[BasicBlock], float]) -> List[CaseStudy]:
    """Build the Section VI-C case-study comparison.

    Args:
        blocks: ``{case name: (block, opcode of interest)}``.
        default_table: The expert default table.
        learned_table: The learned table.
        measure: Ground-truth measurement function for a block.
    """
    default_simulator = MCASimulator(default_table)
    learned_simulator = MCASimulator(learned_table)
    report = []
    for name, (block, opcode_name) in blocks.items():
        report.append(CaseStudy(
            name=name,
            assembly=block.to_assembly(),
            true_timing=measure(block),
            default_prediction=default_simulator.predict_timing(block),
            learned_prediction=learned_simulator.predict_timing(block),
            default_latency=default_table.latency_of(opcode_name),
            learned_latency=learned_table.latency_of(opcode_name),
        ))
    return report
