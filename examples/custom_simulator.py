#!/usr/bin/env python3
"""Tune a *custom* simulator with DiffTune, including a categorical parameter.

The paper frames DiffTune as a generic algorithm for "learning the parameters
of programs" (Section III); llvm-mca is just the instantiation it evaluates.
This example shows what plugging in your own simulator looks like:

1. define a tiny in-order basic-block simulator with three ordinal parameters
   (IssueWidth, AluLatency, LoadLatency) and one *categorical* parameter
   (ForwardingPolicy: none / partial / full), plus a dependent-parameter
   constraint (AluLatency <= LoadLatency);
2. wrap it in a :class:`~repro.core.adapters.SimulatorAdapter` so the generic
   DiffTune machinery (sampling, surrogate, table optimization) drives it,
   and register it in the :data:`repro.api.SIMULATORS` registry — exactly
   what a third-party package would do through the ``repro.simulators``
   entry-point group — so the public API constructs it by key;
3. pick the categorical parameter by enumeration: learn the ordinal
   parameters once per choice and keep the choice with the lowest test
   error (Section VII leaves learning categorical parameters as future
   work);
4. learn the ordinal parameters from end-to-end timings of the Haswell
   hardware model and compare against the true configuration.

Runs in about a minute on a laptop CPU.
"""

import argparse
from typing import List, Optional, Sequence

import numpy as np

from repro.api import SIMULATORS, SimulatorPlugin
from repro.api.registries import PRESETS
from repro.bhive import build_dataset
from repro.core.adapters import SimulatorAdapter
from repro.core.difftune import DiffTune
from repro.core.losses import mape_loss_value
from repro.core.parameters import ParameterArrays, ParameterField, ParameterSpec
from repro.isa.basic_block import BasicBlock
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE


# ----------------------------------------------------------------------
# 1. A tiny custom simulator
# ----------------------------------------------------------------------
class ToySimulator:
    """An in-order issue-width/latency model of basic-block execution.

    Parameters: IssueWidth (instructions per cycle), AluLatency and
    LoadLatency (dependency latencies), and a categorical ForwardingPolicy
    that scales how much of a producer's latency a dependent instruction
    actually waits for ("none" = all of it, "partial" = 60%, "full" = 30%).
    """

    FORWARDING_FACTOR = {"none": 1.0, "partial": 0.6, "full": 0.3}

    def __init__(self, issue_width: float, alu_latency: float, load_latency: float,
                 forwarding: str = "none") -> None:
        if forwarding not in self.FORWARDING_FACTOR:
            raise ValueError(f"unknown forwarding policy: {forwarding}")
        self.issue_width = max(1.0, float(issue_width))
        self.alu_latency = max(0.0, float(alu_latency))
        self.load_latency = max(0.0, float(load_latency))
        self.forwarding = forwarding

    def predict_timing(self, block: BasicBlock) -> float:
        throughput_bound = len(block) / self.issue_width
        factor = self.FORWARDING_FACTOR[self.forwarding]
        finish = [0.0] * len(block)
        producers = [[] for _ in range(len(block))]
        for producer, consumer, _register in block.register_dependencies():
            producers[consumer].append(producer)
        for index, instruction in enumerate(block):
            latency = self.load_latency if instruction.is_load else self.alu_latency
            ready = max((finish[p] for p in producers[index]), default=0.0)
            finish[index] = ready + latency * factor
        latency_bound = max(finish) / max(len(block), 1)
        return max(throughput_bound, latency_bound, 0.1)

    def predict_many(self, blocks: Sequence[BasicBlock]) -> np.ndarray:
        return np.array([self.predict_timing(block) for block in blocks])


# ----------------------------------------------------------------------
# 2. The adapter DiffTune programs against
# ----------------------------------------------------------------------
class ToyAdapter(SimulatorAdapter):
    """Binds the toy simulator's three ordinal parameters to DiffTune."""

    def __init__(self, forwarding: str = "none") -> None:
        self.opcode_table = DEFAULT_OPCODE_TABLE
        self.forwarding = forwarding
        self._spec = ParameterSpec(
            global_fields=[
                ParameterField("IssueWidth", 1, lower_bound=1, integer=True,
                               sample_low=1, sample_high=8),
                ParameterField("AluLatency", 1, lower_bound=0, integer=True,
                               sample_low=0, sample_high=5),
                ParameterField("LoadLatency", 1, lower_bound=0, integer=True,
                               sample_low=0, sample_high=8),
            ],
            per_instruction_fields=[
                # DiffTune requires at least one per-instruction field for its
                # surrogate input layout; a 1-wide unused field keeps the toy
                # simulator honest about the interface without affecting it.
                ParameterField("Unused", 1, lower_bound=0, integer=True,
                               sample_low=0, sample_high=1),
            ],
            num_opcodes=len(self.opcode_table))

    def parameter_spec(self) -> ParameterSpec:
        return self._spec

    def default_arrays(self) -> ParameterArrays:
        return ParameterArrays(global_values=np.array([4.0, 1.0, 4.0]),
                               per_instruction_values=np.zeros((len(self.opcode_table), 1)))

    def _simulator(self, arrays: ParameterArrays) -> ToySimulator:
        issue, alu, load = arrays.global_values[:3]
        # Dependent-parameter constraint (Section VII): an ALU result can
        # never be slower than a load in this model.
        alu = min(alu, load)
        return ToySimulator(issue_width=issue, alu_latency=alu, load_latency=load,
                            forwarding=self.forwarding)

    def predict_timings(self, arrays: ParameterArrays,
                        blocks: Sequence[BasicBlock]) -> np.ndarray:
        return self._simulator(arrays).predict_many(blocks)


def _toy_adapter_factory(uarch, *, forwarding: str = "none",
                         learn_fields: Optional[Sequence[str]] = None,
                         narrow_sampling: bool = True,
                         engine_workers: int = 0) -> ToyAdapter:
    """Registry factory: the toy model ignores the target microarchitecture.

    Unsupported capabilities are rejected loudly (the plugin also declares
    ``supports_partial_learning=False`` so spec validation catches this
    before any work happens) — never silently swallowed.
    """
    if learn_fields is not None:
        raise ValueError("the toy simulator learns its full parameter set; "
                         "learn_fields is not supported")
    return ToyAdapter(forwarding=forwarding)


def _toy_load_table(path: str, opcode_table) -> None:
    raise NotImplementedError("the toy simulator has no table serialization")


# Registering makes the toy simulator constructible by key everywhere the
# registries are consulted (Session, CLI, benchmark harness).  A separate
# package would do this from a `repro.simulators` entry point instead.
if "toy" not in SIMULATORS:
    SIMULATORS.register(
        "toy",
        SimulatorPlugin(name="toy",
                        summary="in-order issue-width/latency toy model "
                                "with a categorical forwarding policy",
                        adapter_factory=_toy_adapter_factory,
                        load_table=_toy_load_table,
                        supports_partial_learning=False),
        source=__name__)


# ----------------------------------------------------------------------
# 3 + 4. Learn the parameters, enumerate the categorical choice
# ----------------------------------------------------------------------
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    arguments = parser.parse_args()

    print(f"Generating and measuring {arguments.blocks} Haswell blocks...")
    dataset = build_dataset("haswell", num_blocks=arguments.blocks, seed=arguments.seed)
    train = dataset.train_examples
    test = dataset.test_examples
    train_blocks = [example.block for example in train]
    train_timings = np.array([example.timing for example in train])
    test_blocks = [example.block for example in test]
    test_timings = np.array([example.timing for example in test])

    print("\nLearning ordinal parameters for each forwarding policy...")
    results = {}
    for choice in ToySimulator.FORWARDING_FACTOR:
        # Constructed through the registry, like any built-in simulator.
        adapter = SIMULATORS.get("toy").create_adapter(None, forwarding=choice)
        difftune = DiffTune(adapter, PRESETS.get("test")(arguments.seed))
        learned = difftune.learn(train_blocks, train_timings)
        test_error = mape_loss_value(
            adapter.predict_timings(learned.learned_arrays, test_blocks), test_timings)
        issue, alu, load = learned.learned_arrays.global_values[:3]
        results[choice] = (test_error, (issue, alu, load))
        print(f"  forwarding={choice:<8s} -> test error {test_error * 100:6.1f}%  "
              f"(IssueWidth={issue:.0f}, AluLatency={alu:.0f}, LoadLatency={load:.0f})")

    best_choice = min(results, key=lambda name: results[name][0])
    print(f"\nSelected categorical value: {best_choice}")

    default_adapter = ToyAdapter(forwarding="none")
    default_error = mape_loss_value(
        default_adapter.predict_timings(default_adapter.default_arrays(), test_blocks),
        test_timings)
    best_error = results[best_choice][0]
    print(f"Hand-written default configuration error: {default_error * 100:.1f}%")
    print(f"Learned configuration error:              {best_error * 100:.1f}%")
    if best_error <= default_error:
        print("DiffTune matched or beat the hand-written defaults on the custom simulator.")
    else:
        print("DiffTune did not beat the defaults at this tiny scale; "
              "increase --blocks for a better fit.")


if __name__ == "__main__":
    main()
