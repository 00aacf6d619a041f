#!/usr/bin/env python3
"""Quickstart: learn llvm-mca's Haswell parameters from end-to-end timings.

This is the smallest end-to-end DiffTune run, written against the public
:mod:`repro.api` surface:

1. describe the run with a :class:`~repro.api.TuneSpec` (target, simulator,
   preset, and dataset size are all registry keys);
2. run it with :meth:`~repro.api.Session.tune` (simulated dataset ->
   surrogate -> parameter-table training);
3. compare the default, learned, and random parameter tables on the test set
   through :meth:`~repro.api.Session.predict`.

Runs in a couple of minutes on a laptop CPU.  Use ``--blocks`` / ``--fast``
to trade accuracy against runtime.
"""

import argparse
import logging
import time

import numpy as np

from repro.api import Session, TuneSpec
from repro.eval.metrics import error_and_tau
from repro.eval.tables import format_results_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=400,
                        help="number of basic blocks to generate and measure")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true",
                        help="shrink the simulated dataset for a quicker (rougher) run")
    arguments = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="[%(name)s] %(message)s")

    session = Session.from_spec(
        TuneSpec(target="haswell", simulator="mca", preset="fast",
                 num_blocks=arguments.blocks, seed=arguments.seed))
    if arguments.fast:
        session.config.simulated_dataset_size = 1000
        session.config.refinement_rounds = 1

    print(f"Generating and measuring {arguments.blocks} Haswell basic blocks...")
    dataset = session.dataset()
    print(f"  {len(dataset.train_examples)} training blocks, "
          f"{len(dataset.test_examples)} test blocks")

    start = time.time()
    outcome = session.tune()
    print(f"DiffTune finished in {time.time() - start:.0f}s")

    test_blocks, test_timings = session.split("test")
    rows = {}
    rows["Default (expert)"] = error_and_tau(
        session.predict(test_blocks, session.default_table()), test_timings)
    rows["DiffTune (learned)"] = error_and_tau(
        session.predict(test_blocks, outcome.learned_table), test_timings)
    random_arrays = session.adapter.parameter_spec().sample(
        np.random.default_rng(arguments.seed))
    rows["Random table"] = error_and_tau(
        session.predict(test_blocks, session.table_from_arrays(random_arrays)),
        test_timings)
    print()
    print(format_results_table({"Haswell": rows}, title="Test-set results"))

    learned_table = outcome.learned_table
    print("\nLearned global parameters: "
          f"DispatchWidth={learned_table.dispatch_width}, "
          f"ReorderBufferSize={learned_table.reorder_buffer_size}")
    default_table = session.default_table()
    for opcode in ("PUSH64r", "XOR32rr", "MOV64rm", "ADD64rr"):
        print(f"  WriteLatency[{opcode}]: default="
              f"{default_table.latency_of(opcode)}, "
              f"learned={learned_table.latency_of(opcode)}")


if __name__ == "__main__":
    main()
