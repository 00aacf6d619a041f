#!/usr/bin/env python3
"""Appendix A: apply DiffTune to a second simulator (llvm_sim).

Shows that the DiffTune implementation is simulator-agnostic: the same
pipeline that tunes the llvm-mca model also tunes the llvm_sim model (a
micro-op-level simulator with a modeled frontend) by swapping one registry
key — ``simulator="llvm_sim"`` on the :class:`~repro.api.TuneSpec` — and
nothing else.  Reproduces the shape of Table VIII: learned parameters reduce
llvm_sim's error relative to its defaults.
"""

import argparse
import logging

from repro.api import Session, TuneSpec
from repro.eval.metrics import error_and_tau
from repro.eval.tables import format_results_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    arguments = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="[%(name)s] %(message)s")

    session = Session.from_spec(
        TuneSpec(target="haswell", simulator="llvm_sim", preset="fast",
                 num_blocks=arguments.blocks, seed=arguments.seed))

    print(f"Generating and measuring {arguments.blocks} Haswell basic blocks...")
    outcome = session.tune()

    test_blocks, test_timings = session.split("test")
    rows = {}
    rows["Default"] = error_and_tau(
        session.predict(test_blocks, session.default_table()), test_timings)
    rows["DiffTune"] = error_and_tau(
        session.predict(test_blocks, outcome.learned_table), test_timings)
    print()
    print(format_results_table({"Haswell (llvm_sim)": rows}, title="Table VIII analogue"))


if __name__ == "__main__":
    main()
