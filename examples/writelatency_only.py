#!/usr/bin/env python3
"""Section VI-B: learn only WriteLatency, keep every other parameter expert-set.

The paper's optimality analysis (Section VI-B) learns just the per-opcode
WriteLatency values — keeping NumMicroOps, ReadAdvanceCycles, the PortMap and
the global parameters at their expert defaults — and finds that this *partial*
learning problem reaches lower error (16.2% vs 23.7% on Haswell) than learning
the full set, demonstrating that full-set learning is not globally optimal.

This example reproduces that experiment end to end through the public
:mod:`repro.api` surface (``learn_fields`` on the
:class:`~repro.api.TuneSpec` restricts learning to WriteLatency) and, as in
Section VI-C, prints the learned latencies for the case-study opcodes
(PUSH64r, XOR32rr, ADD32mr) so the semantic findings can be inspected
directly:

* PUSH64r should learn latency 0 (the stack engine hides the dependency);
* XOR32rr is usually a zero idiom, so 0 is the accurate choice;
* ADD32mr cannot be fixed by any latency value (llvm-mca does not model the
  store-to-load dependency chain), so the learned value is free to drift high.
"""

import argparse
import logging

from repro.api import Session, TuneSpec
from repro.eval.metrics import error_and_tau
from repro.eval.tables import format_table
from repro.isa.parser import parse_block
from repro.llvm_mca import TimelineView

CASE_STUDY_OPCODES = ("PUSH64r", "XOR32rr", "ADD32mr")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    arguments = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="[%(name)s] %(message)s")

    # learn_fields restricts learning to WriteLatency, as in Section VI-B.
    session = Session.from_spec(
        TuneSpec(target="haswell", preset="fast", num_blocks=arguments.blocks,
                 seed=arguments.seed, learn_fields=["WriteLatency"]))

    print(f"Generating and measuring {arguments.blocks} Haswell basic blocks...")
    session.dataset()
    print("\nLearning WriteLatency only (all other parameters stay at defaults)...")
    outcome = session.tune()
    learned_table = outcome.learned_table

    test_blocks, test_timings = session.split("test")
    default_error, default_tau = error_and_tau(
        session.predict(test_blocks, session.default_table()), test_timings)
    learned_error, learned_tau = error_and_tau(
        session.predict(test_blocks, learned_table), test_timings)

    print("\n" + format_table(
        ["Configuration", "Test error", "Kendall's tau"],
        [["default (expert) parameters", f"{default_error * 100:.1f}%", f"{default_tau:.3f}"],
         ["learned WriteLatency only", f"{learned_error * 100:.1f}%", f"{learned_tau:.3f}"]],
        title="Section VI-B analogue: WriteLatency-only learning (Haswell)"))

    default_table = session.default_table()
    opcode_table = session.adapter.opcode_table
    rows = []
    for opcode in CASE_STUDY_OPCODES:
        if opcode not in opcode_table:
            continue
        rows.append([opcode, str(default_table.latency_of(opcode)),
                     str(learned_table.latency_of(opcode))])
    print("\n" + format_table(["Opcode", "Default latency", "Learned latency"], rows,
                              title="Section VI-C case-study opcodes"))

    # Show the PUSH64r case study the way a performance engineer would see it:
    # the timeline of `pushq %rbx; testl %r8d, %r8d` under both tables.
    block = parse_block("pushq %rbx\ntestl %r8d, %r8d", opcode_table)
    print("\nTimeline with the default table:")
    print(TimelineView(default_table).render_timeline(block, max_iterations=2))
    print("\nTimeline with the learned table:")
    print(TimelineView(learned_table).render_timeline(block, max_iterations=2))


if __name__ == "__main__":
    main()
