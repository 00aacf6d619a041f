#!/usr/bin/env python3
"""Run a small 2x2 matrix campaign: 2 uarches x 2 simulators, one sweep.

Fans a single WriteLatency sweep over ``{haswell, zen2} x {mca, llvm_sim}``
through the distributed matrix scheduler (:mod:`repro.distributed`): the
per-target corpora are built once and shared by both simulators, the cells
run through the chosen executor (``--executor pool`` overlaps them across
processes), and the per-cell campaign reports are aggregated into one
``matrix_report.json`` with a cross-cell comparison table.  The same matrix
is runnable from the CLI::

    python -m repro.cli matrix run --targets haswell zen2 \\
        --axis "WriteLatency@ADD32rr=1,2,3,4,5" --blocks 120 \\
        --executor pool --workers 2 --output matrix_report.json
"""

import argparse
import logging

from repro.api import MatrixCampaignSpec, run_matrix
from repro.distributed import format_matrix_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=120,
                        help="corpus blocks per target")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--executor", default="inline",
                        choices=["inline", "pool"],
                        help="'pool' runs cells in parallel processes")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent cells for --executor pool")
    parser.add_argument("--output", default=None,
                        help="write the aggregate matrix_report.json here")
    arguments = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="[%(name)s] %(message)s")

    spec = MatrixCampaignSpec(
        campaign={"axes": [{"field": "WriteLatency", "opcode": "ADD32rr",
                            "values": [1, 2, 3, 4, 5]}],
                  "num_blocks": arguments.blocks, "seed": arguments.seed,
                  "chunk_size": 16},
        targets=["haswell", "zen2"], simulators=["mca", "llvm_sim"],
        executor=arguments.executor, workers=arguments.workers,
        report_path=arguments.output)
    print(f"Running {len(spec.resolve_cells())} cells "
          f"({arguments.blocks} blocks per target) via the "
          f"{arguments.executor!r} executor...")
    result = run_matrix(spec)

    print()
    print(format_matrix_report(result.report))
    print(f"\n{result.status} in {result.elapsed_seconds:.1f}s; best variant "
          f"per cell:")
    for cell, best in result.report["best_variant_per_cell"].items():
        print(f"  {cell:<22} {best['assignment']}  "
              f"error {best['error'] * 100:.2f}%")
    if result.report_path:
        print(f"wrote {result.report_path}")


if __name__ == "__main__":
    main()
