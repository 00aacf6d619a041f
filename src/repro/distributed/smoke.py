"""CI smoke: run a tiny 2×2 matrix through the pool and remote executors.

Run as ``python -m repro.distributed.smoke``.  Exercises the whole matrix
stack end to end in under a minute: shared corpus build, inline reference
run, a process-pool run asserted byte-identical, and a single-cell remote
run against a live ``CampaignWorker`` on an ephemeral port.
"""

from __future__ import annotations

import json
import sys
import tempfile

from repro.distributed import CampaignWorker, MatrixCampaignSpec, run_matrix

CAMPAIGN = {
    "axes": [{"field": "WriteLatency", "opcode": "ADD32rr",
              "values": [1, 3, 5]}],
    "num_blocks": 30,
    "chunk_size": 8,
}
CELLS = [{"target": "haswell", "simulator": "mca"},
         {"target": "haswell", "simulator": "llvm_sim"},
         {"target": "zen2", "simulator": "mca"},
         {"target": "zen2", "simulator": "llvm_sim"}]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-matrix-smoke-") as root:
        base = {"campaign": CAMPAIGN, "cells": CELLS,
                "corpus_dir": f"{root}/corpora"}
        inline = run_matrix(MatrixCampaignSpec.from_dict(base))
        assert inline.status == "complete", inline.report
        assert inline.report["num_completed_cells"] == len(CELLS)
        pooled = run_matrix(MatrixCampaignSpec.from_dict(
            dict(base, executor="pool", workers=2)))
        reference = json.dumps(inline.report, sort_keys=True)
        assert json.dumps(pooled.report, sort_keys=True) == reference, \
            "pool executor diverged from the inline reference report"

        worker = CampaignWorker(port=0)
        handle = worker.start_in_thread()
        try:
            remote = run_matrix(MatrixCampaignSpec.from_dict(
                dict(base, cells=CELLS[:1], executor="remote",
                     worker_urls=[handle.url])))
        finally:
            handle.stop()
        assert remote.status == "complete", remote.report
        assert (json.dumps(remote.report["cells"], sort_keys=True)
                == json.dumps({key: cell for key, cell
                               in inline.report["cells"].items()
                               if key == "haswell__mca"}, sort_keys=True)), \
            "remote executor diverged from the inline reference cell"
    print(f"matrix smoke ok: {len(CELLS)} cells byte-identical across "
          f"inline/pool, remote cell matched, worker stopped cleanly")
    return 0


if __name__ == "__main__":
    from repro.cli import print_messages

    with print_messages():
        sys.exit(main())
