"""Named campaign presets (the paper experiments as campaigns).

Each preset is a spec *factory*: calling it returns a ready
:class:`~repro.campaigns.spec.CampaignSpec`, with keyword arguments for the
scale knobs and arbitrary spec-field overrides.  The bench scenarios and the
``repro campaign run --preset`` CLI both resolve presets here.

* ``sec5a_random_tables`` — Section V-A: error of uniformly sampled random
  parameter tables (wide sampling ranges), the one Section V-A path;
  ``tests/test_campaigns.py`` pins its statistics bit for bit.
* ``sec6c_write_latency`` — Section VI-C's case-study opcodes as a
  per-opcode WriteLatency sensitivity campaign (one-at-a-time grid).
* ``fig5_global_sensitivity`` — Figure 5: one-at-a-time curves over the
  global DispatchWidth / ReorderBufferSize parameters.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.api.registry import Registry
from repro.campaigns.spec import CampaignSpec

CAMPAIGNS = Registry("campaign preset", entry_point_group="repro.campaigns")

#: The Section VI-C case-study opcodes (see repro.eval.experiments).
SEC6C_OPCODES = ("PUSH64r", "XOR32rr", "ADD32mr")

#: Figure 5 sweep grids.
FIG5_DISPATCH_WIDTHS = tuple(range(1, 11))
FIG5_ROB_SIZES = (10, 25, 50, 75, 100, 150, 200, 250, 300, 400)


@CAMPAIGNS.register("sec5a_random_tables", aliases=("sec5a",),
                    summary="Section V-A: error distribution of random "
                            "parameter tables")
def sec5a_random_tables(num_blocks: int = 200, num_tables: int = 10,
                        seed: int = 0, **overrides: Any) -> CampaignSpec:
    payload = {"target": "haswell", "simulator": "mca", "strategy": "random",
               "axes": [], "num_variants": int(num_tables),
               "num_blocks": int(num_blocks), "seed": int(seed),
               "narrow_sampling": False}
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


@CAMPAIGNS.register("sec6c_write_latency", aliases=("sec6c",),
                    summary="Section VI-C opcodes: per-opcode WriteLatency "
                            "sensitivity curves")
def sec6c_write_latency(values: Sequence[int] = (0, 1, 2, 3, 4, 5),
                        num_blocks: int = 300, seed: int = 0,
                        **overrides: Any) -> CampaignSpec:
    axes = [{"field": "WriteLatency", "opcode": opcode,
             "values": [int(value) for value in values]}
            for opcode in SEC6C_OPCODES]
    payload = {"target": "haswell", "simulator": "mca", "strategy": "grid",
               "strategy_options": {"mode": "one_at_a_time"}, "axes": axes,
               "num_blocks": int(num_blocks), "seed": int(seed)}
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


@CAMPAIGNS.register("fig5_global_sensitivity", aliases=("fig5", "sensitivity"),
                    summary="Figure 5: DispatchWidth / ReorderBufferSize "
                            "error curves")
def fig5_global_sensitivity(num_blocks: int = 300, seed: int = 0,
                            max_blocks: int = 60,
                            **overrides: Any) -> CampaignSpec:
    axes = [{"field": "DispatchWidth", "values": list(FIG5_DISPATCH_WIDTHS)},
            {"field": "ReorderBufferSize", "values": list(FIG5_ROB_SIZES)}]
    payload = {"target": "haswell", "simulator": "mca", "strategy": "grid",
               "strategy_options": {"mode": "one_at_a_time"}, "axes": axes,
               "num_blocks": int(num_blocks), "seed": int(seed),
               "max_blocks": int(max_blocks)}
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)
