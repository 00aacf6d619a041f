"""Parameters of the llvm_sim model.

Following Table VII of the paper, llvm_sim reads two per-instruction parameter
families from LLVM: ``WriteLatency`` (cycles before destinations can be read)
and a 10-entry ``PortMap`` interpreted as *the number of micro-ops dispatched
to each port* (not occupancy cycles, as in llvm-mca).  Global machine
structure (frontend width, retirement) is fixed by the Haswell model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import storage
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE, OpcodeTable

#: llvm_sim uses the same 10-port layout as the llvm-mca Haswell model.
NUM_PORTS = 10


@dataclass
class LLVMSimParameterTable:
    """Per-instruction parameters read by llvm_sim.

    Attributes:
        opcode_table: Opcode universe the arrays index.
        write_latency: ``(num_opcodes,)`` destination latency in cycles (>= 0).
        port_uops: ``(num_opcodes, 10)`` number of micro-ops dispatched to
            each port (>= 0).  An instruction's total micro-op count is the
            row sum (at least one micro-op is always issued).
    """

    opcode_table: OpcodeTable
    write_latency: np.ndarray
    port_uops: np.ndarray

    def __post_init__(self) -> None:
        count = len(self.opcode_table)
        self.write_latency = np.asarray(self.write_latency, dtype=np.int64)
        self.port_uops = np.asarray(self.port_uops, dtype=np.int64)
        if self.write_latency.shape != (count,):
            raise ValueError(f"write_latency must have shape ({count},)")
        if self.port_uops.shape != (count, NUM_PORTS):
            raise ValueError(f"port_uops must have shape ({count}, {NUM_PORTS})")
        self.validate()

    def validate(self) -> None:
        if np.any(self.write_latency < 0):
            raise ValueError("WriteLatency must be >= 0")
        if np.any(self.port_uops < 0):
            raise ValueError("PortMap micro-op counts must be >= 0")

    @classmethod
    def zeros(cls, opcode_table: Optional[OpcodeTable] = None) -> "LLVMSimParameterTable":
        opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        count = len(opcode_table)
        return cls(opcode_table=opcode_table,
                   write_latency=np.zeros(count, dtype=np.int64),
                   port_uops=np.zeros((count, NUM_PORTS), dtype=np.int64))

    def copy(self) -> "LLVMSimParameterTable":
        return LLVMSimParameterTable(opcode_table=self.opcode_table,
                                     write_latency=self.write_latency.copy(),
                                     port_uops=self.port_uops.copy())

    @property
    def num_opcodes(self) -> int:
        return len(self.opcode_table)

    @property
    def num_parameters(self) -> int:
        return self.num_opcodes * (1 + NUM_PORTS)

    # ------------------------------------------------------------------
    # Flattening (used by DiffTune and the black-box baselines)
    # ------------------------------------------------------------------
    def to_vector(self) -> np.ndarray:
        return np.concatenate([
            self.write_latency.astype(np.float64),
            self.port_uops.astype(np.float64).ravel(),
        ])

    @classmethod
    def from_vector(cls, vector: np.ndarray,
                    opcode_table: Optional[OpcodeTable] = None) -> "LLVMSimParameterTable":
        opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        count = len(opcode_table)
        expected = count * (1 + NUM_PORTS)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (expected,):
            raise ValueError(f"expected vector of length {expected}, got {vector.shape}")
        write_latency = np.clip(np.round(vector[:count]), 0, None).astype(np.int64)
        port_uops = np.clip(np.round(vector[count:]), 0, None).astype(np.int64)
        return cls(opcode_table=opcode_table, write_latency=write_latency,
                   port_uops=port_uops.reshape(count, NUM_PORTS))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "opcodes": {
                opcode.name: {
                    "write_latency": int(self.write_latency[index]),
                    "port_uops": self.port_uops[index].tolist(),
                }
                for index, opcode in enumerate(self.opcode_table)
            }
        }

    def save_json(self, path: str) -> None:
        storage.atomic_write(path, json.dumps(self.to_dict(), indent=2).encode())

    @classmethod
    def from_dict(cls, payload: Dict,
                  opcode_table: Optional[OpcodeTable] = None) -> "LLVMSimParameterTable":
        """Inverse of :meth:`to_dict`; opcodes absent from ``payload`` stay zero."""
        opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        table = cls.zeros(opcode_table)
        entries = payload["opcodes"]
        for index, opcode in enumerate(opcode_table):
            entry = entries.get(opcode.name)
            if entry is None:
                continue
            table.write_latency[index] = int(entry["write_latency"])
            table.port_uops[index] = np.asarray(entry["port_uops"], dtype=np.int64)
        table.validate()
        return table

    @classmethod
    def load_json(cls, path: str,
                  opcode_table: Optional[OpcodeTable] = None) -> "LLVMSimParameterTable":
        return cls.from_dict(storage.read_json(path), opcode_table)
