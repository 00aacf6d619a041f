"""The llvm-mca parameter table.

An :class:`MCAParameterTable` holds the complete set of parameters the paper
learns (Table II): two global integers (``DispatchWidth``,
``ReorderBufferSize``) plus, for every opcode in the opcode table, the
``NumMicroOps`` count, the ``WriteLatency``, a 3-slot ``ReadAdvanceCycles``
vector, and a 10-port ``PortMap`` occupancy vector.

The table is stored as NumPy arrays indexed by opcode index, and can be
flattened to / restored from a single float vector, which is the interface
the DiffTune optimizer and the black-box baselines use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import storage
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE, OpcodeTable

#: Number of execution ports modeled — the paper fixes this at 10, the default
#: for llvm-mca's Haswell model, for every microarchitecture.
NUM_PORTS = 10

#: Number of ReadAdvanceCycles slots per instruction (source operand slots).
NUM_READ_ADVANCE_SLOTS = 3


@dataclass
class MCAParameterTable:
    """All parameters of the llvm-mca simulation model.

    Attributes:
        opcode_table: The opcode universe the per-instruction arrays index.
        dispatch_width: Micro-ops that may enter/leave dispatch per cycle.
        reorder_buffer_size: Micro-ops that may be in flight simultaneously.
        num_micro_ops: ``(num_opcodes,)`` array of micro-op counts (>= 1).
        write_latency: ``(num_opcodes,)`` array of destination latencies (>= 0).
        read_advance_cycles: ``(num_opcodes, 3)`` forwarding credits (>= 0).
        port_map: ``(num_opcodes, 10)`` port occupancy cycles (>= 0).
    """

    opcode_table: OpcodeTable
    dispatch_width: int
    reorder_buffer_size: int
    num_micro_ops: np.ndarray
    write_latency: np.ndarray
    read_advance_cycles: np.ndarray
    port_map: np.ndarray

    def __post_init__(self) -> None:
        count = len(self.opcode_table)
        self.num_micro_ops = np.asarray(self.num_micro_ops, dtype=np.int64)
        self.write_latency = np.asarray(self.write_latency, dtype=np.int64)
        self.read_advance_cycles = np.asarray(self.read_advance_cycles, dtype=np.int64)
        self.port_map = np.asarray(self.port_map, dtype=np.int64)
        expected_shapes = {
            "num_micro_ops": (count,),
            "write_latency": (count,),
            "read_advance_cycles": (count, NUM_READ_ADVANCE_SLOTS),
            "port_map": (count, NUM_PORTS),
        }
        for name, shape in expected_shapes.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValueError(f"{name} has shape {actual}, expected {shape}")
        self.validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, opcode_table: Optional[OpcodeTable] = None,
              dispatch_width: int = 4, reorder_buffer_size: int = 192) -> "MCAParameterTable":
        """A minimal valid table: 1 uop, latency 0, empty port map."""
        opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        count = len(opcode_table)
        return cls(
            opcode_table=opcode_table,
            dispatch_width=dispatch_width,
            reorder_buffer_size=reorder_buffer_size,
            num_micro_ops=np.ones(count, dtype=np.int64),
            write_latency=np.zeros(count, dtype=np.int64),
            read_advance_cycles=np.zeros((count, NUM_READ_ADVANCE_SLOTS), dtype=np.int64),
            port_map=np.zeros((count, NUM_PORTS), dtype=np.int64),
        )

    def copy(self) -> "MCAParameterTable":
        return MCAParameterTable(
            opcode_table=self.opcode_table,
            dispatch_width=int(self.dispatch_width),
            reorder_buffer_size=int(self.reorder_buffer_size),
            num_micro_ops=self.num_micro_ops.copy(),
            write_latency=self.write_latency.copy(),
            read_advance_cycles=self.read_advance_cycles.copy(),
            port_map=self.port_map.copy(),
        )

    # ------------------------------------------------------------------
    # Validation and constraints
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the integer lower-bound constraints from Table II."""
        if self.dispatch_width < 1:
            raise ValueError("DispatchWidth must be >= 1")
        if self.reorder_buffer_size < 1:
            raise ValueError("ReorderBufferSize must be >= 1")
        if np.any(self.num_micro_ops < 1):
            raise ValueError("NumMicroOps must be >= 1 for every opcode")
        if np.any(self.write_latency < 0):
            raise ValueError("WriteLatency must be >= 0 for every opcode")
        if np.any(self.read_advance_cycles < 0):
            raise ValueError("ReadAdvanceCycles must be >= 0")
        if np.any(self.port_map < 0):
            raise ValueError("PortMap entries must be >= 0")

    # ------------------------------------------------------------------
    # Per-opcode accessors
    # ------------------------------------------------------------------
    def opcode_index(self, opcode_name: str) -> int:
        return self.opcode_table.index_of(opcode_name)

    def latency_of(self, opcode_name: str) -> int:
        return int(self.write_latency[self.opcode_index(opcode_name)])

    def micro_ops_of(self, opcode_name: str) -> int:
        return int(self.num_micro_ops[self.opcode_index(opcode_name)])

    def port_map_of(self, opcode_name: str) -> np.ndarray:
        return self.port_map[self.opcode_index(opcode_name)].copy()

    def read_advance_of(self, opcode_name: str) -> np.ndarray:
        return self.read_advance_cycles[self.opcode_index(opcode_name)].copy()

    def set_latency(self, opcode_name: str, value: int) -> None:
        self.write_latency[self.opcode_index(opcode_name)] = int(value)

    # ------------------------------------------------------------------
    # Counting and flattening
    # ------------------------------------------------------------------
    @property
    def num_opcodes(self) -> int:
        return len(self.opcode_table)

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count (matches the paper's 11265 accounting:
        2 globals + (1 + 1 + 3 + 10) per opcode)."""
        per_instruction = 1 + 1 + NUM_READ_ADVANCE_SLOTS + NUM_PORTS
        return 2 + per_instruction * self.num_opcodes

    def to_vector(self) -> np.ndarray:
        """Flatten to a float vector: [dispatch, rob, uops*, latency*, advance*, ports*]."""
        return np.concatenate([
            np.array([self.dispatch_width, self.reorder_buffer_size], dtype=np.float64),
            self.num_micro_ops.astype(np.float64),
            self.write_latency.astype(np.float64),
            self.read_advance_cycles.astype(np.float64).ravel(),
            self.port_map.astype(np.float64).ravel(),
        ])

    @classmethod
    def from_vector(cls, vector: np.ndarray,
                    opcode_table: Optional[OpcodeTable] = None) -> "MCAParameterTable":
        """Inverse of :meth:`to_vector`; values are rounded and clipped to bounds."""
        opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        count = len(opcode_table)
        expected = 2 + count * (2 + NUM_READ_ADVANCE_SLOTS + NUM_PORTS)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (expected,):
            raise ValueError(f"expected vector of length {expected}, got {vector.shape}")
        cursor = 2
        dispatch_width = max(1, int(round(vector[0])))
        reorder_buffer_size = max(1, int(round(vector[1])))
        num_micro_ops = np.clip(np.round(vector[cursor:cursor + count]), 1, None).astype(np.int64)
        cursor += count
        write_latency = np.clip(np.round(vector[cursor:cursor + count]), 0, None).astype(np.int64)
        cursor += count
        advance_size = count * NUM_READ_ADVANCE_SLOTS
        read_advance = np.clip(np.round(vector[cursor:cursor + advance_size]), 0, None)
        read_advance = read_advance.astype(np.int64).reshape(count, NUM_READ_ADVANCE_SLOTS)
        cursor += advance_size
        ports_size = count * NUM_PORTS
        port_map = np.clip(np.round(vector[cursor:cursor + ports_size]), 0, None)
        port_map = port_map.astype(np.int64).reshape(count, NUM_PORTS)
        return cls(opcode_table=opcode_table, dispatch_width=dispatch_width,
                   reorder_buffer_size=reorder_buffer_size, num_micro_ops=num_micro_ops,
                   write_latency=write_latency, read_advance_cycles=read_advance,
                   port_map=port_map)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable representation keyed by opcode name."""
        payload = {
            "dispatch_width": int(self.dispatch_width),
            "reorder_buffer_size": int(self.reorder_buffer_size),
            "opcodes": {},
        }
        for index, opcode in enumerate(self.opcode_table):
            payload["opcodes"][opcode.name] = {
                "num_micro_ops": int(self.num_micro_ops[index]),
                "write_latency": int(self.write_latency[index]),
                "read_advance_cycles": self.read_advance_cycles[index].tolist(),
                "port_map": self.port_map[index].tolist(),
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict,
                  opcode_table: Optional[OpcodeTable] = None) -> "MCAParameterTable":
        opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        table = cls.zeros(opcode_table,
                          dispatch_width=int(payload["dispatch_width"]),
                          reorder_buffer_size=int(payload["reorder_buffer_size"]))
        for name, entry in payload["opcodes"].items():
            if name not in opcode_table:
                continue
            index = opcode_table.index_of(name)
            table.num_micro_ops[index] = int(entry["num_micro_ops"])
            table.write_latency[index] = int(entry["write_latency"])
            table.read_advance_cycles[index] = np.asarray(entry["read_advance_cycles"],
                                                          dtype=np.int64)
            table.port_map[index] = np.asarray(entry["port_map"], dtype=np.int64)
        table.validate()
        return table

    def save_json(self, path: str) -> None:
        storage.atomic_write(path, json.dumps(self.to_dict(), indent=2).encode())

    @classmethod
    def load_json(cls, path: str,
                  opcode_table: Optional[OpcodeTable] = None) -> "MCAParameterTable":
        return cls.from_dict(storage.read_json(path), opcode_table)
