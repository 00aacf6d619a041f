"""Table binding: gathering per-opcode parameters for a compiled block.

Binding is the table-dependent half of preparing a simulation (the
table-independent half is :mod:`repro.engine.compile`).  For each compiled
block it gathers the per-opcode parameter rows — ``WriteLatency``,
``ReadAdvanceCycles``, ``PortMap``, ``NumMicroOps`` — with one vectorized
NumPy fancy-indexing step per field, instead of the per-instruction Python
tuple-building the simulators previously did on every ``simulate()`` call.
The gathered rows are converted to plain Python ints/lists once (``tolist``)
because the simulation kernels iterate them in a tight interpreter loop.

The module also defines the content digests used as cache keys throughout
the engine layer:

* :func:`mca_table_digest` / :func:`llvm_sim_table_digest` — identity of a
  native parameter table, the table half of the engine's result-cache key;
* :func:`parameter_arrays_digest` — identity of optimization-layout arrays,
  used by the adapters to memoize ``table_from_arrays``;
* :class:`LRUCache` — the bounded mapping behind both caches, and every
  other memo of the engine, core, corpus and serving layers.

To stay importable from the simulator modules and from
:mod:`repro.engine.compile` (whose compiler memoizes through
:class:`LRUCache`), this module imports nothing else from the package at
run time; compiled blocks, tables and parameter arrays are accessed through
their public attributes (see the ``TYPE_CHECKING`` block for the concrete
types).
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.parameters import ParameterArrays
    from repro.engine.compile import CompiledBlock
    from repro.llvm_mca.params import MCAParameterTable
    from repro.llvm_sim.params import LLVMSimParameterTable


# ----------------------------------------------------------------------
# Content digests
# ----------------------------------------------------------------------
def _digest(*parts: bytes) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part)
    return hasher.hexdigest()


def _array_bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def mca_table_digest(table: "MCAParameterTable") -> str:
    """Content digest of an llvm-mca parameter table."""
    return _digest(
        struct.pack("<qq", int(table.dispatch_width), int(table.reorder_buffer_size)),
        _array_bytes(table.num_micro_ops),
        _array_bytes(table.write_latency),
        _array_bytes(table.read_advance_cycles),
        _array_bytes(table.port_map),
    )


def llvm_sim_table_digest(table: "LLVMSimParameterTable") -> str:
    """Content digest of an llvm_sim parameter table."""
    return _digest(
        _array_bytes(table.write_latency),
        _array_bytes(table.port_uops),
    )


def parameter_arrays_digest(arrays: "ParameterArrays") -> str:
    """Content digest of optimization-layout parameter arrays."""
    return _digest(
        struct.pack("<q", arrays.global_values.size),
        _array_bytes(arrays.global_values),
        _array_bytes(arrays.per_instruction_values),
    )


# ----------------------------------------------------------------------
# Bounded caches
# ----------------------------------------------------------------------
class LRUCache:
    """A least-recently-used mapping with hit, miss and eviction accounting.

    ``None`` is never a cached value: :meth:`get` returns it for a miss.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


# ----------------------------------------------------------------------
# Bound blocks
# ----------------------------------------------------------------------
@dataclass
class MCABoundBlock:
    """A compiled block with llvm-mca parameters gathered for its opcodes.

    ``instructions`` holds, per instruction, the exact record the simulation
    kernel iterates: ``(num_micro_ops, write_latency, read_advance,
    port_cycles, source_ids, destination_ids)``.
    """

    compiled: CompiledBlock
    instructions: List[Tuple[int, int, List[int], List[int],
                             Tuple[int, ...], Tuple[int, ...]]]


def bind_mca_block(table: "MCAParameterTable", compiled: CompiledBlock) -> MCABoundBlock:
    """Gather ``table``'s per-opcode rows for every instruction of ``compiled``."""
    indices = compiled.opcode_indices
    num_micro_ops = table.num_micro_ops[indices].tolist()
    write_latency = table.write_latency[indices].tolist()
    read_advance = table.read_advance_cycles[indices].tolist()
    port_cycles = table.port_map[indices].tolist()
    return MCABoundBlock(
        compiled=compiled,
        instructions=list(zip(num_micro_ops, write_latency, read_advance, port_cycles,
                              compiled.source_ids, compiled.destination_ids)),
    )


@dataclass
class LLVMSimBoundBlock:
    """A compiled block with llvm_sim parameters gathered for its opcodes.

    ``instructions`` holds, per instruction, ``(source_ids, destination_ids,
    write_latency, micro_op_ports)`` where ``micro_op_ports`` lists the
    execution port of each decoded micro-op (``-1`` for the bookkeeping
    micro-op of an instruction whose PortMap row is all zero).
    """

    compiled: CompiledBlock
    instructions: List[Tuple[Tuple[int, ...], Tuple[int, ...], int, List[int]]]


def bind_llvm_sim_block(table: "LLVMSimParameterTable",
                        compiled: CompiledBlock) -> LLVMSimBoundBlock:
    """Gather ``table``'s rows and decode micro-op port sequences."""
    indices = compiled.opcode_indices
    write_latency = table.write_latency[indices].tolist()
    port_rows = table.port_uops[indices]
    port_range = np.arange(port_rows.shape[1], dtype=np.int64)
    instructions: List[Tuple[Tuple[int, ...], Tuple[int, ...], int, List[int]]] = []
    for position in range(compiled.length):
        ports = np.repeat(port_range, port_rows[position]).tolist()
        if not ports:
            ports = [-1]
        instructions.append((compiled.source_ids[position],
                             compiled.destination_ids[position],
                             write_latency[position], ports))
    return LLVMSimBoundBlock(compiled=compiled, instructions=instructions)
