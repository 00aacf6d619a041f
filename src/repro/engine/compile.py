"""Block compilation: the table-independent half of a simulation.

Every simulator in this reproduction separates per-block work into two
halves:

* information that depends only on the *block* — opcode indices into the
  opcode table, the canonical source/destination registers of every
  instruction, the micro-op structure of the dependency graph; and
* information that depends on the *parameter table* — latencies, micro-op
  counts, port occupancies (see :mod:`repro.engine.binding`).

A :class:`CompiledBlock` captures the first half once so it can be reused
across every parameter table the block is ever simulated under.  Register
names are interned to dense integer ids (block-local — the simulators'
register scoreboards never outlive one block), which lets the simulation
kernels replace string-keyed dictionaries with flat integer arrays.  The
dense operand matrices the megabatch kernels pack are memoized on the
compiled block itself (:meth:`CompiledBlock.operand_rows`), so they live as
long as it does, and a :class:`BlockCompiler` keeps at most
:data:`MAX_COMPILED_BLOCKS` compiled blocks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.engine.binding import LRUCache
from repro.isa.basic_block import BasicBlock
from repro.isa.opcodes import OpcodeTable

#: Compiled blocks one :class:`BlockCompiler` keeps (least recently used
#: dropped first), so corpus-scale block streams compile in bounded memory.
MAX_COMPILED_BLOCKS = 1 << 16


def block_digest(block: BasicBlock) -> str:
    """Stable content digest of a block (its rendered assembly).

    Two blocks with identical assembly simulate identically under every
    parameter table, so the digest doubles as the block half of the engine's
    result-cache key.
    """
    payload = "\n".join(block.structural_key()).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


@dataclass(frozen=True)
class CompiledBlock:
    """Table-independent per-block simulation structure.

    Attributes:
        block_id: Content digest of the block (see :func:`block_digest`).
        length: Number of instructions.
        opcode_indices: ``(length,)`` int64 array of opcode-table indices,
            used to gather per-opcode parameters in one vectorized step.
        source_ids: Per-instruction tuples of interned source-register ids.
        destination_ids: Per-instruction tuples of interned
            destination-register ids.
        num_registers: Size of the block-local register universe (scoreboard
            width for the simulation kernels).
    """

    block_id: str
    length: int
    opcode_indices: np.ndarray
    source_ids: Tuple[Tuple[int, ...], ...]
    destination_ids: Tuple[Tuple[int, ...], ...]
    num_registers: int

    def operand_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``-1``-padded source and destination register-id matrices.

        Memoized on the instance (as :meth:`BasicBlock.structural_key` is):
        lowering the ragged operand tuples is the only per-instruction
        Python loop in megabatch packing, and one compiled block is packed
        again for every chunk, engine call and table it meets.
        """
        rows = self.__dict__.get("_operand_rows")
        if rows is None:
            rows = (_dense_operands(self.source_ids, self.length),
                    _dense_operands(self.destination_ids, self.length))
            object.__setattr__(self, "_operand_rows", rows)
        return rows


def _dense_operands(rows: Tuple[Tuple[int, ...], ...], length: int) -> np.ndarray:
    """Lower ragged operand tuples into a dense ``(length, width)`` matrix."""
    width = max((len(ids) for ids in rows), default=0)
    dense = np.full((max(length, 1), max(width, 1)), -1, dtype=np.int64)
    for position, ids in enumerate(rows):
        if ids:
            dense[position, :len(ids)] = ids
    return dense


def compile_block(block: BasicBlock, opcode_table: OpcodeTable) -> CompiledBlock:
    """Compile ``block`` against ``opcode_table``.

    This is the work :class:`~repro.llvm_mca.simulator.MCASimulator` used to
    redo on every ``simulate()`` call (opcode lookup, register extraction);
    it depends only on the block, never on the parameter table.
    """
    register_ids: Dict[str, int] = {}

    def intern(registers: Tuple[str, ...]) -> Tuple[int, ...]:
        ids = []
        for register in registers:
            identifier = register_ids.get(register)
            if identifier is None:
                identifier = len(register_ids)
                register_ids[register] = identifier
            ids.append(identifier)
        return tuple(ids)

    opcode_indices = np.fromiter(
        (opcode_table.index_of(instruction.opcode.name) for instruction in block),
        dtype=np.int64, count=len(block))
    source_ids = tuple(intern(instruction.source_registers()) for instruction in block)
    destination_ids = tuple(intern(instruction.destination_registers()) for instruction in block)
    return CompiledBlock(
        block_id=block_digest(block),
        length=len(block),
        opcode_indices=opcode_indices,
        source_ids=source_ids,
        destination_ids=destination_ids,
        num_registers=len(register_ids),
    )


class BlockCompiler:
    """Compiles blocks against one opcode table, caching by block content.

    The cache key is the block's structural key (its assembly), so blocks
    that are equal-by-content share one compilation even when they are
    distinct Python objects (as happens when datasets are reloaded from
    JSON).  The cache is an :class:`~repro.engine.binding.LRUCache` of
    :data:`MAX_COMPILED_BLOCKS` entries.
    """

    def __init__(self, opcode_table: OpcodeTable) -> None:
        self.opcode_table = opcode_table
        self._cache = LRUCache(MAX_COMPILED_BLOCKS)

    def compile(self, block: BasicBlock) -> CompiledBlock:
        key = block.structural_key()
        compiled = self._cache.get(key)
        if compiled is None:
            compiled = compile_block(block, self.opcode_table)
            self._cache.put(key, compiled)
        return compiled

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    def clear(self) -> None:
        self._cache.clear()
