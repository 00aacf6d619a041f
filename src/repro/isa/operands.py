"""Instruction operands: registers, immediates, and memory references."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.isa.registers import canonical_register, register_by_name


class Operand:
    """Base class for instruction operands."""

    def read_registers(self) -> Tuple[str, ...]:
        """Canonical register names read when this operand is a source."""
        return ()

    def written_registers(self) -> Tuple[str, ...]:
        """Canonical register names written when this operand is a destination."""
        return ()

    def address_registers(self) -> Tuple[str, ...]:
        """Canonical register names used for address generation (memory only)."""
        return ()

    def to_assembly(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class RegisterOperand(Operand):
    """A register operand, e.g. ``%eax``."""

    name: str

    def __post_init__(self) -> None:
        # Validate eagerly so bad register names fail at construction time.
        register_by_name(self.name)

    @property
    def canonical(self) -> str:
        return canonical_register(self.name)

    def read_registers(self) -> Tuple[str, ...]:
        return (self.canonical,)

    def written_registers(self) -> Tuple[str, ...]:
        return (self.canonical,)

    def to_assembly(self) -> str:
        return f"%{self.name.lstrip('%')}"

    def __str__(self) -> str:
        return self.to_assembly()


@dataclass(frozen=True)
class ImmediateOperand(Operand):
    """An immediate constant operand, e.g. ``$5``."""

    value: int = 0

    def to_assembly(self) -> str:
        return f"${self.value}"

    def __str__(self) -> str:
        return self.to_assembly()


@dataclass(frozen=True)
class MemoryOperand(Operand):
    """A memory reference ``disp(base, index, scale)`` in AT&T syntax.

    The simulators treat the *address expression* (displacement, base, index,
    scale) as the identity of the memory location for store-to-load dependency
    tracking, matching the modeling granularity of basic-block simulators.
    """

    displacement: int = 0
    base: Optional[str] = None
    index: Optional[str] = None
    scale: int = 1

    def __post_init__(self) -> None:
        if self.base is not None:
            register_by_name(self.base)
        if self.index is not None:
            register_by_name(self.index)
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid memory scale: {self.scale}")

    def address_registers(self) -> Tuple[str, ...]:
        registers = []
        if self.base is not None:
            registers.append(canonical_register(self.base))
        if self.index is not None:
            registers.append(canonical_register(self.index))
        return tuple(registers)

    def read_registers(self) -> Tuple[str, ...]:
        # Reading *through* a memory operand reads the address registers; the
        # memory value itself is tracked separately by the load/store unit.
        return self.address_registers()

    def written_registers(self) -> Tuple[str, ...]:
        # Writing to memory does not write any register, but still needs the
        # address registers as inputs; the instruction handles that via
        # address_registers().
        return ()

    def location_key(self) -> Tuple[int, Optional[str], Optional[str], int]:
        """A hashable identity for the referenced location (syntactic)."""
        base = canonical_register(self.base) if self.base else None
        index = canonical_register(self.index) if self.index else None
        return (self.displacement, base, index, self.scale)

    def to_assembly(self) -> str:
        # A base-less operand keeps its leading comma, `(,%rbx,8)`, so the
        # index is not read back as the base.
        inner = [f"%{self.base}" if self.base is not None else ""]
        if self.index is not None:
            inner += [f"%{self.index}", str(self.scale)]
        elif self.scale != 1:
            inner += ["", str(self.scale)]
        inside = ",".join(inner)
        displacement = str(self.displacement) if self.displacement else ""
        if inside:
            return f"{displacement}({inside})"
        return f"{displacement or 0}"

    def __str__(self) -> str:
        return self.to_assembly()
