"""Synthetic basic-block generator.

Generates basic blocks that statistically resemble the BHive corpus: blocks
drawn from per-application profiles with realistic instruction mixes, register
dependency chains, memory reuse (which creates store-to-load pairs), zero
idioms, stack traffic, and a long-tailed length distribution (median ~3,
mean ~5, max in the hundreds).

The generator only uses the public ISA layer, so every generated block can be
parsed back from its assembly text and simulated by both simulators and the
hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.bhive.applications import APPLICATION_PROFILES, ApplicationProfile
from repro.isa.basic_block import BasicBlock
from repro.isa.instruction import Instruction
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE, OpcodeTable, OperandForm, UopClass
from repro.isa.operands import ImmediateOperand, MemoryOperand, Operand, RegisterOperand
from repro.isa.registers import GPR32, GPR64, XMM

#: Instruction kinds the application profiles reference, mapped to the opcode
#: mnemonic pools the generator chooses from.
_KIND_MNEMONICS: Dict[str, Sequence[str]] = {
    "alu": ("add", "sub", "and", "or", "xor", "cmp", "test", "adc"),
    "mul": ("imul",),
    "div": ("div", "idiv"),
    "shift": ("shl", "shr", "sar", "rol"),
    "lea": ("lea",),
    "mov": ("mov",),
    "load": ("mov",),
    "store": ("mov",),
    "rmw": ("add", "sub", "and", "or", "xor"),
    "push_pop": ("push", "pop"),
    "cmov": ("cmove", "cmovne", "cmovl", "cmovg", "cmovb", "cmova"),
    "setcc": ("sete", "setne", "setl", "setg"),
    "zero_idiom": ("xor",),
    "vec_alu": ("addps", "addpd", "subps", "addss", "addsd", "paddd", "pand", "minps", "maxps"),
    "vec_mul": ("mulps", "mulpd", "mulss", "mulsd", "vfmadd213ps", "vfmadd231sd"),
    "vec_div": ("divps", "divpd", "divss", "divsd", "sqrtps", "sqrtsd"),
    "vec_mov": ("movaps", "movups", "movdqa", "movss", "movsd", "shufps", "pshufd"),
    "cvt": ("cvtsi2ss", "cvtsi2sd", "cvtss2si", "cvttsd2si"),
}

_SCALAR_WIDTHS = (32, 64)
_MEMORY_BASES = ("rsp", "rbp", "rsi", "rdi", "r14", "r15")


@dataclass
class _GeneratorState:
    """Registers and addresses recently written, used to create dependencies."""

    recent_gprs: List[str]
    recent_xmms: List[str]
    recent_addresses: List[MemoryOperand]


class BlockGenerator:
    """Generates synthetic basic blocks from application profiles."""

    def __init__(self, opcode_table: Optional[OpcodeTable] = None, seed: int = 0) -> None:
        self.opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        self._rng = np.random.default_rng(seed)
        self._profiles = list(APPLICATION_PROFILES)
        weights = np.array([profile.weight for profile in self._profiles], dtype=np.float64)
        self._profile_probabilities = weights / weights.sum()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate_block(self, profile: Optional[ApplicationProfile] = None) -> BasicBlock:
        """Generate one basic block, optionally from a specific profile."""
        rng = self._rng
        if profile is None:
            profile = self._profiles[rng.choice(len(self._profiles),
                                                p=self._profile_probabilities)]
        length = self._sample_length(profile)
        state = _GeneratorState(recent_gprs=[], recent_xmms=[], recent_addresses=[])
        instructions: List[Instruction] = []
        kinds = list(profile.class_mix.keys())
        kind_weights = np.array([profile.class_mix[kind] for kind in kinds], dtype=np.float64)
        kind_probabilities = kind_weights / kind_weights.sum()
        attempts = 0
        while len(instructions) < length and attempts < length * 10:
            attempts += 1
            kind = kinds[rng.choice(len(kinds), p=kind_probabilities)]
            instruction = self._generate_instruction(kind, profile, state)
            if instruction is not None:
                instructions.append(instruction)
        if not instructions:
            instructions.append(self._generate_instruction("alu", profile, state))
        # A block may be attributed to more than one application in BHive;
        # occasionally add a second source application.
        applications = [profile.name]
        if rng.random() < 0.08:
            other = self._profiles[rng.choice(len(self._profiles),
                                              p=self._profile_probabilities)]
            if other.name != profile.name:
                applications.append(other.name)
        return BasicBlock(instructions=tuple(instructions),
                          source_applications=tuple(applications))

    def iter_blocks(self, count: int) -> Iterator[BasicBlock]:
        """Stream ``count`` blocks across the application mix.

        A true generator: blocks are produced lazily, one at a time, drawing
        from the same rng stream as :meth:`generate_blocks`, so corpus-scale
        callers can shard to disk without materializing the whole list.
        """
        for _ in range(count):
            yield self.generate_block()

    def generate_blocks(self, count: int) -> List[BasicBlock]:
        """Generate ``count`` blocks across the application mix."""
        return list(self.iter_blocks(count))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sample_length(self, profile: ApplicationProfile) -> int:
        """Long-tailed block length: geometric bulk with an occasional long block."""
        rng = self._rng
        mean = max(1.5, profile.mean_block_length)
        length = 1 + rng.geometric(1.0 / (mean - 0.5))
        if rng.random() < 0.01:
            length += int(rng.integers(16, profile.max_block_length))
        return int(min(length, profile.max_block_length))

    def _pick_gpr(self, state: _GeneratorState, profile: ApplicationProfile,
                  width: int, writable: bool = False) -> str:
        rng = self._rng
        pool = GPR64 if width == 64 else GPR32
        # Avoid using rsp as a scratch destination register.
        usable = [reg for reg in pool if reg not in ("rsp", "esp")]
        if state.recent_gprs and rng.random() < profile.dependency_density:
            canonical = state.recent_gprs[int(rng.integers(len(state.recent_gprs)))]
            # Translate the canonical 64-bit name to the requested width.
            index = GPR64.index(canonical) if canonical in GPR64 else None
            if index is not None:
                candidate = pool[index]
                if candidate not in ("rsp", "esp"):
                    return candidate
        return usable[int(rng.integers(len(usable)))]

    def _pick_xmm(self, state: _GeneratorState, profile: ApplicationProfile) -> str:
        rng = self._rng
        if state.recent_xmms and rng.random() < profile.dependency_density:
            return state.recent_xmms[int(rng.integers(len(state.recent_xmms)))]
        return XMM[int(rng.integers(len(XMM)))]

    def _pick_memory(self, state: _GeneratorState, profile: ApplicationProfile) -> MemoryOperand:
        rng = self._rng
        if state.recent_addresses and rng.random() < profile.memory_locality:
            return state.recent_addresses[int(rng.integers(len(state.recent_addresses)))]
        base = _MEMORY_BASES[int(rng.integers(len(_MEMORY_BASES)))]
        displacement = int(rng.integers(0, 33)) * 8
        operand = MemoryOperand(displacement=displacement, base=base)
        state.recent_addresses.append(operand)
        if len(state.recent_addresses) > 8:
            state.recent_addresses.pop(0)
        return operand

    def _remember_write(self, state: _GeneratorState, register: str) -> None:
        from repro.isa.registers import canonical_register

        canonical = canonical_register(register)
        if canonical.startswith("ymm"):
            name = f"xmm{canonical[3:]}"
            if name in state.recent_xmms:
                state.recent_xmms.remove(name)
            state.recent_xmms.append(name)
            if len(state.recent_xmms) > 6:
                state.recent_xmms.pop(0)
        else:
            if canonical in state.recent_gprs:
                state.recent_gprs.remove(canonical)
            state.recent_gprs.append(canonical)
            if len(state.recent_gprs) > 6:
                state.recent_gprs.pop(0)

    def _make(self, opcode_name: str, operands: Tuple[Operand, ...]) -> Optional[Instruction]:
        opcode = self.opcode_table.get(opcode_name)
        if opcode is None:
            return None
        return Instruction(opcode=opcode, operands=operands)

    def _generate_instruction(self, kind: str, profile: ApplicationProfile,
                              state: _GeneratorState) -> Optional[Instruction]:
        rng = self._rng
        mnemonics = _KIND_MNEMONICS.get(kind)
        if not mnemonics:
            return None
        mnemonic = mnemonics[int(rng.integers(len(mnemonics)))]
        width = int(_SCALAR_WIDTHS[int(rng.integers(len(_SCALAR_WIDTHS)))])
        suffix = "64" if width == 64 else "32"

        if kind == "zero_idiom":
            register = self._pick_gpr(state, profile, 32, writable=True)
            self._remember_write(state, register)
            return self._make("XOR32rr", (RegisterOperand(register), RegisterOperand(register)))

        if kind in ("alu", "mul"):
            upper = mnemonic.upper()
            form = rng.choice(["rr", "ri", "rm"], p=[0.5, 0.3, 0.2])
            destination = self._pick_gpr(state, profile, width, writable=True)
            if form == "rr":
                source = self._pick_gpr(state, profile, width)
                instruction = self._make(f"{upper}{suffix}rr",
                                         (RegisterOperand(source), RegisterOperand(destination)))
            elif form == "ri":
                instruction = self._make(f"{upper}{suffix}ri",
                                         (ImmediateOperand(int(rng.integers(1, 256))),
                                          RegisterOperand(destination)))
            else:
                memory = self._pick_memory(state, profile)
                instruction = self._make(f"{upper}{suffix}rm",
                                         (memory, RegisterOperand(destination)))
            if instruction is not None and mnemonic not in ("cmp", "test"):
                self._remember_write(state, destination)
            return instruction

        if kind == "div":
            return self._make(f"{mnemonic.upper()}{suffix}r",
                              (RegisterOperand(self._pick_gpr(state, profile, width)),))

        if kind == "shift":
            destination = self._pick_gpr(state, profile, width, writable=True)
            self._remember_write(state, destination)
            return self._make(f"{mnemonic.upper()}{suffix}ri",
                              (ImmediateOperand(int(rng.integers(1, 32))),
                               RegisterOperand(destination)))

        if kind == "lea":
            destination = self._pick_gpr(state, profile, width, writable=True)
            memory = self._pick_memory(state, profile)
            self._remember_write(state, destination)
            return self._make(f"LEA{suffix}r", (memory, RegisterOperand(destination)))

        if kind == "mov":
            destination = self._pick_gpr(state, profile, width, writable=True)
            if rng.random() < 0.5:
                source = self._pick_gpr(state, profile, width)
                instruction = self._make(f"MOV{suffix}rr",
                                         (RegisterOperand(source), RegisterOperand(destination)))
            else:
                instruction = self._make(f"MOV{suffix}ri",
                                         (ImmediateOperand(int(rng.integers(0, 1024))),
                                          RegisterOperand(destination)))
            self._remember_write(state, destination)
            return instruction

        if kind == "load":
            destination = self._pick_gpr(state, profile, width, writable=True)
            memory = self._pick_memory(state, profile)
            self._remember_write(state, destination)
            return self._make(f"MOV{suffix}rm", (memory, RegisterOperand(destination)))

        if kind == "store":
            source = self._pick_gpr(state, profile, width)
            memory = self._pick_memory(state, profile)
            return self._make(f"MOV{suffix}mr", (RegisterOperand(source), memory))

        if kind == "rmw":
            source = self._pick_gpr(state, profile, width)
            memory = self._pick_memory(state, profile)
            return self._make(f"{mnemonic.upper()}{suffix}mr", (RegisterOperand(source), memory))

        if kind == "push_pop":
            register = self._pick_gpr(state, profile, 64)
            if mnemonic == "push":
                return self._make("PUSH64r", (RegisterOperand(register),))
            self._remember_write(state, register)
            return self._make("POP64r", (RegisterOperand(register),))

        if kind == "cmov":
            destination = self._pick_gpr(state, profile, width, writable=True)
            source = self._pick_gpr(state, profile, width)
            self._remember_write(state, destination)
            return self._make(f"CMOV{mnemonic[4:].upper()}{suffix}rr",
                              (RegisterOperand(source), RegisterOperand(destination)))

        if kind == "setcc":
            from repro.isa.registers import GPR8

            register = GPR8[int(rng.integers(len(GPR8)))]
            return self._make(f"SET{mnemonic[3:].upper()}r", (RegisterOperand(register),))

        if kind in ("vec_alu", "vec_mul", "vec_div", "vec_mov", "cvt"):
            upper = mnemonic.upper()
            destination = self._pick_xmm(state, profile)
            use_memory = rng.random() < 0.3
            if kind == "vec_mov" and rng.random() < 0.3:
                # Vector store.
                memory = self._pick_memory(state, profile)
                return self._make(f"{upper}mr", (RegisterOperand(destination), memory))
            if use_memory:
                memory = self._pick_memory(state, profile)
                instruction = self._make(f"{upper}rm", (memory, RegisterOperand(destination)))
            else:
                source = self._pick_xmm(state, profile)
                instruction = self._make(f"{upper}rr",
                                         (RegisterOperand(source), RegisterOperand(destination)))
            if instruction is not None:
                self._remember_write(state, destination)
            return instruction

        return None
