"""AT&T-style assembly parsing and formatting.

The parser handles the subset of AT&T x86-64 syntax that appears in basic
blocks: mnemonics with optional width suffixes, register operands (``%rax``),
immediates (``$5``), and memory references (``16(%rsp)``,
``8(%rax,%rbx,4)``).  It resolves each textual instruction to an opcode in an
:class:`~repro.isa.opcodes.OpcodeTable` by reconstructing the LLVM-style
opcode name from the mnemonic, operand width, and operand form.

The formatter is the inverse: it renders :class:`Instruction` objects back to
assembly text, which the dataset serialization and the examples rely on.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from repro.isa.basic_block import BasicBlock
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (DEFAULT_OPCODE_TABLE, Opcode, OpcodeTable, OperandForm, UopClass)
from repro.isa.operands import ImmediateOperand, MemoryOperand, Operand, RegisterOperand
from repro.isa.registers import REGISTERS, register_by_name


class ParseError(ValueError):
    """Raised when assembly text cannot be parsed or matched to an opcode."""


_WIDTH_BY_SUFFIX = {"b": 8, "w": 16, "l": 32, "q": 64}
_SUFFIX_BY_WIDTH = {8: "b", 16: "w", 32: "l", 64: "q"}

#: GNU objdump spells movsx/movzx with two suffix letters, the source width
#: then the destination width (``movzbl``, ``movslq``).
_GNU_EXTEND = re.compile(r"^mov([sz])([bwl])([wlq])$")
#: Other spellings of mnemonics the opcode table names.
_ALIASES = {"sal": "shl"}

_MEMORY_PATTERN = re.compile(
    r"^(?P<disp>-?\d*)\((?P<inner>[^)]*)\)$")


def _parse_operand(text: str) -> Operand:
    text = text.strip()
    if not text:
        raise ParseError("empty operand")
    if text.startswith("$"):
        try:
            value = int(text[1:], 0)
        except ValueError as error:
            raise ParseError(f"invalid immediate: {text!r}") from error
        return ImmediateOperand(value=value)
    if text.startswith("%"):
        name = text[1:].lower()
        if name not in REGISTERS:
            raise ParseError(f"unknown register: {text!r}")
        return RegisterOperand(name=name)
    match = _MEMORY_PATTERN.match(text)
    if match:
        displacement = int(match.group("disp")) if match.group("disp") else 0
        inner = [part.strip() for part in match.group("inner").split(",")]
        base = inner[0][1:].lower() if inner and inner[0].startswith("%") else None
        index = None
        scale = 1
        if len(inner) >= 2 and inner[1]:
            if not inner[1].startswith("%"):
                raise ParseError(f"invalid index register in {text!r}")
            index = inner[1][1:].lower()
        if len(inner) >= 3 and inner[2]:
            scale = int(inner[2])
        return MemoryOperand(displacement=displacement, base=base, index=index, scale=scale)
    # Bare displacement, e.g. "16" as an absolute address.
    try:
        return MemoryOperand(displacement=int(text, 0))
    except ValueError as error:
        raise ParseError(f"unparseable operand: {text!r}") from error


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas that are not inside parentheses."""
    parts: List[str] = []
    depth = 0
    current = ""
    for character in text:
        if character == "(":
            depth += 1
        elif character == ")":
            depth -= 1
        if character == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += character
    if current.strip():
        parts.append(current)
    return [part.strip() for part in parts if part.strip()]


def _operand_form(operands: Sequence[Operand]) -> Tuple[str, Optional[OperandForm]]:
    """Classify the operand list into a form code string and OperandForm."""
    kinds = "".join(
        "r" if isinstance(op, RegisterOperand)
        else "i" if isinstance(op, ImmediateOperand)
        else "m"
        for op in operands)
    # AT&T order is source(s) then destination; LLVM names use destination-first
    # form codes, so reverse the kind string.
    reversed_kinds = kinds[::-1]
    form_map = {
        "rr": OperandForm.RR,
        "ri": OperandForm.RI,
        "rm": OperandForm.RM,
        "mr": OperandForm.MR,
        "mi": OperandForm.MI,
        "r": OperandForm.R,
        "m": OperandForm.M,
        "i": OperandForm.I,
        "rri": OperandForm.RRI,
        "": OperandForm.I,
    }
    return reversed_kinds, form_map.get(reversed_kinds)


def _mnemonic_and_width(mnemonic: str) -> Tuple[str, Optional[int], Optional[int]]:
    """Strip AT&T width suffixes from a mnemonic when present.

    Returns ``(mnemonic, width, source_width)``; only the GNU movsx/movzx
    spellings carry a ``source_width``.
    """
    lowered = mnemonic.lower()
    extend = _GNU_EXTEND.match(lowered)
    if extend:
        kind, source, destination = extend.groups()
        return (f"mov{kind}x", _WIDTH_BY_SUFFIX[destination],
                _WIDTH_BY_SUFFIX[source])
    # Vector / SSE mnemonics and a few scalar ones end in letters that look
    # like width suffixes but are part of the name (movss, addsd, paddd, ...).
    non_suffixed = {"movss", "movsd", "addss", "addsd", "subss", "subsd", "mulss", "mulsd",
                    "divss", "divsd", "sqrtss", "sqrtsd", "cmovb", "cmovbe", "cmovl",
                    "vfmadd231sd", "vfmadd213pd", "lea", "paddq", "paddd", "psubd",
                    "pmulld", "pand", "pcmpeqd", "cvtsi2sd", "cvtpd2ps", "setb", "setl",
                    "pushq", "popq"}
    if lowered in ("pushq", "popq"):
        return lowered[:-1], 64, None
    if lowered in non_suffixed and lowered not in ("pushq", "popq"):
        return lowered, None, None
    if len(lowered) > 2 and lowered[-1] in _WIDTH_BY_SUFFIX:
        candidate_base = lowered[:-1]
        # Only strip when the base is a known scalar mnemonic; this avoids
        # mangling names like "shufps".
        scalar_bases = {"add", "sub", "and", "or", "xor", "cmp", "test", "adc", "sbb", "mov",
                        "inc", "dec", "neg", "not", "shl", "sal", "shr", "sar", "rol", "ror",
                        "imul", "mul", "div", "idiv", "lea", "push", "pop"}
        if candidate_base in scalar_bases:
            return (_ALIASES.get(candidate_base, candidate_base),
                    _WIDTH_BY_SUFFIX[lowered[-1]], None)
    return _ALIASES.get(lowered, lowered), None, None


def _register_width(operand: Operand) -> Optional[int]:
    if isinstance(operand, RegisterOperand):
        return register_by_name(operand.name).width
    return None


def _infer_width(operands: Sequence[Operand], fallback: Optional[int]) -> int:
    for operand in operands:
        if isinstance(operand, RegisterOperand):
            return register_by_name(operand.name).width
    return fallback or 64


_WIDTH_NAME = {8: "8", 16: "16", 32: "32", 64: "64"}
_SHIFTS = ("shl", "shr", "sar", "rol", "ror")


def _candidate_opcode_names(mnemonic: str, width: int, form_code: str,
                            operands: Sequence[Operand],
                            source_width: Optional[int] = None) -> List[str]:
    upper = mnemonic.upper()
    candidates = []
    is_vector = any(isinstance(op, RegisterOperand) and register_by_name(op.name).is_vector
                    for op in operands)
    if is_vector or width in (128, 256):
        candidates.append(f"{upper}{form_code}")
        candidates.append(f"V{upper}Y{form_code}")
    width_name = _WIDTH_NAME.get(width, "64")
    candidates.append(f"{upper}{width_name}{form_code}")
    candidates.append(f"{upper}{form_code}")
    candidates.append(upper)
    # LEA opcodes are named LEA32r / LEA64r even though their operand form is
    # memory-source, register-destination.
    if mnemonic == "lea":
        candidates.insert(0, f"{upper}{width_name}r")
    # movsx/movzx are named by the destination width, then the source width
    # (MOVSX64rr16 for `movsx %ax, %rcx`).  A memory source carries no
    # width unless a GNU suffix gave one, so each source width is tried,
    # widest first.
    if mnemonic in ("movsx", "movzx") and operands:
        destination = _register_width(operands[-1]) or width
        source = _register_width(operands[0]) or source_width
        for tried in ((source,) if source else (8, 16, 32)):
            candidates.insert(0, f"{upper}{destination}{form_code}{tried}")
    # Shift by an implicit 1 or by %cl (named by the destination's width).
    if form_code == "r" and mnemonic in _SHIFTS:
        candidates.insert(0, f"{upper}{width_name}r1")
    elif form_code == "rr" and operands[0].name == "cl" and mnemonic in _SHIFTS:
        candidates.insert(0, f"{upper}{_register_width(operands[-1])}rCL")
    return candidates


def parse_instruction(text: str, opcode_table: Optional[OpcodeTable] = None) -> Instruction:
    """Parse one AT&T-syntax instruction into an :class:`Instruction`."""
    opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
    text = text.strip().rstrip(";")
    if not text:
        raise ParseError("empty instruction")
    pieces = text.split(None, 1)
    raw_mnemonic = pieces[0]
    operand_text = pieces[1] if len(pieces) > 1 else ""
    operands = tuple(_parse_operand(part) for part in _split_operands(operand_text))
    mnemonic, suffix_width, source_width = _mnemonic_and_width(raw_mnemonic)
    width = _infer_width(operands, suffix_width) if operands else (suffix_width or 64)
    if suffix_width is not None and not any(
            isinstance(op, RegisterOperand) for op in operands):
        width = suffix_width
    form_code, _ = _operand_form(operands)
    for candidate in _candidate_opcode_names(mnemonic, width, form_code, operands,
                                             source_width):
        opcode = opcode_table.get(candidate)
        if opcode is not None:
            return Instruction(opcode=opcode, operands=operands)
    raise ParseError(
        f"could not resolve {text!r} (mnemonic={mnemonic}, width={width}, form={form_code})")


def parse_block(text: str, opcode_table: Optional[OpcodeTable] = None,
                source_applications: Sequence[str] = ()) -> BasicBlock:
    """Parse newline- or semicolon-separated assembly text into a basic block."""
    lines: List[str] = []
    for line in text.replace(";", "\n").splitlines():
        stripped = line.split("#")[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise ParseError("no instructions found in block text")
    instructions = tuple(parse_instruction(line, opcode_table) for line in lines)
    return BasicBlock(instructions=instructions,
                      source_applications=tuple(source_applications))


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------
def _format_mnemonic(instruction: Instruction) -> str:
    opcode = instruction.opcode
    mnemonic = opcode.mnemonic
    if opcode.is_vector or opcode.uop_class == UopClass.NOP:
        return mnemonic
    if mnemonic in ("push", "pop"):
        return mnemonic + "q"
    if mnemonic in ("movsx", "movzx"):
        if opcode.form != OperandForm.RM:
            return mnemonic
        # A memory source has no width of its own: print objdump's spelling,
        # the source then the destination width (MOVZX32rm8 is `movzbl`).
        source_width = int(opcode.name.rsplit("rm", 1)[1])
        return f"mov{mnemonic[3]}{_SUFFIX_BY_WIDTH[source_width]}{_SUFFIX_BY_WIDTH[opcode.width]}"
    if mnemonic == "lea":
        return "lea" + _SUFFIX_BY_WIDTH.get(opcode.width, "q")
    if mnemonic.startswith(("cmov", "set")):
        return mnemonic
    suffix = _SUFFIX_BY_WIDTH.get(opcode.width, "")
    return mnemonic + suffix


def format_instruction(instruction: Instruction) -> str:
    """Render an :class:`Instruction` in AT&T syntax."""
    mnemonic = _format_mnemonic(instruction)
    if not instruction.operands:
        return mnemonic
    operand_text = ", ".join(operand.to_assembly() for operand in instruction.operands)
    return f"{mnemonic} {operand_text}"
