"""Tests for the ISA substrate: registers, opcodes, operands, instructions,
basic blocks, the parser, and canonicalization."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import (BasicBlock, ImmediateOperand, Instruction, MemoryOperand, ParseError,
                       RegisterOperand, TokenVocabulary, canonical_register, canonicalize_block,
                       format_instruction, parse_block, parse_instruction, register_by_name)
from repro.isa.canonicalize import canonicalize_instruction
from repro.isa.opcodes import (DEFAULT_OPCODE_TABLE, OpcodeTable, OperandForm, UopClass,
                                build_default_opcode_table)
from repro.isa.registers import GPR32, GPR64, XMM, registers_for_width


class TestRegisters:
    def test_lookup_with_and_without_sigil(self):
        assert register_by_name("rax").name == "rax"
        assert register_by_name("%rax").name == "rax"

    def test_unknown_register(self):
        with pytest.raises(KeyError):
            register_by_name("zzz")

    def test_canonical_aliasing(self):
        assert canonical_register("eax") == "rax"
        assert canonical_register("ax") == "rax"
        assert canonical_register("r13d") == "r13"

    def test_vector_registers_alias_ymm(self):
        assert canonical_register("xmm3") == "ymm3"
        assert register_by_name("xmm3").is_vector

    def test_register_widths(self):
        assert register_by_name("rax").width == 64
        assert register_by_name("eax").width == 32
        assert register_by_name("al").width == 8
        assert register_by_name("ymm0").width == 256

    def test_registers_for_width(self):
        assert "rax" in registers_for_width(64)
        assert "eax" in registers_for_width(32)
        assert "xmm0" in registers_for_width(128, vector=True)
        with pytest.raises(ValueError):
            registers_for_width(12)

    def test_register_pools_are_consistent(self):
        assert len(GPR64) == len(GPR32) == 16
        assert len(XMM) == 16


class TestOpcodeTable:
    def test_default_table_size(self, opcode_table):
        # Mirrors the scale of BHive's 837-opcode vocabulary.
        assert 500 <= len(opcode_table) <= 900

    def test_lookup_by_name_and_index(self, opcode_table):
        index = opcode_table.index_of("ADD32rr")
        assert opcode_table[index].name == "ADD32rr"
        assert opcode_table["ADD32rr"].mnemonic == "add"

    def test_contains_expected_opcodes(self, opcode_table):
        for name in ["PUSH64r", "POP64r", "XOR32rr", "ADD32mr", "SHR64mi", "MOV64rm",
                     "IMUL64rr", "MULPSrr", "VZEROUPPER", "LEA64r", "CMOVE32rr"]:
            assert name in opcode_table, name

    def test_unknown_opcode_raises(self, opcode_table):
        with pytest.raises(KeyError):
            opcode_table.index_of("NOT_AN_OPCODE")

    def test_duplicate_opcode_rejected(self, opcode_table):
        table = OpcodeTable([opcode_table["ADD32rr"]])
        with pytest.raises(ValueError):
            table.add(opcode_table["ADD32rr"])

    def test_memory_flags(self, opcode_table):
        assert opcode_table["MOV64rm"].reads_memory
        assert not opcode_table["MOV64rm"].writes_memory
        assert opcode_table["MOV64mr"].writes_memory
        assert opcode_table["ADD32mr"].reads_memory
        assert opcode_table["ADD32mr"].writes_memory

    def test_zero_idiom_flags(self, opcode_table):
        assert opcode_table["XOR32rr"].can_zero_idiom
        assert opcode_table["SUB64rr"].can_zero_idiom
        assert not opcode_table["ADD32rr"].can_zero_idiom

    def test_by_class(self, opcode_table):
        loads = opcode_table.by_class(UopClass.LOAD)
        assert loads and all(op.uop_class == UopClass.LOAD for op in loads)

    def test_table_construction_is_deterministic(self):
        first = build_default_opcode_table()
        second = build_default_opcode_table()
        assert first.names() == second.names()

    def test_implicit_defs_for_stack_ops(self, opcode_table):
        assert "rsp" in opcode_table["PUSH64r"].implicit_defs
        assert "rsp" in opcode_table["POP64r"].implicit_uses


class TestOperands:
    def test_register_operand_canonical(self):
        operand = RegisterOperand("eax")
        assert operand.canonical == "rax"
        assert operand.to_assembly() == "%eax"

    def test_register_operand_invalid(self):
        with pytest.raises(KeyError):
            RegisterOperand("bogus")

    def test_immediate_operand(self):
        assert ImmediateOperand(5).to_assembly() == "$5"

    def test_memory_operand_address_registers(self):
        operand = MemoryOperand(displacement=8, base="rax", index="rbx", scale=4)
        assert operand.address_registers() == ("rax", "rbx")
        assert operand.to_assembly() == "8(%rax,%rbx,4)"

    def test_memory_operand_invalid_scale(self):
        with pytest.raises(ValueError):
            MemoryOperand(base="rax", scale=3)

    def test_memory_location_key_canonicalizes(self):
        a = MemoryOperand(displacement=16, base="rsp")
        b = MemoryOperand(displacement=16, base="esp")
        assert a.location_key() == b.location_key()

    def test_str_is_the_assembly_form(self):
        assert [str(operand) for operand in (
            RegisterOperand("eax"), ImmediateOperand(-3),
            MemoryOperand(displacement=-8, base="rbp"),
            MemoryOperand(base="rsp", index="rbx", scale=4),
            MemoryOperand(displacement=16))] == [
                "%eax", "$-3", "-8(%rbp)", "(%rsp,%rbx,4)", "16"]

    def test_memory_operand_reads_address_registers_and_writes_none(self):
        operand = MemoryOperand(displacement=0, base="esp", index="rbx", scale=8)
        assert operand.read_registers() == ("rsp", "rbx")
        assert operand.written_registers() == ()


class TestInstructionSemantics:
    def test_rmw_reads_and_writes(self, opcode_table):
        instruction = parse_instruction("addl %eax, %ebx")
        assert "rax" in instruction.source_registers()
        assert "rbx" in instruction.source_registers()
        assert "rbx" in instruction.destination_registers()

    def test_mov_does_not_read_destination(self):
        instruction = parse_instruction("movq %rax, %rbx")
        assert "rbx" not in instruction.source_registers()
        assert "rbx" in instruction.destination_registers()

    def test_cmp_does_not_write_register(self):
        instruction = parse_instruction("cmpq %rax, %rbx")
        assert instruction.destination_registers() == ("rflags",)

    def test_load_address_registers_are_sources(self):
        instruction = parse_instruction("movq 8(%rax,%rbx,4), %rcx")
        assert set(instruction.source_registers()) == {"rax", "rbx"}
        assert instruction.is_load and not instruction.is_store

    def test_store_writes_memory_not_registers(self):
        instruction = parse_instruction("movq %rax, 16(%rsp)")
        assert instruction.is_store
        assert instruction.destination_registers() == ()

    def test_push_uses_and_defines_rsp(self):
        instruction = parse_instruction("pushq %rbx")
        assert "rsp" in instruction.source_registers()
        assert "rsp" in instruction.destination_registers()
        assert instruction.memory_location() is not None

    def test_zero_idiom_detection(self):
        assert parse_instruction("xorl %r13d, %r13d").is_zero_idiom()
        assert not parse_instruction("xorl %eax, %ebx").is_zero_idiom()
        assert not parse_instruction("addl %eax, %eax").is_zero_idiom()

    def test_cmov_reads_flags_and_destination(self):
        instruction = parse_instruction("cmove %rax, %rbx")
        assert "rflags" in instruction.source_registers()
        assert "rbx" in instruction.source_registers()

    def test_implicit_div_registers(self):
        instruction = parse_instruction("divq %rcx")
        assert "rax" in instruction.source_registers()
        assert "rdx" in instruction.destination_registers()

    def test_memory_location_identity(self):
        first = parse_instruction("movq %rax, 16(%rsp)")
        second = parse_instruction("movq 16(%rsp), %rbx")
        assert first.memory_location() == second.memory_location()


class TestBasicBlock:
    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            BasicBlock(instructions=())

    def test_sequence_protocol(self, simple_block):
        assert len(simple_block) == 3
        assert simple_block[0].opcode.name == "ADD64rr"
        assert [i.opcode.name for i in simple_block] == simple_block.opcode_names()

    def test_counts(self, simple_block):
        assert simple_block.num_stores() == 1
        assert simple_block.num_loads() == 0
        assert simple_block.num_scalar_arithmetic() == 2

    def test_register_dependencies(self):
        block = parse_block("addq %rax, %rbx\naddq %rbx, %rcx\naddq %rcx, %rdx")
        dependencies = block.register_dependencies()
        assert (0, 1, "rbx") in dependencies
        assert (1, 2, "rcx") in dependencies

    def test_loop_carried_registers(self):
        block = parse_block("addq %rax, %rbx\naddq %rbx, %rax")
        carried = block.loop_carried_registers()
        assert "rax" in carried and "rbx" in carried

    def test_structural_key_distinguishes_blocks(self):
        a = parse_block("addq %rax, %rbx")
        b = parse_block("addq %rax, %rcx")
        assert a.structural_key() != b.structural_key()

    def test_roundtrip_through_assembly(self, sample_blocks):
        for block in sample_blocks[:15]:
            reparsed = parse_block(block.to_assembly())
            assert reparsed.opcode_names() == block.opcode_names()


class TestParser:
    @pytest.mark.parametrize("text,opcode", [
        ("pushq %rbx", "PUSH64r"),
        ("popq %rdi", "POP64r"),
        ("xorl %r13d, %r13d", "XOR32rr"),
        ("addl %eax, 16(%rsp)", "ADD32mr"),
        ("addl $7, %eax", "ADD32ri"),
        ("shrq $5, 16(%rsp)", "SHR64mi"),
        ("movq 8(%rax,%rbx,4), %rcx", "MOV64rm"),
        ("movl $374, %esi", "MOV32ri"),
        ("imulq %rcx, %rdx", "IMUL64rr"),
        ("leaq 8(%rsp), %rax", "LEA64r"),
        ("mulps %xmm1, %xmm2", "MULPSrr"),
        ("movaps %xmm0, 32(%rsp)", "MOVAPSmr"),
        ("cmove %rax, %rbx", "CMOVE64rr"),
        ("sete %al", "SETEr"),
        ("vzeroupper", "VZEROUPPER"),
        ("divq %rcx", "DIV64r"),
        ("testl %r8d, %r8d", "TEST32rr"),
    ])
    def test_parses_to_expected_opcode(self, text, opcode):
        assert parse_instruction(text).opcode.name == opcode

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_instruction("")
        with pytest.raises(ParseError):
            parse_instruction("frobnicate %rax")
        with pytest.raises(ParseError):
            parse_instruction("addq %zzz, %rax")

    @pytest.mark.parametrize("text, message", [
        ("addq $x, %rax", "invalid immediate: '$x'"),
        ("movq 8(%rax,rbx,4), %rcx", "invalid index register in '8(%rax,rbx,4)'"),
        ("movq label, %rax", "unparseable operand: 'label'"),
        ("addq %zzz, %rax", "unknown register: '%zzz'"),
    ], ids=["immediate", "index_register", "symbol", "register"])
    def test_operand_errors_name_the_operand(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_instruction(text)

    @pytest.mark.parametrize("text, opcode", [
        ("shlq %rax", "SHL64r1"), ("sarl %ecx", "SAR32r1"), ("rolq %rdx", "ROL64r1"),
        ("shrq $3, %rax", "SHR64ri"),
    ])
    def test_single_operand_shifts_use_the_implicit_one_form(self, text, opcode):
        instruction = parse_instruction(text)
        assert instruction.opcode.name == opcode
        assert format_instruction(instruction) == text

    def test_bare_displacement_is_an_absolute_address(self):
        instruction = parse_instruction("movq 16, %rax")
        assert instruction.opcode.name == "MOV64rm"
        assert instruction.operands[0] == MemoryOperand(displacement=16)
        assert format_instruction(instruction) == "movq 16, %rax"

    def test_parse_block_skips_comments_and_blank_lines(self):
        block = parse_block("""
        # a comment
        addq %rax, %rbx

        movq %rbx, %rcx  # trailing comment
        """)
        assert len(block) == 2

    def test_parse_block_semicolon_separated(self):
        block = parse_block("addq %rax, %rbx; movq %rbx, %rcx")
        assert len(block) == 2

    def test_parse_block_empty_raises(self):
        with pytest.raises(ParseError):
            parse_block("   \n  # only a comment\n")

    def test_parse_block_source_applications(self):
        block = parse_block("addq %rax, %rbx", source_applications=("Redis",))
        assert block.source_applications == ("Redis",)

    def test_format_roundtrip(self):
        for text in ["pushq %rbx", "addl %eax, 16(%rsp)", "xorl %r13d, %r13d",
                     "movq 8(%rax,%rbx,4), %rcx", "imulq %rcx, %rdx"]:
            instruction = parse_instruction(text)
            reparsed = parse_instruction(format_instruction(instruction))
            assert reparsed.opcode.name == instruction.opcode.name

    @pytest.mark.parametrize("text, opcode", [
        ("movsx %ax, %rcx", "MOVSX64rr16"),
        ("movzx %al, %eax", "MOVZX32rr8"),
        ("movsx %eax, %rcx", "MOVSX64rr32"),
        ("movzwl 8(%rax), %ecx", "MOVZX32rm16"),
        ("shrl %cl, %eax", "SHR32rCL"),
        ("sarw %cl, %dx", "SAR16rCL"),
        ("movq (,%rbx,8), %rax", "MOV64rm"),
    ])
    def test_hand_written_forms_resolve_and_round_trip(self, text, opcode):
        """Widths of movsx/movzx come from both registers (or, from memory,
        from objdump's two suffix letters), a shift by %cl from its
        destination, and a base-less operand prints back with its leading
        comma."""
        instruction = parse_instruction(text)
        assert instruction.opcode.name == opcode
        assert format_instruction(instruction) == text
        assert parse_instruction(format_instruction(instruction)) == instruction

    @pytest.mark.parametrize("text, opcode", [
        ("movzbl (%rax), %ecx", "MOVZX32rm8"),
        ("movzbl %al, %ecx", "MOVZX32rr8"),
        ("movzwl (%rax), %ecx", "MOVZX32rm16"),
        ("movslq %eax, %rcx", "MOVSX64rr32"),
        ("movslq (%rdi), %rax", "MOVSX64rm32"),
        ("movsbq %al, %rcx", "MOVSX64rr8"),
        ("sall %cl, %eax", "SHL32rCL"),
        ("sal %cl, %eax", "SHL32rCL"),
        ("salq $3, %rax", "SHL64ri"),
        ("movss %xmm1, %xmm0", "MOVSSrr"),
        ("movsd (%rax), %xmm0", "MOVSDrm"),
    ])
    def test_gnu_objdump_spellings_resolve(self, text, opcode):
        """objdump's movsx/movzx carry the source then the destination width
        in two suffix letters, and `sal` is `shl`; movss/movsd keep their
        own opcodes."""
        assert parse_instruction(text).opcode.name == opcode

    def test_base_less_memory_operand_prints_its_leading_comma(self):
        operand = MemoryOperand(index="rbx", scale=8)
        assert operand.to_assembly() == "(,%rbx,8)"
        assert MemoryOperand(displacement=-8, index="rcx", scale=2).to_assembly() \
            == "-8(,%rcx,2)"

    def test_generated_instructions_parse_back_to_their_opcodes(self):
        from repro.bhive import BlockGenerator

        instructions = [instruction
                        for block in BlockGenerator(seed=0).generate_blocks(1000)
                        for instruction in block.instructions]
        assert len(instructions) > 5000
        mismatched = [(instruction.opcode.name, format_instruction(instruction))
                      for instruction in instructions
                      if parse_instruction(format_instruction(instruction)).opcode
                      != instruction.opcode]
        assert mismatched == []


def _extend_instruction(opcode) -> Instruction:
    """An instance of a movsx/movzx opcode, its source from its name."""
    destination = RegisterOperand(registers_for_width(opcode.width)[2])
    source_width = int(re.search(r"(\d+)$", opcode.name).group(1))
    source = (MemoryOperand(displacement=8, base="rax") if opcode.form == OperandForm.RM
              else RegisterOperand(registers_for_width(source_width)[0]))
    return Instruction(opcode=opcode, operands=(source, destination))


_EXTEND_OPCODES = [opcode for opcode in DEFAULT_OPCODE_TABLE
                   if opcode.mnemonic in ("movsx", "movzx")]


class TestExtendTextRoundTrip:
    """Every movsx/movzx survives format -> parse, so the text that keys
    the compile, result and featurization caches names one opcode."""

    def test_all_extend_opcodes_are_covered(self):
        assert len(_EXTEND_OPCODES) == 24

    @pytest.mark.parametrize("opcode", _EXTEND_OPCODES, ids=lambda opcode: opcode.name)
    def test_extend_opcode_round_trips(self, opcode):
        instruction = _extend_instruction(opcode)
        text = format_instruction(instruction)
        assert parse_instruction(text) == instruction, text
        if opcode.form == OperandForm.RM:
            assert re.match(r"^mov[sz][bwl][wlq] ", text), text
        else:
            assert text.startswith(f"{opcode.mnemonic} %"), text

    def test_extend_blocks_have_distinct_structural_keys(self):
        keys = {BasicBlock(instructions=(_extend_instruction(opcode),)).structural_key()
                for opcode in _EXTEND_OPCODES}
        assert len(keys) == len(_EXTEND_OPCODES)

    def test_bare_memory_extend_prints_the_width_it_resolved_to(self):
        instruction = parse_instruction("movzx 8(%rax), %ecx")
        assert instruction.opcode.name == "MOVZX32rm16"
        assert format_instruction(instruction) == "movzwl 8(%rax), %ecx"

    def test_featurizer_keeps_source_widths_apart(self, opcode_table):
        from repro.core.surrogate import BlockFeaturizer

        byte, word = (parse_block(f"{mnemonic} (%rax), %ecx; addl %ecx, %edx")
                      for mnemonic in ("movzbl", "movzwl"))
        featurizer = BlockFeaturizer(opcode_table)
        featurizer.arrays(byte)
        fresh = BlockFeaturizer(opcode_table).arrays(word)
        np.testing.assert_array_equal(featurizer.arrays(word)["opcode_indices"],
                                      fresh["opcode_indices"])
        assert fresh["opcode_indices"][0] == opcode_table.index_of("MOVZX32rm16")

    def test_simulator_keeps_source_widths_apart(self):
        from repro.core.adapters import MCAAdapter
        from repro.targets import HASWELL

        # Each load's address is the previous iteration's result, so its
        # WriteLatency sits on the loop-carried chain.
        byte, word = (parse_block(f"{mnemonic} (%rcx), %ecx; addl %ecx, %ecx")
                      for mnemonic in ("movzbl", "movzwl"))
        adapter = MCAAdapter(HASWELL)
        spec = adapter.parameter_spec()
        arrays = adapter.default_arrays()
        latency = spec.per_instruction_field_slice("WriteLatency")
        for name, cycles in (("MOVZX32rm8", 1), ("MOVZX32rm16", 5)):
            arrays.per_instruction_values[adapter.opcode_table.index_of(name), latency] = cycles
        first = adapter.predict_timings(arrays, [byte])
        expected = MCAAdapter(HASWELL).predict_timings(arrays, [word])
        assert expected[0] == first[0] + 4
        np.testing.assert_array_equal(adapter.predict_timings(arrays, [word]), expected)


class TestCanonicalization:
    def test_vocabulary_is_stable(self, opcode_table):
        first = TokenVocabulary(opcode_table)
        second = TokenVocabulary(opcode_table)
        assert len(first) == len(second)
        assert first.token_id("OP:ADD32rr") == second.token_id("OP:ADD32rr")

    def test_vocabulary_covers_opcodes_and_registers(self, opcode_table):
        vocabulary = TokenVocabulary(opcode_table)
        assert vocabulary.opcode_token_id("ADD32rr") != vocabulary.token_id("<UNK>")
        assert vocabulary.register_token_id("rax") != vocabulary.token_id("<UNK>")

    def test_unknown_token_maps_to_unk(self, opcode_table):
        vocabulary = TokenVocabulary(opcode_table)
        assert vocabulary.token_id("OP:NOT_REAL") == vocabulary.token_id("<UNK>")

    def test_instruction_token_structure(self, opcode_table):
        vocabulary = TokenVocabulary(opcode_table)
        instruction = parse_instruction("addq %rax, %rbx")
        canonical = canonicalize_instruction(instruction, vocabulary)
        tokens = [vocabulary.token(t) for t in canonical.token_ids]
        assert tokens[0] == "OP:ADD64rr"
        assert "<S>" in tokens and "<D>" in tokens and tokens[-1] == "<E>"
        assert canonical.opcode_index == opcode_table.index_of("ADD64rr")

    def test_memory_operand_tokens(self, opcode_table):
        vocabulary = TokenVocabulary(opcode_table)
        instruction = parse_instruction("movq 8(%rax,%rbx,4), %rcx")
        canonical = canonicalize_instruction(instruction, vocabulary)
        tokens = [vocabulary.token(t) for t in canonical.token_ids]
        assert "MEM" in tokens
        assert "REG:rax" in tokens and "REG:rbx" in tokens

    def test_block_canonicalization_length(self, opcode_table, simple_block):
        vocabulary = TokenVocabulary(opcode_table)
        canonical = canonicalize_block(simple_block, vocabulary)
        assert len(canonical) == len(simple_block)

    def test_immediate_maps_to_const(self, opcode_table):
        vocabulary = TokenVocabulary(opcode_table)
        canonical = canonicalize_instruction(parse_instruction("addl $7, %eax"), vocabulary)
        tokens = [vocabulary.token(t) for t in canonical.token_ids]
        assert "CONST" in tokens


class TestGeneratedBlocksProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_blocks_parse_and_have_valid_opcodes(self, seed):
        from repro.bhive import BlockGenerator

        generator = BlockGenerator(seed=seed)
        block = generator.generate_block()
        assert len(block) >= 1
        reparsed = parse_block(block.to_assembly())
        assert reparsed.opcode_names() == block.opcode_names()
        for instruction in block:
            assert instruction.opcode.name in DEFAULT_OPCODE_TABLE
