"""Binary codec tests, including a hypothesis-generated program round-trip.

The one-pass decoder is checked against the field-by-field decoder it
replaced (``tests/isa/reference_decoder.py``): on every input both
accept, the modules must be equal instruction by instruction, in the
same block order, with the same next free virtual register.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.specs import all_architectures
from repro.bench.kernels import BENCHMARKS
from repro.fuzz.generator import SHAPES, generate_module
from repro.harness.experiments import compiled
from repro.ir.function import Function, Module
from repro.ir.ssa import construct_ssa
from repro.isa.assembly import format_module
from repro.isa.encoding import CodecError, decode_module, encode_module
from repro.isa.instructions import (
    CmpOp,
    Imm,
    Instruction,
    MemSpace,
    Opcode,
)
from repro.isa.registers import PhysReg, SpecialReg, VirtualReg

from tests.helpers import (
    call_kernel,
    diamond_kernel,
    loop_kernel,
    straight_line_kernel,
    wide_kernel,
)
from tests.isa.reference_decoder import reference_decode_module


def assert_same_module(actual: Module, expected: Module) -> None:
    """Equal functions, blocks, instructions and next virtual register."""
    assert actual.name == expected.name
    assert list(actual.functions) == list(expected.functions)
    for name, fn in actual.functions.items():
        ref = expected.functions[name]
        assert (fn.is_kernel, fn.num_args, fn.shared_bytes, fn.returns_value) == (
            ref.is_kernel,
            ref.num_args,
            ref.shared_bytes,
            ref.returns_value,
        )
        assert fn.block_order == ref.block_order
        for label in fn.block_order:
            assert fn.blocks[label].instructions == ref.blocks[label].instructions
        assert fn._next_vreg == ref._next_vreg


def assert_decodes_like_reference(data: bytes) -> None:
    assert_same_module(decode_module(data), reference_decode_module(data))


@pytest.mark.parametrize(
    "make",
    [straight_line_kernel, diamond_kernel, loop_kernel, call_kernel, wide_kernel],
)
def test_binary_round_trip_fixtures(make):
    module = make()
    data = encode_module(module)
    again = decode_module(data)
    assert format_module(again) == format_module(module)
    assert_decodes_like_reference(data)


def test_bad_magic_rejected():
    with pytest.raises(CodecError):
        decode_module(b"NOPE" + b"\x00" * 16)


def test_truncated_rejected():
    data = encode_module(straight_line_kernel())
    with pytest.raises(CodecError):
        decode_module(data[: len(data) // 2])


def test_trailing_bytes_rejected():
    data = encode_module(straight_line_kernel())
    with pytest.raises(CodecError):
        decode_module(data + b"\x00")


def test_forward_call_reference():
    """A function may call one defined later in the module."""
    module = Module("fwd")
    caller = Function("caller", is_kernel=True)
    bb = caller.add_block("BB0")
    bb.append(Instruction(Opcode.CALL, dst=VirtualReg(1), srcs=[Imm(1)], callee="late"))
    bb.append(Instruction(Opcode.EXIT))
    module.add(caller)
    late = Function("late", is_kernel=False, num_args=1, returns_value=True)
    bb = late.add_block("BB0")
    bb.append(Instruction(Opcode.RET, srcs=[VirtualReg(0)]))
    module.add(late)

    data = encode_module(module)
    again = decode_module(data)
    assert format_module(again) == format_module(module)
    assert_decodes_like_reference(data)


# ----------------------------------------------------------------------
# One error type: whatever is malformed raises CodecError
# ----------------------------------------------------------------------
def _decodes_or_codec_error(data: bytes) -> bool:
    """True when ``data`` decodes; False when it raises CodecError.

    Any other exception escapes and fails the calling test.
    """
    try:
        decode_module(data)
    except CodecError as exc:
        assert type(exc) is CodecError
        return False
    return True


def test_every_prefix_raises_codec_error():
    data = encode_module(call_kernel())
    for cut in range(len(data)):
        assert not _decodes_or_codec_error(data[:cut]), cut


@pytest.mark.parametrize("byte", [0x7F, 0xFE])
def test_every_single_byte_mutation_decodes_or_raises_codec_error(byte):
    """The reference decoder raised IndexError, ValueError and
    UnicodeDecodeError on many of these."""
    data = encode_module(call_kernel())
    for offset in range(len(data)):
        mutated = data[:offset] + bytes([byte]) + data[offset + 1 :]
        if _decodes_or_codec_error(mutated):
            assert_decodes_like_reference(mutated)


def test_non_register_destination_rejected():
    module = Module("m")
    fn = Function("k", is_kernel=True)
    fn.add_block("BB0").append(Instruction(Opcode.EXIT, dst=VirtualReg(3)))
    module.add(fn)
    data = bytearray(encode_module(module))
    tag = data.index(bytes([0, 3, 0, 0, 0, 1]))  # the dst operand record
    data[tag] = 2  # the special-register tag
    with pytest.raises(CodecError, match="destination"):
        decode_module(bytes(data))


# ----------------------------------------------------------------------
# The one-pass decoder equals the reference decoder
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["local-spill", "smem-spill"])
@pytest.mark.parametrize("arch", all_architectures(), ids=lambda a: a.name)
def test_fat_binary_versions_decode_like_reference(arch, strategy):
    for spec in BENCHMARKS.values():
        binary = compiled(spec, arch, strategy=strategy)
        for version in (*binary.versions, *binary.failsafe):
            assert_decodes_like_reference(version.binary)


@pytest.mark.parametrize("shape", SHAPES)
def test_fuzz_modules_decode_like_reference(shape):
    """Source modules (virtual registers) and their SSA form (PHIs)."""
    for seed in range(20):
        module = generate_module(seed, shape)
        ssa = module.copy()
        for fn in ssa.functions.values():
            construct_ssa(fn)
        for form in (module, ssa):
            assert_decodes_like_reference(encode_module(form))


def test_next_vreg_counts_phi_operands_only_on_phis():
    """``Function.all_regs`` reads ``phi_args`` only of a PHI, so a
    stray incoming operand on another opcode must not raise the top."""
    module = Module("m")
    fn = Function("k", is_kernel=True)
    bb = fn.add_block("BB0")
    bb.append(Instruction(Opcode.MOV, dst=VirtualReg(1), srcs=[Imm(0)]))
    bb.append(
        Instruction(Opcode.NOP, phi_args=[("BB0", VirtualReg(40))])
    )
    bb.append(
        Instruction(
            Opcode.PHI, dst=VirtualReg(2), phi_args=[("BB0", VirtualReg(9))]
        )
    )
    bb.append(Instruction(Opcode.EXIT))
    module.add(fn)
    decoded = decode_module(encode_module(module))
    assert decoded.functions["k"]._next_vreg == 10
    assert_decodes_like_reference(encode_module(module))


# ----------------------------------------------------------------------
# Property-based round trip over arbitrary straight-line programs
# ----------------------------------------------------------------------
_regs = st.builds(
    VirtualReg,
    index=st.integers(min_value=0, max_value=200),
    width=st.sampled_from([1, 2, 3, 4]),
)
_phys = st.builds(
    PhysReg,
    index=st.integers(min_value=0, max_value=60),
    width=st.sampled_from([1, 2]),
)
_operands = st.one_of(
    _regs,
    _phys,
    st.sampled_from(list(SpecialReg)),
    st.builds(Imm, st.integers(min_value=-(2**31), max_value=2**31 - 1)),
    st.builds(Imm, st.floats(allow_nan=False, allow_infinity=False, width=32)),
)


@st.composite
def _alu_instruction(draw):
    opcode = draw(
        st.sampled_from(
            [Opcode.IADD, Opcode.FMUL, Opcode.XOR, Opcode.IMAD, Opcode.MOV]
        )
    )
    nsrc = {Opcode.IMAD: 3, Opcode.MOV: 1}.get(opcode, 2)
    return Instruction(
        opcode,
        dst=draw(_regs),
        srcs=[draw(_operands) for _ in range(nsrc)],
    )


@st.composite
def _mem_instruction(draw):
    space = draw(st.sampled_from(list(MemSpace)))
    offset = draw(st.integers(min_value=-(2**20), max_value=2**20))
    if draw(st.booleans()):
        return Instruction(
            Opcode.LD, dst=draw(_regs), srcs=[draw(_regs)], space=space, offset=offset
        )
    return Instruction(
        Opcode.ST, srcs=[draw(_operands), draw(_regs)], space=space, offset=offset
    )


@st.composite
def _set_instruction(draw):
    return Instruction(
        draw(st.sampled_from([Opcode.ISET, Opcode.FSET])),
        dst=draw(_regs),
        srcs=[draw(_operands), draw(_operands)],
        cmp=draw(st.sampled_from(list(CmpOp))),
    )


_any_instruction = st.one_of(_alu_instruction(), _mem_instruction(), _set_instruction())


@given(body=st.lists(_any_instruction, min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_binary_round_trip_random_programs(body):
    module = Module("fuzz")
    fn = Function("k", is_kernel=True)
    bb = fn.add_block("BB0")
    for inst in body:
        bb.append(inst)
    bb.append(Instruction(Opcode.EXIT))
    module.add(fn)

    data = encode_module(module)
    again = decode_module(data)
    assert format_module(again) == format_module(module)
    assert_decodes_like_reference(data)
