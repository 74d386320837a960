"""The field-by-field ORAS decoder, kept as the reference.

:func:`repro.isa.encoding.decode_module` decodes the same byte format
in one pass.  This is the decoder it replaced, unchanged except for its
name and that it imports the codec tables instead of defining them:
every module the one-pass decoder returns must equal what this one
returns, instruction by instruction, in the same block order and with
the same next free virtual-register index.  On malformed input this decoder may raise
``IndexError``, a bare ``ValueError`` or ``UnicodeDecodeError`` as well
as ``CodecError``; the one-pass decoder raises only ``CodecError``.
"""

from __future__ import annotations

import struct

from repro.ir.function import Function, Module
from repro.isa.encoding import (
    _CMPS,
    _NONE_U8,
    _NONE_U16,
    _OPCODES,
    _SPACES,
    _SPECIALS,
    _TAG_IMM_FLOAT,
    _TAG_IMM_INT,
    _TAG_PREG,
    _TAG_SPECIAL,
    _TAG_VREG,
    MAGIC,
    VERSION,
    CodecError,
)
from repro.isa.instructions import Imm, Instruction, Operand
from repro.isa.registers import PhysReg, VirtualReg


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CodecError("truncated binary")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self._take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def text(self) -> str:
        n = self.u16()
        return self._take(n).decode("utf-8")

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)


def _decode_operand(r: _Reader) -> Operand:
    tag = r.u8()
    if tag == _TAG_VREG:
        index = r.u32()
        return VirtualReg(index, r.u8())
    if tag == _TAG_PREG:
        index = r.u32()
        return PhysReg(index, r.u8())
    if tag == _TAG_SPECIAL:
        return _SPECIALS[r.u8()]
    if tag == _TAG_IMM_INT:
        return Imm(r.i64())
    if tag == _TAG_IMM_FLOAT:
        return Imm(r.f64())
    raise CodecError(f"unknown operand tag {tag}")


def _decode_instruction(
    r: _Reader, block_names: list[str], func_names: list[str]
) -> Instruction:
    opcode = _OPCODES[r.u8()]
    dst = None
    if r.u8():
        decoded = _decode_operand(r)
        if not isinstance(decoded, (VirtualReg, PhysReg)):
            raise CodecError("instruction destination must be a register")
        dst = decoded
    srcs = [_decode_operand(r) for _ in range(r.u8())]
    space_idx = r.u8()
    space = _SPACES[space_idx] if space_idx != _NONE_U8 else None
    offset = r.i32()
    cmp_idx = r.u8()
    cmp = _CMPS[cmp_idx] if cmp_idx != _NONE_U8 else None
    targets = [block_names[r.u16()] for _ in range(r.u8())]
    callee_idx = r.u16()
    callee = func_names[callee_idx] if callee_idx != _NONE_U16 else None
    special_idx = r.u8()
    special = _SPECIALS[special_idx] if special_idx != _NONE_U8 else None
    phi_args = []
    for _ in range(r.u8()):
        block = block_names[r.u16()]
        phi_args.append((block, _decode_operand(r)))
    return Instruction(
        opcode=opcode,
        dst=dst,
        srcs=srcs,
        space=space,
        offset=offset,
        cmp=cmp,
        targets=targets,
        callee=callee,
        special=special,
        phi_args=phi_args,
    )


def reference_decode_module(data: bytes) -> Module:
    """Decode an ORAS binary back into a module, one field at a time."""
    r = _Reader(data)
    if r._take(4) != MAGIC:
        raise CodecError("bad magic; not an ORAS binary")
    version = r.u16()
    if version != VERSION:
        raise CodecError(f"unsupported ORAS version {version}")
    module = Module(r.text())
    num_functions = r.u16()
    func_names = [r.text() for _ in range(num_functions)]
    headers: list[Function] = []
    for name in func_names:
        flags = r.u8()
        num_args = r.u16()
        shared_bytes = r.u32()
        fn = Function(
            name,
            is_kernel=bool(flags & 1),
            num_args=num_args,
            shared_bytes=shared_bytes,
            returns_value=bool(flags & 2),
        )
        blocks = [(r.text(), r.u32()) for _ in range(r.u16())]
        block_names = [label for label, _ in blocks]
        for label, count in blocks:
            block = fn.add_block(label)
            for _ in range(count):
                block.append(_decode_instruction(r, block_names, func_names))
        headers.append(fn)
        module.add(fn)
    if not r.exhausted:
        raise CodecError("trailing bytes after module")
    for fn in headers:
        top = max(
            (reg.index + 1 for reg in fn.all_regs() if isinstance(reg, VirtualReg)),
            default=0,
        )
        fn.reserve_vregs(top)
    return module
