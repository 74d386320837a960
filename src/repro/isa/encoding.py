"""Binary codec for ORAS modules — Orion's front- and back-end substrate.

The paper's Orion operates directly on SASS *binaries*: a front end
decodes the binary to assembly (via an asfermi-style ISA description)
and a back end re-encodes the transformed assembly.  This module plays
that role for ORAS: :func:`encode_module` serialises a
:class:`~repro.ir.function.Module` to bytes and :func:`decode_module`
losslessly reverses it.

Layout (little-endian):

* header: magic ``ORAS``, version u16, module name, function count u16,
  function name table;
* per function: header (flags, args, shared bytes), block label table,
  then a stream of variable-length instruction records.  Branch targets
  and callees are stored as indices into the block/function tables, so a
  decoded module is structurally identical to the encoded one.
"""

from __future__ import annotations

import struct

from repro.ir.function import Function, Module
from repro.isa.instructions import (
    CmpOp,
    Imm,
    Instruction,
    MemSpace,
    Opcode,
    Operand,
)
from repro.isa.registers import PhysReg, SpecialReg, VirtualReg

MAGIC = b"ORAS"
VERSION = 2


class CodecError(ValueError):
    """Raised when a byte stream is not a valid ORAS binary.

    :meth:`repro.compiler.multiversion.MultiVersionBinary.from_bytes`
    raises it for a malformed fat-binary container as well.
    """


_OPCODES = list(Opcode)
_OPCODE_INDEX = {op: i for i, op in enumerate(_OPCODES)}
_SPACES = list(MemSpace)
_SPACE_INDEX = {s: i for i, s in enumerate(_SPACES)}
_CMPS = list(CmpOp)
_CMP_INDEX = {c: i for i, c in enumerate(_CMPS)}
_SPECIALS = list(SpecialReg)
_SPECIAL_INDEX = {s: i for i, s in enumerate(_SPECIALS)}

_TAG_VREG = 0
_TAG_PREG = 1
_TAG_SPECIAL = 2
_TAG_IMM_INT = 3
_TAG_IMM_FLOAT = 4

_NONE_U8 = 0xFF
_NONE_U16 = 0xFFFF


class _Writer:
    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def u8(self, v: int) -> None:
        self._chunks.append(struct.pack("<B", v))

    def u16(self, v: int) -> None:
        self._chunks.append(struct.pack("<H", v))

    def u32(self, v: int) -> None:
        self._chunks.append(struct.pack("<I", v))

    def i32(self, v: int) -> None:
        self._chunks.append(struct.pack("<i", v))

    def i64(self, v: int) -> None:
        self._chunks.append(struct.pack("<q", v))

    def f64(self, v: float) -> None:
        self._chunks.append(struct.pack("<d", v))

    def text(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise CodecError("string too long")
        self.u16(len(raw))
        self._chunks.append(raw)

    def bytes(self) -> bytes:
        return b"".join(self._chunks)


def _encode_operand(w: _Writer, op: Operand) -> None:
    if isinstance(op, VirtualReg):
        w.u8(_TAG_VREG)
        w.u32(op.index)
        w.u8(op.width)
    elif isinstance(op, PhysReg):
        w.u8(_TAG_PREG)
        w.u32(op.index)
        w.u8(op.width)
    elif isinstance(op, SpecialReg):
        w.u8(_TAG_SPECIAL)
        w.u8(_SPECIAL_INDEX[op])
    elif isinstance(op, Imm):
        if isinstance(op.value, float):
            w.u8(_TAG_IMM_FLOAT)
            w.f64(op.value)
        else:
            w.u8(_TAG_IMM_INT)
            w.i64(op.value)
    else:
        raise CodecError(f"cannot encode operand {op!r}")


def _encode_instruction(
    w: _Writer,
    inst: Instruction,
    block_index: dict[str, int],
    func_index: dict[str, int],
) -> None:
    w.u8(_OPCODE_INDEX[inst.opcode])
    if inst.dst is None:
        w.u8(0)
    else:
        w.u8(1)
        _encode_operand(w, inst.dst)
    w.u8(len(inst.srcs))
    for src in inst.srcs:
        _encode_operand(w, src)
    w.u8(_SPACE_INDEX[inst.space] if inst.space is not None else _NONE_U8)
    w.i32(inst.offset)
    w.u8(_CMP_INDEX[inst.cmp] if inst.cmp is not None else _NONE_U8)
    w.u8(len(inst.targets))
    for target in inst.targets:
        if target not in block_index:
            raise CodecError(f"branch to unknown block {target!r}")
        w.u16(block_index[target])
    if inst.callee is not None:
        if inst.callee not in func_index:
            raise CodecError(f"call to unknown function {inst.callee!r}")
        w.u16(func_index[inst.callee])
    else:
        w.u16(_NONE_U16)
    w.u8(_SPECIAL_INDEX[inst.special] if inst.special is not None else _NONE_U8)
    w.u8(len(inst.phi_args))
    for block, op in inst.phi_args:
        w.u16(block_index[block])
        _encode_operand(w, op)


def encode_module(module: Module) -> bytes:
    """Serialise a module to an ORAS binary."""
    w = _Writer()
    w._chunks.append(MAGIC)
    w.u16(VERSION)
    w.text(module.name)
    functions = list(module.functions.values())
    func_index = {fn.name: i for i, fn in enumerate(functions)}
    w.u16(len(functions))
    # Function name table first, so calls can reference any function
    # regardless of definition order.
    for fn in functions:
        w.text(fn.name)
    for fn in functions:
        flags = (1 if fn.is_kernel else 0) | (2 if fn.returns_value else 0)
        w.u8(flags)
        w.u16(fn.num_args)
        w.u32(fn.shared_bytes)
        order = fn.block_order
        block_index = {label: i for i, label in enumerate(order)}
        w.u16(len(order))
        for label in order:
            w.text(label)
            w.u32(len(fn.blocks[label].instructions))
        for label in order:
            for inst in fn.blocks[label].instructions:
                _encode_instruction(w, inst, block_index, func_index)
    return w.bytes()


# ----------------------------------------------------------------------
# Decoding: one pass over the bytes, with a cursor and precompiled
# structs.  Every malformed input raises CodecError (see decode_module).
# ----------------------------------------------------------------------
_HEADER = struct.Struct("<4sH")  # magic, version
_FUNCTION = struct.Struct("<BHI")  # flags, argument count, shared bytes
_U32 = struct.Struct("<I")
# space, offset, cmp, target count: the fixed fields after the sources
_MIDDLE = struct.Struct("<BiBB")
# callee, special, phi count: the fixed fields after the targets
_TAIL = struct.Struct("<HBB")
_REG = struct.Struct("<IB")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: encoded length of an operand, tag byte included, indexed by tag
_OPERAND_SIZE = (6, 6, 2, 9, 9)
_SPACE_BY_BYTE = {**dict(enumerate(_SPACES)), _NONE_U8: None}
_CMP_BY_BYTE = {**dict(enumerate(_CMPS)), _NONE_U8: None}
_SPECIAL_BY_BYTE = {**dict(enumerate(_SPECIALS)), _NONE_U8: None}


def _new_operand(raw: bytes) -> Operand:
    """The operand one encoded record names, tag byte first."""
    tag = raw[0]
    if len(raw) < _OPERAND_SIZE[tag]:
        raise CodecError("truncated binary")
    if tag == _TAG_SPECIAL:
        return _SPECIALS[raw[1]]
    if tag == _TAG_IMM_INT:
        return Imm(_I64.unpack_from(raw, 1)[0])
    if tag == _TAG_IMM_FLOAT:
        return Imm(_F64.unpack_from(raw, 1)[0])
    index, width = _REG.unpack_from(raw, 1)
    return (VirtualReg if tag == _TAG_VREG else PhysReg)(index, width)


def _text(data: bytes, pos: int) -> tuple[str, int]:
    end = pos + 2 + (data[pos] | data[pos + 1] << 8)
    if end > len(data):
        raise CodecError("truncated binary")
    return data[pos + 2 : end].decode("utf-8"), end


def decode_module(data: bytes) -> Module:
    """Decode an ORAS binary back into a module.

    Raises :class:`CodecError`, and no other exception, on any input
    that is not an encoded module: bad magic or version, truncation,
    trailing bytes, an out-of-range table index (opcode, space,
    comparison, special register, block, function or operand tag), an
    invalid register width, a non-register destination, text that is
    not UTF-8, a kernel declaring arguments, or a duplicate block or
    function name.
    """
    data = bytes(data)
    pos = 0
    try:
        magic, version = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise CodecError("bad magic; not an ORAS binary")
        if version != VERSION:
            raise CodecError(f"unsupported ORAS version {version}")
        name, pos = _text(data, 6)
        module = Module(name)
        nfunctions = data[pos] | data[pos + 1] << 8
        pos += 2
        func_names = []
        for _ in range(nfunctions):
            name, pos = _text(data, pos)
            func_names.append(name)
        callees = {**dict(enumerate(func_names)), _NONE_U16: None}
        for name in func_names:
            flags, num_args, shared_bytes = _FUNCTION.unpack_from(data, pos)
            fn = Function(
                name,
                is_kernel=bool(flags & 1),
                num_args=num_args,
                shared_bytes=shared_bytes,
                returns_value=bool(flags & 2),
            )
            nblocks = data[pos + 7] | data[pos + 8] << 8
            pos += 9
            blocks = []
            for _ in range(nblocks):
                label, pos = _text(data, pos)
                blocks.append((label, _U32.unpack_from(data, pos)[0]))
                pos += 4
            block_names = [label for label, _ in blocks]
            # Operands are immutable, so each distinct encoding is built
            # once per function.  The memo holds exactly the operands the
            # function reads or writes, which gives its top virtual index.
            memo: dict[bytes, Operand] = {}
            for label, ninstructions in blocks:
                append = fn.add_block(label).instructions.append
                for _ in range(ninstructions):
                    opcode = _OPCODES[data[pos]]
                    if data[pos + 1]:
                        pos += 2
                        if data[pos] > _TAG_PREG:
                            raise CodecError(
                                "instruction destination must be a register"
                            )
                        end = pos + 6
                        key = data[pos:end]
                        dst = memo.get(key)
                        if dst is None:
                            dst = memo[key] = _new_operand(key)
                        pos = end
                    else:
                        dst = None
                        pos += 2
                    nsrcs = data[pos]
                    pos += 1
                    srcs = []
                    for _ in range(nsrcs):
                        end = pos + _OPERAND_SIZE[data[pos]]
                        key = data[pos:end]
                        op = memo.get(key)
                        if op is None:
                            op = memo[key] = _new_operand(key)
                        srcs.append(op)
                        pos = end
                    space, offset, cmp, ntargets = _MIDDLE.unpack_from(data, pos)
                    pos += 7
                    targets = []
                    for _ in range(ntargets):
                        targets.append(block_names[data[pos] | data[pos + 1] << 8])
                        pos += 2
                    callee, special, nphi = _TAIL.unpack_from(data, pos)
                    pos += 4
                    phi_args = []
                    for _ in range(nphi):
                        block = block_names[data[pos] | data[pos + 1] << 8]
                        pos += 2
                        end = pos + _OPERAND_SIZE[data[pos]]
                        key = data[pos:end]
                        op = memo.get(key)
                        if op is None:
                            op = _new_operand(key)
                            # Only a PHI reads its incoming operands.
                            if opcode is Opcode.PHI:
                                memo[key] = op
                        phi_args.append((block, op))
                        pos = end
                    append(
                        Instruction(
                            opcode,
                            dst,
                            srcs,
                            _SPACE_BY_BYTE[space],
                            offset,
                            _CMP_BY_BYTE[cmp],
                            targets,
                            callees[callee],
                            _SPECIAL_BY_BYTE[special],
                            phi_args,
                        )
                    )
            fn.reserve_vregs(
                max(
                    (op.index + 1 for op in memo.values() if type(op) is VirtualReg),
                    default=0,
                )
            )
            module.add(fn)
    except CodecError:
        raise
    except (IndexError, KeyError, ValueError, struct.error) as exc:
        raise CodecError(
            f"malformed binary near byte {pos}: {type(exc).__name__}: {exc}"
        ) from None
    if pos != len(data):
        raise CodecError("trailing bytes after module")
    return module
