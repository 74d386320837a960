"""Shared test utilities: small hand-written ORAS programs."""

from __future__ import annotations

import threading

from repro.ir.function import Function, Module
from repro.isa.assembly import parse_module


def module_from_asm(text: str) -> Module:
    module = parse_module(text)
    module.validate()
    return module


def straight_line_kernel() -> Module:
    """A branch-free kernel touching params, global memory, and ALU ops."""
    return module_from_asm(
        """
        .module straight
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            LD.param %v1, [0]
            IADD %v2, %v0, %v1
            SHL %v3, %v2, 2
            LD.global %v4, [%v3]
            FMUL %v5, %v4, 2.0
            ST.global [%v3], %v5
            EXIT
        .end
        """
    )


def diamond_kernel() -> Module:
    """If/else reconverging at an exit block."""
    return module_from_asm(
        """
        .module diamond
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            ISET.lt %v1, %v0, 16
            CBR %v1, BBT, BBF
        BBT:
            MOV %v2, 1
            BRA BBJ
        BBF:
            MOV %v2, 2
            BRA BBJ
        BBJ:
            SHL %v3, %v0, 2
            ST.global [%v3], %v2
            EXIT
        .end
        """
    )


def loop_kernel() -> Module:
    """A counted loop accumulating into a register, then storing."""
    return module_from_asm(
        """
        .module loopy
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            LD.param %v1, [0]
            MOV %v2, 0
            MOV %v3, 0
            BRA HEAD
        HEAD:
            ISET.lt %v4, %v3, %v1
            CBR %v4, BODY, DONE
        BODY:
            IADD %v2, %v2, %v3
            IADD %v3, %v3, 1
            BRA HEAD
        DONE:
            SHL %v5, %v0, 2
            ST.global [%v5], %v2
            EXIT
        .end
        """
    )


def call_kernel() -> Module:
    """A kernel calling a device function twice plus a nested call."""
    return module_from_asm(
        """
        .module callee
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 2
            LD.global %v2, [%v1]
            CALL %v3, scale(%v2)
            CALL %v4, scale(%v3)
            ST.global [%v1], %v4
            EXIT
        .end
        .func scale args=1 returns=1
        BB0:
            CALL %v1, offset(%v0)
            FMUL %v2, %v1, 3.0
            RET %v2
        .end
        .func offset args=1 returns=1
        BB0:
            FADD %v1, %v0, 1.0
            RET %v1
        .end
        """
    )


def copy_kernel() -> Module:
    """A register copy used beside its source: interference leaves the
    pair unconnected, so both fit one register."""
    return module_from_asm(
        """
        .module copy
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 2
            LD.global %v2, [%v1+0]
            MOV %v3, %v2
            FADD %v4, %v2, %v3
            ST.global [%v1], %v4
            EXIT
        .end
        """
    )


def copy_call_kernel() -> Module:
    """A register copy and its source both live across a call."""
    return module_from_asm(
        """
        .module copycall
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 2
            LD.global %v2, [%v1]
            MOV %v3, %v2
            CALL %v4, scale(%v2)
            FADD %v5, %v2, %v3
            FADD %v6, %v5, %v4
            ST.global [%v1], %v6
            EXIT
        .end
        .func scale args=1 returns=1
        BB0:
            FMUL %v1, %v0, 3.0
            FADD %v2, %v1, %v0
            RET %v2
        .end
        """
    )


def wide_kernel() -> Module:
    """Uses 64-bit and 128-bit values to exercise wide allocation."""
    return module_from_asm(
        """
        .module wide
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 3
            LD.global %v2.w2, [%v1]
            LD.global %v3.w4, [%v1+16]
            FADD %v4.w2, %v2.w2, %v3.w4
            FMUL %v5, %v4.w2, 0.5
            ST.global [%v1], %v5
            EXIT
        .end
        """
    )


def pressure_kernel(n: int) -> Module:
    """A kernel holding ``n`` loaded values live at once."""
    lines = ["S2R %v0, %tid", "SHL %v1, %v0, 2"]
    lines += [f"LD.global %v{2 + i}, [%v1+{4 * i}]" for i in range(n)]
    accum = "%v2"
    for i in range(1, n):
        lines.append(f"FADD %v{100 + i}, {accum}, %v{2 + i}")
        accum = f"%v{100 + i}"
    lines += [f"ST.global [%v1], {accum}", "EXIT"]
    body = "\n".join(f"    {line}" for line in lines)
    return module_from_asm(f".module m\n.kernel k shared=0\nBB0:\n{body}\n.end")


# ----------------------------------------------------------------------
# Fat binaries decoded on demand
# ----------------------------------------------------------------------
def count_decodes(monkeypatch) -> list:
    """Record every module decode a :class:`KernelVersion` makes.

    Returns a live list with one entry per decode: the thread that
    decoded and the bytes it decoded.
    """
    from repro.compiler import realize

    calls: list = []
    original = realize.decode_module

    def counting(data):
        calls.append((threading.current_thread(), data))
        return original(data)

    monkeypatch.setattr(realize, "decode_module", counting)
    return calls


def payloads(binary) -> set[bytes]:
    """The distinct version payloads of a fat binary.

    A parsed binary decodes each once: versions with equal bytes (and,
    in every benchmark binary, equal resource fields) share a module.
    """
    return {v.binary for v in (*binary.versions, *binary.failsafe)}


def corrupt_version(data: bytes, label: str) -> bytes:
    """The fat binary ``data`` with version ``label``'s ORAS magic broken.

    The container framing stays valid, so only decoding that one
    version's module fails.
    """
    from repro.compiler.multiversion import MultiVersionBinary

    binary = MultiVersionBinary.from_bytes(data)
    [version] = [
        v for v in (*binary.versions, *binary.failsafe) if v.label == label
    ]
    version.binary = b"XXXX" + version.binary[4:]
    return binary.to_bytes()


#: the hotspot/GTX680 version :func:`corrupt_hotspot` breaks
HOTSPOT_UNMEASURED = "conservative warps=64"


def corrupt_hotspot():
    """hotspot's GTX680 fat binary with :data:`HOTSPOT_UNMEASURED`
    broken, and hotspot's workload.

    On the analytical backend a session converges without measuring
    that version, so only a step that decodes every version sees it.
    """
    from repro.arch import GTX680
    from repro.bench.kernels import BENCHMARKS
    from repro.harness.experiments import _workload, compiled

    spec = BENCHMARKS["hotspot"]
    binary = compiled(spec, GTX680, strategy="local-spill")
    return corrupt_version(binary.to_bytes(), HOTSPOT_UNMEASURED), _workload(spec)


# ----------------------------------------------------------------------
# One engine shared by threads, as the daemon's tune workers share it
# ----------------------------------------------------------------------
def run_on_threads(engine, sessions, threads: int) -> list:
    """Run ``sessions`` through ``engine.run`` from ``threads`` threads.

    Thread ``t`` runs sessions ``t``, ``t + threads``, … in turn; the
    reports come back in input order.
    """
    reports: list = [None] * len(sessions)

    def work(first: int) -> None:
        for i in range(first, len(sessions), threads):
            reports[i] = engine.run(sessions[i])

    workers = [
        threading.Thread(target=work, args=(t,), daemon=True)
        for t in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=240)
    assert not any(w.is_alive() for w in workers), "sessions hung"
    return reports
