"""Compiled output does not depend on which optional packages are installed.

The runtime has no dependencies; numpy and scipy come only with the
test extra.  Two fresh interpreters compile the same kernels and run
the same tuning session, one of them with numpy and scipy made
unimportable, and must agree byte for byte.  The other must never
import either library, so the first run is not a fallback path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import hashlib, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = sys.modules["scipy"] = None
from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession, Workload

binaries = {}
for name in ("cfd", "heartwall", "srad"):
    spec = BENCHMARKS[name]
    module = spec.build()
    binaries[name] = compile_binary(
        module,
        module.kernel().name,
        CompileOptions(
            arch=GTX680,
            block_size=spec.workload.block_size,
            can_tune=spec.workload.can_tune,
        ),
        use_cache=False,
    ).to_bytes()
wl = BENCHMARKS["srad"].workload
report = ExecutionEngine(GTX680, backend="timing").run(
    TuningSession(
        MultiVersionBinary.from_bytes(binaries["srad"]),
        Workload(
            launch=wl.launch(),
            iterations=wl.iterations,
            traits=wl.traits,
            ilp=wl.ilp,
            max_events_per_warp=wl.max_events_per_warp,
        ),
        name="srad",
    )
)
print(json.dumps({
    "binaries": {n: hashlib.sha256(b).hexdigest() for n, b in binaries.items()},
    "session": [report.final_label, report.total_cycles],
    "imported": sorted(
        lib for lib in ("numpy", "scipy") if sys.modules.get(lib) is not None
    ),
}))
"""


def _run(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_output_is_the_same_without_numpy_and_scipy():
    plain = _run("plain")
    blocked = _run("blocked")
    assert plain["imported"] == [] and blocked["imported"] == []
    assert blocked["binaries"] == plain["binaries"]
    assert blocked["session"] == plain["session"]
