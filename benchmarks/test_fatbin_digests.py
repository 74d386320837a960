"""Fat binaries unchanged: one sha256 per compiled benchmark binary.

Compiles the 14 benchmark kernels for GTX680, Tesla C2075, GTX980 and
GTX1080 under the local-spill, smem-spill and mixed strategies (168
fat binaries, each cold: ``use_cache=False``) and writes one line per
binary, ``<kernel> <arch> <strategy> <sha256 of the binary's bytes>``,
to ``benchmarks/results/fatbin_digests.txt``.

CI runs this test and then ``git diff --exit-code`` on the file, so a
change that alters any byte the compiler emits fails the step.  A
change meant to alter output commits the regenerated file with it.
The run takes about 20 s on a 2-vCPU VM.

    PYTHONPATH=src python -m pytest benchmarks/test_fatbin_digests.py -q
"""

from __future__ import annotations

import hashlib

from repro.arch import GTX680, GTX980, GTX1080, TESLA_C2075
from repro.bench.kernels import BENCHMARKS
from repro.compiler.pipeline import CompileOptions, compile_binary

ARCHES = (GTX680, TESLA_C2075, GTX980, GTX1080)
STRATEGIES = ("local-spill", "smem-spill", "mixed")


def _digest_lines() -> list[str]:
    lines = []
    for name, spec in sorted(BENCHMARKS.items()):
        for arch in ARCHES:
            for strategy in STRATEGIES:
                module = spec.build()
                options = CompileOptions(
                    arch=arch,
                    block_size=spec.workload.block_size,
                    can_tune=spec.workload.can_tune,
                    strategy=strategy,
                )
                binary = compile_binary(
                    module, module.kernel().name, options, use_cache=False
                )
                digest = hashlib.sha256(binary.to_bytes()).hexdigest()
                lines.append(
                    f"{name} {arch.name.replace(' ', '_')} {strategy} {digest}"
                )
    return lines


def test_fatbin_digests(results_dir):
    lines = _digest_lines()
    assert len(lines) == len(BENCHMARKS) * len(ARCHES) * len(STRATEGIES)
    path = results_dir / "fatbin_digests.txt"
    path.write_text("\n".join(lines) + "\n")
    print(f"\n[{len(lines)} digests saved to {path}]")
