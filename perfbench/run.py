"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile|tune|service \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes the separate traced run that prints the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``BENCHMARK.json`` lists the metrics and
``perfbench/catalog.py`` says what each one means.

The measured process starts from a pinned environment: every
``ORION_*`` variable is cleared (they select the allocation strategy,
the accelerator path, job and batch counts, cache directories, trace
and log files) and ``PYTHONHASHSEED`` is fixed, re-executing the
interpreter when the caller's environment differs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"


def pinned_environment(environ: dict[str, str]) -> dict[str, str]:
    """The environment measured processes run in."""
    env = {k: v for k, v in environ.items() if not k.startswith("ORION_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _reexec_if_unpinned() -> None:
    if pinned_environment(dict(os.environ)) != dict(os.environ):
        env = pinned_environment(dict(os.environ))
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("compile", "tune", "service")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _versions() -> str:
    import platform

    from perfbench.workloads import nproc

    parts = [f"python {platform.python_version()}"]
    for name in ("numpy", "scipy"):
        try:
            module = __import__(name)
        except ImportError:
            parts.append(f"{name} absent")
        else:
            parts.append(f"{name} {module.__version__}")
    parts.append(f"nproc {nproc()}")
    parts.append(f"PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED')}")
    return ", ".join(parts)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _reexec_if_unpinned()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import importlib

    from perfbench.catalog import DETERMINISTIC, END_TO_END, PER_LAYER, SEEDING

    workload = importlib.import_module(f"perfbench.workloads.{args.workload}")
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        notes = {name: f"moves {moves}" for name, _, _, moves in PER_LAYER}
        for name in DETERMINISTIC.get(args.workload, ()):
            notes[name] += "; repeats exactly for a seed"
    else:
        units = {name: unit for name, unit, *_ in END_TO_END}
        notes = {
            name: meaning[args.workload]
            for name, _, _, _, meaning in END_TO_END
        }
    if set(result.metrics) != set(units):
        missing = sorted(set(units) ^ set(result.metrics))
        print(f"perfbench: metrics out of step with the catalog: {missing}",
              file=sys.stderr)
        return 3
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if result.spans:
        out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"processes": result.spans}), encoding="utf-8")
        print(f"spans written to {out.relative_to(ROOT)}")
    print(f"the seed chooses: {SEEDING[args.workload]}")
    print(f"environment: {_versions()}")
    for line in result.lines:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {result.metrics[name]:.6g} {unit}  ({notes[name]})")
    print(f"attempted = {result.attempted}, failed = {result.failed}, "
          f"failed_share = {result.failed / max(1, result.attempted):.6g}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
