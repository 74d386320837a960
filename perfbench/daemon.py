"""Start one tuning daemon with the traced run's wrappers installed.

    python3 perfbench/daemon.py SPANS_FILE -- <repro serve arguments>

Installs the same wrappers as the benchmark process, runs the ``serve``
entry point, and writes the recorded spans to ``SPANS_FILE`` when the
daemon stops (after a ``shutdown`` request, or on SIGTERM).
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    spans_file, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit("usage: daemon.py SPANS_FILE -- <serve arguments>")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers
    from repro.cli import main as repro_main

    installation = layers.install()

    def dump() -> None:
        partial = Path(f"{spans_file}.partial")
        partial.write_text(
            json.dumps(installation.recorder.dump("daemon")), encoding="utf-8"
        )
        partial.replace(spans_file)

    def on_term(signum, frame) -> None:
        dump()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    code = repro_main(["serve", *serve_args])
    dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
