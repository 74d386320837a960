"""The layers below the service never import it.

The service layer (``repro.service``) is built on the runtime, the
simulator and the compiler; none of those may reach back up into it,
not even from inside a function.  Likewise the simulator and the
architecture tables time and size a binary as it is: neither may import
the register allocator (``repro.regalloc``).  Parsed with :mod:`ast`,
so the check runs wherever the tests do and sees imports a running test
might never execute.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the packages below the service layer
LOWER_LAYERS = (
    "arch", "isa", "ir", "regalloc", "compiler", "perf", "sim", "runtime", "obs",
)


def _within(module: str, target: str) -> bool:
    return module == target or module.startswith(target + ".")


def _imports(node: ast.AST, package: str, target: str) -> bool:
    if isinstance(node, ast.Import):
        return any(_within(alias.name, target) for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    base = node.module or ""
    if node.level:
        # ``from ..x import y`` inside ``package``: resolve it.
        parts = package.split(".")
        parts = parts[: len(parts) - node.level + 1] + ([base] if base else [])
        base = ".".join(parts)
    return _within(base, target) or any(
        _within(f"{base}.{alias.name}", target) for alias in node.names
    )


def imports_of(source: str, package: str, target: str) -> list[int]:
    """Line numbers of every import of ``target`` (a package), at any
    depth, in a module of ``package``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if _imports(node, package, target)
    ]


def _package(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1])


def _offenders(layers: tuple[str, ...], target: str) -> list[str]:
    """``file:line`` of every import of ``target`` under ``layers``."""
    found = []
    scanned = 0
    for layer in layers:
        for path in sorted((SRC / layer).rglob("*.py")):
            scanned += 1
            found += [
                f"{path.relative_to(SRC)}:{line}"
                for line in imports_of(
                    path.read_text(), _package(path), target
                )
            ]
    assert scanned >= len(layers)
    return found


def test_lower_layers_never_import_the_service():
    assert _offenders(LOWER_LAYERS, "repro.service") == []


def test_sim_and_arch_never_import_the_allocator():
    assert _offenders(("sim", "arch"), "repro.regalloc") == []


def test_guard_flags_service_imports_at_any_depth():
    flagged = [
        "import repro.service\n",
        "import repro.service.store as s\n",
        "from repro.service.store import TuningStore\n",
        "from repro.service import protocol\n",
        "from repro import service\n",
        "def f():\n    from repro.service.fingerprint import tuning_key\n",
        "class C:\n    def m(self):\n        if x:\n"
        "            import repro.service.daemon\n",
        "from .. import service\n",
        "from ..service.store import TuningStore\n",
    ]
    allowed = [
        "import repro.services_elsewhere\n",
        "from repro.runtime.engine import ExecutionEngine\n",
        "from repro import runtime\n",
        "from . import service\n",
    ]
    for source in flagged:
        assert imports_of(source, "repro.runtime", "repro.service"), source
    for source in allowed:
        assert imports_of(source, "repro.runtime", "repro.service") == [], (
            source
        )
    # The same walker guards the allocator from the simulator.
    assert imports_of(
        "from ..regalloc.strategy import get_strategy\n",
        "repro.sim",
        "repro.regalloc",
    )
    assert imports_of(
        "from repro.arch.occupancy import calculate_occupancy\n",
        "repro.sim",
        "repro.regalloc",
    ) == []
