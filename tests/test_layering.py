"""The layers below the service never import it.

The service layer (``repro.service``) is built on the runtime, the
simulator and the compiler; none of those may reach back up into it,
not even from inside a function.  Parsed with :mod:`ast`, so the check
runs wherever the tests do and sees imports a running test might never
execute.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the packages below the service layer
LOWER_LAYERS = (
    "arch", "isa", "ir", "regalloc", "compiler", "perf", "sim", "runtime", "obs",
)


def _is_service(module: str) -> bool:
    return module == "repro.service" or module.startswith("repro.service.")


def _imports_service(node: ast.AST, package: str) -> bool:
    if isinstance(node, ast.Import):
        return any(_is_service(alias.name) for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    base = node.module or ""
    if node.level:
        # ``from ..x import y`` inside ``package``: resolve it.
        parts = package.split(".")
        parts = parts[: len(parts) - node.level + 1] + ([base] if base else [])
        base = ".".join(parts)
    return _is_service(base) or any(
        _is_service(f"{base}.{alias.name}") for alias in node.names
    )


def service_imports(source: str, package: str) -> list[int]:
    """Line numbers of every import of ``repro.service``, at any depth,
    in a module of ``package``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if _imports_service(node, package)
    ]


def _package(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1])


def test_lower_layers_never_import_the_service():
    found = []
    scanned = 0
    for layer in LOWER_LAYERS:
        for path in sorted((SRC / layer).rglob("*.py")):
            scanned += 1
            found += [
                f"{path.relative_to(SRC)}:{line}"
                for line in service_imports(path.read_text(), _package(path))
            ]
    assert scanned >= len(LOWER_LAYERS)
    assert found == []


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
        assert service_imports(source, "repro.runtime"), source
    for source in allowed:
        assert service_imports(source, "repro.runtime") == [], source
