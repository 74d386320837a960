"""No broad ``except`` may turn a compiler bug into a different binary.

A handler for ``Exception`` or ``BaseException``, or a bare ``except``,
in the compile path hides the bug it catches: the compile carries on
along another path and its output changes without an error.  Such a
handler is allowed only when it re-raises (cleanup, then a bare
``raise``).  Parsed with :mod:`ast`, so the check runs wherever the
tests do.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the packages a compile runs through
COMPILE_PATH = ("arch", "compiler", "regalloc", "ir", "isa", "perf")

_BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    return any(isinstance(t, ast.Name) and t.id in _BROAD for t in types)


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler's own body holds a bare ``raise``.

    A ``raise`` inside a nested function, class or handler re-raises
    something else, so the walk does not enter those.
    """
    stack = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
             ast.ExceptHandler),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def broad_handlers(root: Path = SRC) -> dict[str, bool]:
    """``path:line`` of every broad handler, and whether it re-raises."""
    found = {}
    for package in COMPILE_PATH:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ExceptHandler) and _is_broad(node):
                    site = f"{path.relative_to(root)}:{node.lineno}"
                    found[site] = _reraises(node)
    return found


def test_compile_path_has_no_swallowing_broad_except():
    handlers = broad_handlers()
    # The disk cache removes its temp file and re-raises; seeing it shows
    # the scan reached the sources.
    assert any(site.startswith("perf/cache.py:") for site in handlers)
    assert [site for site, reraises in handlers.items() if not reraises] == []


def _handlers(source: str) -> list[ast.ExceptHandler]:
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler)
    ]


def test_guard_flags_broad_handlers_and_passes_re_raises():
    flagged = [
        "try:\n    f()\nexcept Exception:\n    pass\n",
        "try:\n    f()\nexcept:\n    g()\n",
        "try:\n    f()\nexcept (ValueError, BaseException) as e:\n    log(e)\n",
        # A raise in a nested handler or function re-raises something else.
        "try:\n    f()\nexcept Exception:\n"
        "    try:\n        g()\n    except OSError:\n        raise\n",
        "try:\n    f()\nexcept Exception:\n    def h():\n        raise\n",
    ]
    allowed = [
        "try:\n    f()\nexcept BaseException:\n    cleanup()\n    raise\n",
        "try:\n    f()\nexcept Exception:\n    if bad:\n        raise\n",
        "try:\n    f()\nexcept ValueError:\n    pass\n",
    ]
    for source in flagged:
        handler = _handlers(source)[0]
        assert _is_broad(handler) and not _reraises(handler), source
    for source in allowed:
        handler = _handlers(source)[0]
        assert not (_is_broad(handler) and not _reraises(handler)), source
