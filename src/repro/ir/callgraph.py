"""Call graph over a module's functions.

Inter-procedure allocation (paper Section 3.2) needs: which functions a
kernel transitively reaches, the static call sites inside each function,
and a bottom-up (callee-first) processing order.  GPU device code is
non-recursive — every thread owns a small local stack, so nvcc rejects
unbounded recursion — and we enforce the same restriction here.
"""

from __future__ import annotations

from repro.ir.function import Function, Module
from repro.isa.instructions import Instruction


class RecursionError_(ValueError):
    """Raised when the call graph contains a cycle."""


def check_acyclic(module: Module, callees: dict[str, set[str]]) -> None:
    """Raise :class:`RecursionError_` if the calls ``callees`` maps each
    function of ``module`` to form a cycle.  ``Module.validate`` runs it
    too, so a module that validates is never recursive."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in module.functions}

    def visit(name: str, trail: list[str]) -> None:
        color[name] = GREY
        for callee in sorted(callees.get(name, ())):
            if callee not in color:
                continue  # module.validate() reports unknown callees
            if color[callee] == GREY:
                cycle = " -> ".join(trail + [name, callee])
                raise RecursionError_(f"recursive device call: {cycle}")
            if color[callee] == WHITE:
                visit(callee, trail + [name])
        color[name] = BLACK

    for name in module.functions:
        if color[name] == WHITE:
            visit(name, [])


class CallGraph:
    def __init__(self, module: Module) -> None:
        self.module = module
        #: function name -> list of (block label, index, instruction)
        self.call_sites: dict[str, list[tuple[str, int, Instruction]]] = {}
        self.callees: dict[str, set[str]] = {}
        for fn in module.functions.values():
            sites = []
            names: set[str] = set()
            for block in fn.ordered_blocks():
                for idx, inst in enumerate(block.instructions):
                    if inst.is_call:
                        assert inst.callee is not None
                        sites.append((block.label, idx, inst))
                        names.add(inst.callee)
            self.call_sites[fn.name] = sites
            self.callees[fn.name] = names
        check_acyclic(module, self.callees)

    def static_call_count(self, root: str) -> int:
        """Static call sites transitively reachable from ``root``.

        This is the paper's Table 2 "Func" column: e.g. cfd retains 36
        static calls even after nvcc's aggressive inlining.
        """
        return sum(
            len(self.call_sites[name]) for name in self.reachable(root)
        )

    def reachable(self, root: str) -> set[str]:
        """``root`` plus every function it can transitively call."""
        seen = {root}
        stack = [root]
        while stack:
            name = stack.pop()
            for callee in self.callees.get(name, ()):
                if callee in self.module.functions and callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def bottom_up_order(self, root: str | None = None) -> list[str]:
        """Functions ordered callee-first (topological on the acyclic graph)."""
        names = (
            sorted(self.reachable(root)) if root else list(self.module.functions)
        )
        order: list[str] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            for callee in sorted(self.callees.get(name, ())):
                if callee in self.module.functions:
                    visit(callee)
            order.append(name)

        for name in names:
            visit(name)
        return order

    def direct_callers(self, name: str) -> list[str]:
        return [f for f, callees in self.callees.items() if name in callees]


def count_static_calls(module: Module, kernel_name: str) -> int:
    """Convenience wrapper used by the Table 2 harness."""
    return CallGraph(module).static_call_count(kernel_name)
