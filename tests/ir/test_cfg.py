"""CFG, dominator, frontier, and loop tests."""

import pytest

from repro.ir.cfg import CFG, split_critical_edges
from repro.ir.callgraph import CallGraph, RecursionError_, count_static_calls
from repro.isa.assembly import parse_module
from tests.helpers import (
    call_kernel,
    diamond_kernel,
    loop_kernel,
    module_from_asm,
    straight_line_kernel,
)


class TestCFGShape:
    def test_straight_line(self):
        fn = straight_line_kernel().kernel()
        cfg = CFG(fn)
        assert cfg.rpo == ["BB0"]
        assert cfg.back_edges == []

    def test_diamond(self):
        fn = diamond_kernel().kernel()
        cfg = CFG(fn)
        assert cfg.rpo[0] == "BB0"
        assert set(cfg.succs["BB0"]) == {"BBT", "BBF"}
        assert set(cfg.preds["BBJ"]) == {"BBT", "BBF"}

    def test_diamond_dominators(self):
        fn = diamond_kernel().kernel()
        cfg = CFG(fn)
        assert cfg.idom["BBT"] == "BB0"
        assert cfg.idom["BBF"] == "BB0"
        assert cfg.idom["BBJ"] == "BB0"
        assert cfg.dominates("BB0", "BBJ")
        assert not cfg.dominates("BBT", "BBJ")

    def test_diamond_frontiers(self):
        fn = diamond_kernel().kernel()
        cfg = CFG(fn)
        assert cfg.frontier["BBT"] == {"BBJ"}
        assert cfg.frontier["BBF"] == {"BBJ"}
        assert cfg.frontier["BB0"] == set()

    def test_loop_detection(self):
        fn = loop_kernel().kernel()
        cfg = CFG(fn)
        assert cfg.back_edges == [("BODY", "HEAD")]
        loop = cfg.natural_loop(("BODY", "HEAD"))
        assert loop == {"HEAD", "BODY"}
        assert cfg.loop_depth["BODY"] == 1
        assert cfg.loop_depth["BB0"] == 0
        assert cfg.loop_depth["DONE"] == 0

    def test_unreachable_block_excluded_from_rpo(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                EXIT
            DEAD:
                EXIT
            .end
            """
        )
        cfg = CFG(module.kernel())
        assert "DEAD" not in cfg.rpo

    def test_nested_loop_depth(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                MOV %v0, 0
                BRA H1
            H1:
                ISET.lt %v1, %v0, 10
                CBR %v1, H2PRE, DONE
            H2PRE:
                MOV %v2, 0
                BRA H2
            H2:
                ISET.lt %v3, %v2, 10
                CBR %v3, B2, L1LATCH
            B2:
                IADD %v2, %v2, 1
                BRA H2
            L1LATCH:
                IADD %v0, %v0, 1
                BRA H1
            DONE:
                EXIT
            .end
            """
        )
        cfg = CFG(module.kernel())
        assert cfg.loop_depth["B2"] == 2
        assert cfg.loop_depth["H2"] == 2
        assert cfg.loop_depth["H1"] == 1
        assert cfg.loop_depth["DONE"] == 0


class TestCriticalEdges:
    def test_loop_kernel_has_critical_edge(self):
        fn = loop_kernel().kernel()
        cfg = CFG(fn)
        # HEAD has two successors and HEAD has two predecessors via BRA;
        # the edge HEAD->... check: BODY has 1 pred, DONE has 1 pred, so
        # no critical edges in this shape.
        assert cfg.critical_edges() == []

    def test_split_inserts_block(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            A:
                S2R %v0, %tid
                ISET.lt %v1, %v0, 4
                CBR %v1, B, C
            B:
                ISET.lt %v2, %v0, 2
                CBR %v2, C, D
            C:
                EXIT
            D:
                EXIT
            .end
            """
        )
        fn = module.kernel()
        assert CFG(fn).critical_edges() != []
        assert split_critical_edges(fn)
        fn.validate()
        cfg = CFG(fn)
        assert cfg.critical_edges() == []

    def test_split_noop_when_clean(self):
        fn = diamond_kernel().kernel()
        assert not split_critical_edges(fn)


class TestCallGraph:
    def test_call_sites_counted_transitively(self):
        module = call_kernel()
        assert count_static_calls(module, "k") == 3

    def test_bottom_up_order(self):
        module = call_kernel()
        order = CallGraph(module).bottom_up_order("k")
        assert order.index("offset") < order.index("scale") < order.index("k")

    def test_reachable(self):
        module = call_kernel()
        cg = CallGraph(module)
        assert cg.reachable("scale") == {"scale", "offset"}

    def test_recursion_rejected(self):
        """By the call graph, and by ``Module.validate``, which uses it."""
        module = parse_module(
            """
            .module m
            .kernel k shared=0
            BB0:
                CALL %v0, f(1)
                EXIT
            .end
            .func f args=1 returns=1
            BB0:
                CALL %v1, f(%v0)
                RET %v1
            .end
            """
        )
        with pytest.raises(RecursionError_):
            CallGraph(module)
        with pytest.raises(RecursionError_, match="k -> f -> f"):
            module.validate()

    def test_direct_callers(self):
        module = call_kernel()
        cg = CallGraph(module)
        assert cg.direct_callers("offset") == ["scale"]
