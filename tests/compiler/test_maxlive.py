"""max-live metric and tuning-direction tests (Fig. 8 lines 1-4)."""

from repro.arch import GTX680, TESLA_C2075
from repro.compiler.maxlive import tuning_direction
from repro.ir.liveness import max_live
from repro.regalloc.stack import kernel_max_live
from tests.helpers import (
    live_across_call_kernel,
    loop_kernel,
    pressure_kernel,
    straight_line_kernel,
)


class TestMaxLive:
    def test_straight_line(self):
        module = straight_line_kernel()
        assert kernel_max_live(module, "k") == max_live(module.functions["k"])

    def test_call_tree_adds_live_across(self):
        module = live_across_call_kernel()
        whole = kernel_max_live(module, "k")
        kernel_only = max_live(module.functions["k"])
        # The two values held across the call stack under the callee's
        # two registers: 2 + 2 beats the kernel's own 3.
        assert whole > kernel_only

    def test_pressure_scales(self):
        assert kernel_max_live(pressure_kernel(30), "k") > kernel_max_live(
            pressure_kernel(10), "k"
        )


class TestDirection:
    def test_low_pressure_tunes_down(self):
        module = loop_kernel()
        threshold = GTX680.registers_per_thread_at_full_occupancy
        assert tuning_direction(module, "k", threshold) == "decreasing"

    def test_high_pressure_tunes_up(self):
        module = pressure_kernel(40)
        threshold = GTX680.registers_per_thread_at_full_occupancy
        assert tuning_direction(module, "k", threshold) == "increasing"

    def test_kepler_threshold_is_32(self):
        # The paper sets the Kepler max-live threshold to 32: the number
        # of registers per thread at the hardware maximum occupancy.
        assert GTX680.registers_per_thread_at_full_occupancy == 32

    def test_fermi_threshold_is_21(self):
        assert TESLA_C2075.registers_per_thread_at_full_occupancy == 21
