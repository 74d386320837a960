"""``tune_record``: the one road from a tuned session to a store record.

The daemon's tune job and the client's local fallback both build their
records here, so a record always mirrors its session's report, and a
binary whose versions do not all decode never gets one.
"""

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.compiler.multiversion import MultiVersionBinary
from repro.isa.encoding import CodecError
from repro.runtime import ExecutionEngine, TuningSession, Workload
from repro.service.fingerprint import kernel_fingerprint
from repro.service.store import tune_record
from repro.sim import LaunchConfig
from tests.helpers import HOTSPOT_UNMEASURED, corrupt_hotspot
from tests.runtime.test_launcher import pressure_module


@pytest.fixture(scope="module")
def binary():
    return compile_binary(pressure_module(), "k", CompileOptions(arch=GTX680))


@pytest.fixture()
def workload():
    return Workload(
        launch=LaunchConfig(grid_blocks=64, block_size=256),
        iterations=10,
        max_events_per_warp=1500,
    )


def test_record_mirrors_the_session_report(binary, workload):
    report = ExecutionEngine(GTX680).run(TuningSession(binary, workload))
    record = tune_record(ExecutionEngine(GTX680), "some-key", binary, workload)
    assert record.key == "some-key"
    assert record.kernel == kernel_fingerprint(binary)
    assert (record.kernel_name, record.arch, record.backend) == (
        "k", GTX680.name, "timing"
    )
    assert record.winner_label == report.final_label
    assert record.winner_warps == report.final_version.achieved_warps
    assert record.occupancy == report.final_version.occupancy
    assert record.total_cycles == report.total_cycles
    assert record.iterations_to_converge == report.iterations_to_converge


def test_undecodable_version_gets_no_record():
    raw, workload = corrupt_hotspot()
    unchecked = MultiVersionBinary.from_bytes(raw)
    report = ExecutionEngine(GTX680, backend="analytical").run(
        TuningSession(unchecked, workload)
    )
    assert report.iterations_to_converge is not None
    [corrupt] = [v for v in unchecked.versions if v.label == HOTSPOT_UNMEASURED]
    assert corrupt.outcome.module is None
    with pytest.raises(CodecError, match="magic"):
        tune_record(
            ExecutionEngine(GTX680, backend="analytical"),
            "some-key",
            MultiVersionBinary.from_bytes(raw),
            workload,
        )
