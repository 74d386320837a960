import json
from collections import Counter
from itertools import islice
from pathlib import Path

from perfbench import catalog, layers
from perfbench.run import pinned_environment
from perfbench.workloads.service import COLD_SHARE, requests
from perfbench.workloads.tune import reference_rows

ROOT = Path(__file__).resolve().parents[2]


def plan(seed, client, count, grids):
    return list(islice(requests(seed, client, grids), count))


def test_benchmark_json_matches_the_catalog():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(
        catalog.WORKLOADS.items()
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == [entry[:4] for entry in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        entry[:3] for entry in catalog.PER_LAYER
    ]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_end_to_end_metric_is_defined_on_every_workload():
    for name, _, _, _, meaning in catalog.END_TO_END:
        assert set(meaning) == set(catalog.WORKLOADS), name


def test_layer_metrics_cover_the_catalog_with_no_spans():
    metrics = layers.layer_metrics("tune", [], [], {}, 1.0, 1.0)
    assert list(metrics) == [name for name, *_ in catalog.PER_LAYER]
    assert metrics["tune.other_s"] == 1.0


def test_a_seed_always_gives_the_same_request_plan():
    grids = [96] * 14
    first = plan(7, 0, 500, grids)
    assert first == plan(7, 0, 500, grids)
    assert first != plan(8, 0, 500, grids)
    assert first != plan(7, 1, 500, grids)


def test_fresh_shapes_are_new_and_repeats_are_known():
    grids = [96, 64, 128]
    for client in (0, 1):
        known = {(k, g) for k, g in enumerate(grids)}
        requests = plan(3, client, 2000, grids)
        for planned in requests:
            key = (planned.kernel, planned.grid)
            if planned.fresh:
                assert key not in known
                known.add(key)
            else:
                assert key in known
        share = sum(p.fresh for p in requests) / len(requests)
        assert abs(share - COLD_SHARE) < 0.05
    # the two clients never create the same fresh key
    fresh = [
        {(p.kernel, p.grid) for p in plan(3, c, 2000, grids) if p.fresh}
        for c in (0, 1)
    ]
    assert not fresh[0] & fresh[1]


def test_plans_send_every_binary_equally_often_and_one_fresh_in_five():
    grids = list(range(100, 114))
    for seed in (1, 2):
        requests = plan(seed, 0, 14 * 5 * 4, grids)
        counts = Counter(p.kernel for p in requests)
        assert sorted(counts) == list(range(14))
        assert set(counts.values()) == {20}
        for start in range(0, len(requests), 5):
            assert sum(p.fresh for p in requests[start:start + 5]) == 1


def test_pinned_environment_clears_orion_and_pins_the_hash_seed():
    env = pinned_environment(
        {"ORION_ACCEL": "off", "ORION_STRATEGY": "mixed", "PATH": "/bin"}
    )
    assert env == {"PATH": "/bin", "PYTHONHASHSEED": "0"}


def test_gtx680_reference_rows_equal_bench_007():
    bench = json.loads((ROOT / "BENCH_007.json").read_text())
    rows = reference_rows()
    assert set(rows) == {"GTX680", "Tesla C2075"}
    assert all(len(per_gpu) == 14 for per_gpu in rows.values())
    assert rows["GTX680"] == {
        kernel["name"]: {
            "final_version": kernel["final_version"],
            "total_cycles": kernel["total_cycles"],
            "iterations_to_converge": kernel["iterations_to_converge"],
        }
        for kernel in bench["kernels"]
    }
