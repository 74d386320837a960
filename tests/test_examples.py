"""Example-script smoke tests: every example imports and runs."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "occupancy_sweep",
        "custom_kernel",
        "energy_savings",
        "performance_model",
    ],
)
def test_example_imports_and_has_main(name):
    module = _load(name)
    assert callable(module.main)


#: a line each example prints once it has run to the end
_LAST_WORDS = {
    "quickstart": "speedup:",
    "energy_savings": "energy saving",
    "occupancy_sweep": "worst/best ratio",
    "performance_model": "unrolling leeway",
}


@pytest.mark.parametrize("name", sorted(_LAST_WORDS))
def test_example_main_runs(name, monkeypatch, capsys):
    # No arguments: each example falls back to its default benchmark.
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    _load(name).main()
    assert _LAST_WORDS[name] in capsys.readouterr().out


def test_custom_kernel_example_runs(capsys):
    module = _load("custom_kernel")
    module.main()
    out = capsys.readouterr().out
    assert "semantics      : identical" in out
    assert "BROKEN" not in out


def test_quickstart_kernel_source_is_valid():
    from repro.isa.assembly import parse_module

    module = _load("quickstart")
    parsed = parse_module(module.build_kernel_source())
    parsed.validate()


def test_occupancy_sweep_rejects_unknown_benchmark(monkeypatch):
    module = _load("occupancy_sweep")
    monkeypatch.setattr(sys, "argv", ["occupancy_sweep.py", "nope"])
    with pytest.raises(SystemExit):
        module.main()
