"""Optional-accelerator gate: the ``ORION_ACCEL`` switch.

The runtime keeps ``dependencies = []``: scipy is an *optional*
accelerator (the ``accel`` extra), never a requirement.  The one fast
path behind it, the LAPJV matcher (:mod:`repro.regalloc.matching`),
asks this module whether scipy is available, and the pure-Python
Kuhn–Munkres solver remains the reference either way: the accelerated
assignment has the same cost.  The timing simulator has a single
pure-Python path and does not consult this switch.

``ORION_ACCEL`` selects the matcher:

* ``auto`` (default) — use LAPJV when scipy imports;
* ``numpy`` — the same preference; a missing library still degrades
  silently to the pure path (with a one-time
  ``orion_accel_fallback_total`` increment), never a crash;
* ``off`` — the pure-Python matcher, the reference configuration.

Import failures are recorded once per process and library in the
``orion_accel_fallback_total`` counter so a fleet operator can see
that a node is running de-accelerated; per-seam usage is charged to
``orion_accel_selected_total`` by the call sites.
"""

from __future__ import annotations

import os
import threading

MODES = ("auto", "numpy", "off")

_lock = threading.Lock()
#: library name -> imported module or None (import failed); missing key
#: means the import has not been attempted yet
_imports: dict[str, object | None] = {}


def accel_mode() -> str:
    """The resolved ``ORION_ACCEL`` mode (unknown values mean ``auto``)."""
    raw = os.environ.get("ORION_ACCEL", "auto").strip().lower()
    return raw if raw in MODES else "auto"


def _import(library: str):
    """Import ``library`` once; on failure remember None and charge the
    one-time ``orion_accel_fallback_total`` fallback metric."""
    with _lock:
        if library in _imports:
            return _imports[library]
    try:
        if library == "scipy.optimize":
            import scipy.optimize as module
        else:  # pragma: no cover - no other accelerators registered
            raise ImportError(library)
    except Exception:
        module = None
    with _lock:
        if library not in _imports:
            _imports[library] = module
            if module is None:
                _count_fallback(library)
        return _imports[library]


def _count_fallback(library: str) -> None:
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_accel_fallback_total",
        "Accelerator libraries that failed to import (pure path used).",
    ).inc(library=library)


def scipy_optimize_or_none():
    """``scipy.optimize`` when accel is on and scipy imports, else None."""
    if accel_mode() == "off":
        return None
    return _import("scipy.optimize")


def count_selected(seam: str, impl: str) -> None:
    """Charge one accelerated-or-pure decision at ``seam`` to metrics."""
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_accel_selected_total",
        "Fast-path/pure-path decisions per accelerated seam.",
    ).inc(seam=seam, impl=impl)


def accel_info() -> dict:
    """Snapshot for bench reports: mode plus scipy's availability."""
    return {
        "mode": accel_mode(),
        "scipy": _import("scipy.optimize") is not None
        if accel_mode() != "off"
        else None,
    }
