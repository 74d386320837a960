"""Content-addressed measurement cache (the engine's memo).

A measurement is fully determined by the version's module bytes (plus
its register/shared-memory envelope — they set the occupancy), the
backend, the architecture, the launch geometry, the memory traits, and
the simulator knobs; both simulators are deterministic, so the result
can be addressed by a SHA-256 digest of exactly those inputs and shared
across tuning sessions, experiments, and — through the optional disk
tier — processes.

The storage layers on :class:`~repro.perf.cache.CompileCache` (same
two-tier memory/disk design, same atomic-write discipline, same
best-effort degradation); payloads are the JSON form of a
``MeasurementResult``.  The disk tier is enabled by the
``ORION_MEASURE_CACHE_DIR`` environment variable or an explicit
directory argument.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.perf.cache import CacheStats, CompileCache

_KEY_PREFIX = b"orion-measure-v2\x00"


def measurement_cache_key(
    version_hash: str,
    backend_name: str,
    arch_name: str,
    grid_blocks: int,
    block_size: int,
    params: dict,
    cache_config: str,
    traits: object,
    ilp: float,
    max_events_per_warp: int,
    forced_warps: int | None = None,
    strategy: str = "local-spill",
    arch_fingerprint: str = "",
) -> str:
    """SHA-256 content address of one measurement.

    ``traits`` is fingerprinted by its (frozen-dataclass) repr, the
    same trick the compile cache plays with ``CompileOptions``: adding
    a trait field invalidates naturally.  ``strategy`` is the version's
    allocation strategy (redundant with ``version_hash`` today, which
    already folds in non-default strategies — kept explicit so the key
    never depends on that hashing detail) and ``arch_fingerprint`` is
    the architecture's descriptor fingerprint, so edits to an
    architecture's resource table invalidate rather than alias.
    """
    fingerprint = "\x00".join(
        [
            version_hash,
            backend_name,
            arch_name,
            str(grid_blocks),
            str(block_size),
            repr(sorted(params.items())),
            cache_config,
            repr(traits),
            repr(ilp),
            str(max_events_per_warp),
            str(forced_warps),
            strategy,
            arch_fingerprint,
        ]
    )
    digest = hashlib.sha256()
    digest.update(_KEY_PREFIX)
    digest.update(fingerprint.encode())
    return digest.hexdigest()


class MeasurementCache:
    """Two-tier content-addressed store of measurement payloads.

    Payloads are JSON dicts (see ``MeasurementResult.to_payload``); the
    cache itself is agnostic to their schema, which keeps this module
    free of simulator imports.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        if directory is None:
            directory = os.environ.get("ORION_MEASURE_CACHE_DIR") or None
        self._store = CompileCache(directory, metrics_label="measure")

    @property
    def stats(self) -> CacheStats:
        return self._store.stats

    @property
    def directory(self):
        return self._store.directory

    def get(self, key: str) -> dict | None:
        payload = self._store.lookup(key)
        if payload is None:
            return None
        try:
            return json.loads(payload)
        except ValueError:
            return None  # corrupt disk entry degrades to a miss

    def put(self, key: str, payload: dict) -> None:
        self._store.store(key, json.dumps(payload, sort_keys=True).encode())

    def clear(self) -> None:
        """Drop the memory tier and reset counters (disk untouched)."""
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)
