"""Performance infrastructure: the compile and measurement caches.

The pipeline (:mod:`repro.compiler.pipeline`) consults a
content-addressed compile cache before doing any work, and the engine
a measurement cache before any backend call.  Where compile time goes
is reported by the stages' spans (:mod:`repro.obs.spans`).
"""

from repro.perf.cache import (
    CacheStats,
    CompileCache,
    compile_cache_key,
    default_cache,
    reset_default_cache,
)
from repro.perf.measure_cache import MeasurementCache, measurement_cache_key

__all__ = [
    "CacheStats",
    "CompileCache",
    "MeasurementCache",
    "compile_cache_key",
    "default_cache",
    "measurement_cache_key",
    "reset_default_cache",
]
