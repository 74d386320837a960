"""The execution engine: backends × sessions × cache × telemetry.

This is the runtime half of the ROADMAP's production story.  The old
``OrionRuntime`` hardwired the timing simulator and ran one workload at
a time; the engine

* measures through a pluggable :class:`~repro.sim.backend.ExecutionBackend`
  (timing simulator, analytical model, functional interpreter — or
  anything satisfying the protocol);
* runs :class:`~repro.runtime.session.TuningSession`\\ s one after
  another (``run_many``), or one per calling thread (the tuning
  daemon's tune workers share one engine);
* dedupes repeated measurements across sessions and experiments in a
  shared content-addressed
  :class:`~repro.perf.measure_cache.MeasurementCache` (keyed on module
  hash + launch + traits + cache config + backend), and collapses
  concurrent misses on one key to a single backend invocation
  (single-flight);
* narrates everything through structured telemetry
  (:mod:`repro.obs.telemetry`): a JSONL trace via
  ``ORION_TRACE_FILE``/``--trace``, an in-memory stream for tests.

Determinism is load-bearing: backends are pure functions of the
request and sessions are independent, so sessions run from concurrent
threads report exactly what a sequential run reports.
"""

from __future__ import annotations

import os
import threading
import traceback
from pathlib import Path

from repro.arch.specs import CacheConfig, GpuArchitecture
from repro.compiler.multiversion import MultiVersionBinary, version_content_hash
from repro.compiler.realize import KernelVersion
from repro.obs.context import use_hub
from repro.obs.spans import span
from repro.obs.telemetry import EventKind, JsonlSink, TelemetryHub
from repro.perf.measure_cache import MeasurementCache, measurement_cache_key
from repro.runtime.session import (
    ExecutionReport,
    TuningSession,
    Workload,
    iteration_launches,
    scaled_launch,
)
from repro.sim.backend import (
    ExecutionBackend,
    MeasurementRequest,
    MeasurementResult,
    get_backend,
)
from repro.sim.interp import LaunchConfig


class _Flight:
    """One backend measurement in progress; joiners wait on ``done``."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: MeasurementResult | None = None
        self.error: BaseException | None = None


class ExecutionEngine:
    """Runs tuning sessions over a backend + measurement cache."""

    def __init__(
        self,
        arch: GpuArchitecture,
        backend: str | ExecutionBackend = "timing",
        cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
        measurement_cache: MeasurementCache | None = None,
        telemetry: TelemetryHub | None = None,
        trace_file: str | os.PathLike | None = None,
        tuning_store=None,
    ) -> None:
        self.arch = arch
        self.backend = get_backend(backend)
        self.cache_config = cache_config
        self.cache = measurement_cache or MeasurementCache()
        self.telemetry = telemetry or TelemetryHub()
        #: guards ``cache`` and ``_inflight``
        self._lock = threading.Lock()
        #: cache keys being measured now, each by the thread that missed first
        self._inflight: dict[str, _Flight] = {}
        trace = trace_file or os.environ.get("ORION_TRACE_FILE") or None
        #: where this engine's JSONL trace lands (None: not tracing);
        #: the daemon's HTTP sidecar serves it as /debug/trace and uses
        #: its presence to decide whether to mint trace ids
        self.trace_path = Path(trace) if trace else None
        if trace:
            self.telemetry.add_sink(JsonlSink(trace))
        # ``tuning_store``: a repro.service.store.TuningStore, a path to
        # one, or None (also settable via ORION_TUNING_STORE).  Resolved
        # lazily so the runtime has no import-time dependency on the
        # service layer.
        if tuning_store is None:
            tuning_store = os.environ.get("ORION_TUNING_STORE") or None
        if isinstance(tuning_store, (str, os.PathLike)):
            from repro.service.store import TuningStore

            tuning_store = TuningStore(tuning_store)
        self.tuning_store = tuning_store

    # ------------------------------------------------------------------
    # Measurement (cache + telemetry around one backend call)
    # ------------------------------------------------------------------
    def measure(
        self,
        version: KernelVersion,
        launch: LaunchConfig,
        workload: Workload | None = None,
        session: str | None = None,
        forced_warps: int | None = None,
    ) -> MeasurementResult:
        """Measure one version under one launch, through the cache.

        ``forced_warps`` pins the resident-warp count (occupancy
        sweeps); it is part of the cache key.
        """
        workload = workload or Workload(launch=launch)
        with use_hub(self.telemetry), span(
            "measure", session=session, label=version.label
        ):
            return self._measure(
                version, launch, workload, session, forced_warps
            )

    def _measure(
        self,
        version: KernelVersion,
        launch: LaunchConfig,
        workload: Workload,
        session: str | None,
        forced_warps: int | None,
    ) -> MeasurementResult:
        key = measurement_cache_key(
            version_content_hash(version),
            self.backend.name,
            self.arch.name,
            launch.grid_blocks,
            launch.block_size,
            launch.params,
            self.cache_config.value,
            workload.traits,
            workload.ilp,
            workload.max_events_per_warp,
            forced_warps=forced_warps,
            strategy=version.strategy,
            arch_fingerprint=self.arch.fingerprint(),
        )
        with self._lock:
            payload = self.cache.get(key)
            if payload is None:
                flight = self._inflight.get(key)
                owner = flight is None
                if owner:
                    flight = self._inflight[key] = _Flight()
        if payload is not None:
            self.telemetry.emit(
                EventKind.CACHE_HIT, session, label=version.label, key=key[:12]
            )
            return MeasurementResult.from_payload(payload)
        self.telemetry.emit(
            EventKind.CACHE_MISS, session, label=version.label, key=key[:12]
        )
        if not owner:
            return self._join(flight)
        self.telemetry.emit(
            EventKind.BACKEND_INVOKE,
            session,
            backend=self.backend.name,
            label=version.label,
            grid_blocks=launch.grid_blocks,
            block_size=launch.block_size,
        )
        request = MeasurementRequest(
            arch=self.arch,
            version=version,
            launch=launch,
            cache_config=self.cache_config,
            traits=workload.traits,
            ilp=workload.ilp,
            max_events_per_warp=workload.max_events_per_warp,
            forced_warps=forced_warps,
        )
        try:
            flight.result = self.backend.measure(request)
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            # Store and retire in one critical section: a thread that
            # arrives after this finds the result in the cache, one that
            # arrived before has joined the flight.
            with self._lock:
                if flight.error is None:
                    self.cache.put(key, flight.result.to_payload())
                del self._inflight[key]
            flight.done.set()
        return flight.result

    @staticmethod
    def _join(flight: _Flight) -> MeasurementResult:
        """Wait for another thread's measurement of the same key."""
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "orion_engine_measurements_total",
            "Cache misses that joined another thread's backend call.",
        ).inc(result="joined")
        flight.done.wait()
        if flight.error is not None:
            raise flight.error
        return flight.result

    def measure_pinned(
        self,
        binary: MultiVersionBinary,
        version: KernelVersion,
        workload: Workload,
        session: str | None = None,
    ) -> int:
        """Cycles for the full workload pinned to one version (no tuning).

        Unlike the old ``OrionRuntime.measure_version``, this honours
        ``workload.work_profile`` — iteration ``i`` launches the same
        scaled grid the tuned run launches — so pinned baselines and
        tuned runs measure the same total work.  Deduplication of equal
        launches happens in the content-addressed cache rather than a
        ``grid_blocks``-keyed memo, so two launches that differ in any
        measured dimension are never conflated.
        """
        launches, was_split = iteration_launches(binary, workload)
        total = 0
        for i, launch in enumerate(launches):
            work = workload.work_at(i)
            if not was_split:
                launch = scaled_launch(launch, work)
            total += self.measure(version, launch, workload, session).cycles
        return total

    # ------------------------------------------------------------------
    # Session execution
    # ------------------------------------------------------------------
    def run(self, session: TuningSession) -> ExecutionReport:
        """Drive one session to completion (every iteration measured)."""
        with use_hub(self.telemetry), span(
            "session",
            session=session.name,
            kernel=session.binary.kernel_name,
        ):
            return self._run(session)

    def _run(self, session: TuningSession) -> ExecutionReport:
        workload = session.workload
        launches, was_split = session.iteration_launches()
        self.telemetry.emit(
            EventKind.SESSION_START,
            session.name,
            kernel=session.binary.kernel_name,
            backend=self.backend.name,
            iterations=len(launches),
            was_split=was_split,
        )
        store_key = self._warm_start(session)
        tuner = session.tuner
        for i, launch in enumerate(launches):
            work = workload.work_at(i)
            if not was_split:
                launch = scaled_launch(launch, work)
            version = tuner.next_version()
            tuning = not tuner.converged
            cycles = self.measure(version, launch, workload, session.name).cycles
            tuner.report(float(cycles), work=work)
            if tuning:
                self.telemetry.emit(
                    EventKind.TRIAL,
                    session.name,
                    iteration=i + 1,
                    label=version.label,
                    cycles=cycles,
                    work=work,
                )
            self.telemetry.emit(
                EventKind.ITERATION,
                session.name,
                iteration=i + 1,
                label=version.label,
                cycles=cycles,
                converged=tuner.converged,
            )
            if session.converge_at is None and tuner.converged:
                session.converge_at = i + 1
                self.telemetry.emit(
                    EventKind.CONVERGED,
                    session.name,
                    iteration=i + 1,
                    label=tuner.final_version.label,
                )
            session.record(i + 1, version.label, cycles)
        report = session.finalize(was_split)
        self.telemetry.emit(
            EventKind.SESSION_FINALIZED,
            session.name,
            final=report.final_label,
            total_cycles=report.total_cycles,
            iterations_to_converge=report.iterations_to_converge,
        )
        self._publish(session, report, store_key)
        return report

    # ------------------------------------------------------------------
    # Warm start (the persistent tuning store, repro.service)
    # ------------------------------------------------------------------
    def _tuning_key(self, session: TuningSession) -> str:
        from repro.service.fingerprint import tuning_key

        return tuning_key(
            session.binary,
            session.workload,
            self.arch.name,
            self.backend.name,
            self.cache_config.value,
            arch_fingerprint=self.arch.fingerprint(),
        )

    def _warm_start(self, session: TuningSession) -> str | None:
        """Try to pre-converge ``session`` from the tuning store.

        Returns the session's store key when a store is attached and the
        session is tunable (so a cold result can be published back), or
        ``None`` when the store path is inactive for this session.
        """
        if self.tuning_store is None:
            return None
        if session.tuner.converged or not session.binary.can_tune:
            return None
        key = self._tuning_key(session)
        record = self.tuning_store.get(key)
        if record is None:
            result = "miss"
        elif session.warm_start(record.winner_label):
            result = "hit"
            self.telemetry.emit(
                EventKind.WARM_START,
                session.name,
                label=record.winner_label,
                key=key[:12],
                stored_cycles=record.total_cycles,
            )
        else:
            # The stored label no longer names a version of this binary:
            # a stale entry.  Drop it so the fresh result replaces it.
            result = "stale"
            self.tuning_store.invalidate(key)
        self._count_warm_start(result)
        return key

    def _publish(
        self,
        session: TuningSession,
        report: ExecutionReport,
        store_key: str | None,
    ) -> None:
        """Publish a cold session's converged winner back to the store.

        Every version is decoded first, measured or not, so a binary
        whose bytes do not decode never gets a record: the
        :class:`~repro.isa.encoding.CodecError` propagates instead.
        """
        if (
            store_key is None
            or session.warm_started_from is not None
            or report.iterations_to_converge is None
        ):
            return
        from repro.service.fingerprint import kernel_fingerprint
        from repro.service.store import record_from_report

        session.binary.decode_modules()
        self.tuning_store.put(
            record_from_report(
                store_key,
                kernel_fingerprint(session.binary),
                session.binary,
                report,
                self.arch.name,
                self.backend.name,
            )
        )

    @staticmethod
    def _count_warm_start(result: str) -> None:
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "orion_warm_starts_total",
            "Tuning-store warm-start attempts by result.",
        ).inc(result=result)

    def run_many(
        self, sessions: list[TuningSession]
    ) -> list[ExecutionReport | None]:
        """Run sessions one after another; reports in input order.

        The shared measurement cache makes overlapping sessions (same
        kernel, same launches) collapse to one backend invocation per
        distinct measurement.

        A session that raises does **not** abort the batch: its slot in
        the returned list is ``None``, its traceback lands in
        ``session.error`` and a ``SESSION_FAILED`` telemetry event, and
        every other session still runs to completion.
        """
        with use_hub(self.telemetry), span("engine", sessions=len(sessions)):
            self.telemetry.emit(
                EventKind.ENGINE_START,
                None,
                sessions=len(sessions),
                backend=self.backend.name,
                arch=self.arch.name,
            )
            reports = [self._run_isolated(s) for s in sessions]
            stats = self.cache.stats
            self.telemetry.emit(
                EventKind.ENGINE_FINISH,
                None,
                sessions=len(sessions),
                failed=sum(1 for r in reports if r is None),
                cache_hits=stats.hits,
                cache_misses=stats.misses,
            )
        # The engine-finish flush is a promise to trace consumers: when
        # ``run_many`` returns, the JSONL file on disk is complete.
        self.telemetry.flush()
        return reports

    def _run_isolated(self, session: TuningSession) -> ExecutionReport | None:
        """One session of a batch; a failure is reported, not propagated."""
        try:
            return self.run(session)
        except Exception as exc:  # noqa: BLE001 — isolate bad workloads
            tb = traceback.format_exc()
            session.error = tb
            self.telemetry.emit(
                EventKind.SESSION_FAILED,
                session.name,
                kernel=session.binary.kernel_name,
                error=f"{type(exc).__name__}: {exc}",
                traceback=tb,
            )
            from repro.obs.log import get_logger
            from repro.obs.metrics import get_registry

            get_registry().counter(
                "orion_session_failures_total",
                "Tuning sessions isolated after raising in the engine.",
            ).inc(error=type(exc).__name__)
            get_logger().error(
                "session_failed",
                session=session.name,
                kernel=session.binary.kernel_name,
                error=f"{type(exc).__name__}: {exc}",
            )
            return None
