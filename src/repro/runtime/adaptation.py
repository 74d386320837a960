"""Dynamic occupancy selection (paper Section 3.4, Fig. 9).

A feedback state machine over kernel-loop iterations:

* iteration 1 runs the *original* version;
* each following iteration runs the next candidate in the compiler's
  predicted direction, as long as performance does not degrade —
  upward search tolerates a 2% *slowdown* band (the plateau case, where
  equal performance at higher occupancy is not worth further climbing),
  downward search stops on any worse runtime;
* on degradation the *previous* version is finalised; running out of
  candidates finalises the best one observed;
* if the final choice is the original itself, the prediction was wrong
  and the fail-safe (opposite-direction) candidates are trialled before
  locking in.

In practice the paper reports convergence within about three
iterations; tests here assert the same.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.realize import KernelVersion


@dataclass
class TrialRecord:
    iteration: int
    label: str
    runtime: float


class DynamicTuner:
    """The Fig. 9 selection state machine.

    Usage per kernel-loop iteration::

        version = tuner.next_version()
        runtime = launch_and_time(version)
        tuner.report(runtime)
    """

    def __init__(
        self,
        binary: MultiVersionBinary,
        slowdown_tolerance: float = 0.02,
    ) -> None:
        self.binary = binary
        self.slowdown_tolerance = slowdown_tolerance
        self.iteration = 0
        self.final_version: KernelVersion | None = None
        self.history: list[TrialRecord] = []
        self._candidates = list(binary.versions)
        self._failsafe = list(binary.failsafe)
        self._cursor = 0
        self._in_failsafe = False
        self._failsafe_baseline: float | None = None
        self._pending: KernelVersion | None = None
        if not binary.can_tune:
            # Statically selected: one version, locked from the start.
            self.final_version = self._candidates[0]

    # ------------------------------------------------------------------
    @property
    def converged(self) -> bool:
        return self.final_version is not None

    @property
    def iterations_to_converge(self) -> int | None:
        if not self.converged:
            return None
        return self.iteration

    def next_version(self) -> KernelVersion:
        """The version to launch this iteration."""
        if self.final_version is not None:
            return self.final_version
        pool = self._failsafe if self._in_failsafe else self._candidates
        self._pending = pool[self._cursor]
        return self._pending

    def report(self, runtime: float, work: float = 1.0) -> None:
        """Feed back the measured runtime of the launched version.

        ``work`` normalises iteration-varying workloads (the paper's
        future-work suggestion for bfs: "calculating the amount of work
        at each iteration and applying a multiplicative factor to the
        runtime") — comparisons use ``runtime / work``.
        """
        if runtime < 0:
            raise ValueError("runtime cannot be negative")
        if work <= 0:
            raise ValueError("work must be positive")
        self.iteration += 1
        if self.final_version is not None:
            return
        assert self._pending is not None
        normalized = runtime / work
        self.history.append(
            TrialRecord(self.iteration, self._pending.label, normalized)
        )
        pool = self._failsafe if self._in_failsafe else self._candidates

        if len(self.history) >= 2:
            if self._in_failsafe and self._cursor == 0:
                # First fail-safe trial: the bar to clear is the
                # *original* version's runtime, recorded at misprediction
                # time — not the degraded trial that triggered the switch
                # (that one is exactly what the fail-safe must beat by
                # construction, so comparing against it would accept
                # fail-safe versions slower than the original).
                assert self._failsafe_baseline is not None
                previous = self._failsafe_baseline
            else:
                previous = self.history[-2].runtime
            # Fig. 9 stops the upward search on >2% slowdown and the
            # downward search on "worse runtime"; on real hardware the
            # latter implicitly means worse beyond measurement noise, so
            # a small tolerance applies there too.
            tolerance = (
                self.slowdown_tolerance
                if self.binary.direction == "increasing"
                else self.slowdown_tolerance / 2
            )
            degraded = normalized > previous * (1 + tolerance)
            if degraded:
                if self._cursor >= 1:
                    self._finalize(pool[self._cursor - 1])
                else:
                    # First fail-safe trial already lost: keep original.
                    self._finalize(self._candidates[0])
                return
        if self._cursor + 1 < len(pool):
            self._cursor += 1
            return
        # Tried every occupancy in this direction.  Among the versions
        # within the tolerance band of the best runtime, lock the one
        # with the lowest occupancy — the paper's stated goal is "the
        # lowest occupancy that gives the best performance" (resource
        # and energy saving at equal speed).
        best_runtime = min(r.runtime for r in self.history)
        band = best_runtime * (1 + self.slowdown_tolerance)
        eligible_labels = {r.label for r in self.history if r.runtime <= band}
        seen: set[str] = set()
        eligible: list[KernelVersion] = []
        for v in (*pool, *self._candidates):
            if v.label in eligible_labels and v.label not in seen:
                seen.add(v.label)
                eligible.append(v)
        chosen = min(eligible, key=lambda v: (v.achieved_warps, v.label))
        self._finalize(chosen)

    # ------------------------------------------------------------------
    def _finalize(self, version: KernelVersion) -> None:
        # Misprediction check: if the search never moved off the
        # original, try the fail-safe direction before locking in.
        if (
            not self._in_failsafe
            and self._failsafe
            and version is self._candidates[0]
        ):
            self._in_failsafe = True
            self._cursor = 0
            # Iteration 1 always ran the original; its normalized
            # runtime is the baseline the fail-safe trials must beat.
            self._failsafe_baseline = self.history[0].runtime
            return
        self.final_version = version
