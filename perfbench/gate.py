"""The correctness gate: runs one solver call, times it, checks the answer.

A failure (an exception or a rejected answer) is counted and recorded; it
never stops the run and no call is skipped. Checks run outside the timed
span.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter, perf_counter_ns

from workloads import CheckFailed

MAX_RECORDED_FAILURES = 20


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []      # first MAX_RECORDED_FAILURES (leg, n_v, reason)
        self.recount_ns = 0     # time spent in the benchmark's own recounts

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def recount(self, count_fn, *args) -> int:
        start = perf_counter_ns()
        try:
            return count_fn(*args)
        finally:
            self.recount_ns += perf_counter_ns() - start

    def call(self, call, around=nullcontext):
        """Run ``call`` inside ``around()`` and check it.

        Returns the call's wall seconds, or None when it failed.
        """
        self.attempted += 1
        try:
            with around():
                start = perf_counter()
                out = call.run()
                elapsed = perf_counter() - start
        except Exception as exc:  # a solver error is a counted failure
            self._fail(call, f"raised {type(exc).__name__}: {exc}")
            return None
        try:
            call.check(out, self)
        except CheckFailed as exc:
            self._fail(call, str(exc))
            return None
        except Exception as exc:  # malformed output can break a check
            self._fail(call, f"check raised {type(exc).__name__}: {exc}")
            return None
        return elapsed

    def _fail(self, call, reason):
        self.failed += 1
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append((call.leg, call.n_v, reason))
