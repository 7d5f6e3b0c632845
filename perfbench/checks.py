"""Oracle checker: every verdict call is counted and compared with closed forms.

A verdict call that raises, or whose result disagrees with the closed form,
counts as one failed operation; the run goes on.  Numeric comparisons also
feed ``oracle_err_frac``, the largest ``|result - closed form| / tolerance``
seen, so accuracy that erodes shows before a verdict flips (1 is at the
tolerance).
"""

from __future__ import annotations

import time


class Expect:
    """Requirements on one verdict's result; collects what does not hold."""

    def __init__(self):
        self.problems = []
        self.notes = []
        self.worst = 0.0

    def _ratio(self, err, tol, what):
        err, tol = abs(float(err)), float(tol)
        # a NaN error or a zero tolerance can never be met
        frac = err / tol if tol > 0 and err == err else float("inf")
        self.worst = max(self.worst, frac)
        if frac > 1.0:
            self.problems.append(f"{what}: off by {frac:.3g} tolerances")

    def true(self, cond, what):
        if not cond:
            self.problems.append(what)

    def note(self, cond, what):
        """Report ``what`` when ``cond`` fails, without failing the verdict."""
        if not cond:
            self.notes.append(what)

    def near(self, value, target, tol, what):
        """``|value - target| <= tol``."""
        self._ratio(float(value) - float(target), tol, what)

    def rel(self, value, target, rel, what):
        """``|value - target| <= rel * |target|``."""
        self.near(value, target, rel * abs(float(target)), what)

    def at_most(self, value, limit, what):
        """``value <= limit``; the error ratio is ``value / limit``."""
        self._ratio(value, limit, what)

    def at_least(self, value, floor, what):
        """``value >= floor``; the error ratio is ``floor / value``."""
        self._ratio(floor, max(float(value), 0.0), what)


class Oracle:
    """Counts verdicts attempted and failed over a run.

    With a ``reference`` callable, it runs and times that before every
    verdict call; ``ref_s`` sums its wall and CPU seconds over ``ref_runs``.
    """

    def __init__(self, reference=None):
        self.attempted = 0
        self.failed = 0
        self.err_frac = 0.0
        self.findings = set()
        self.reference = reference
        self.ref_runs = 0
        self.ref_s = [0.0, 0.0]  # wall, cpu

    def verdict(self, label, fn, *args, check=None, **kwargs):
        """Make one verdict call, check it with ``check(result, expect)``, and
        return the result (``None`` when the call raised)."""
        if self.reference is not None:
            wall, cpu = time.perf_counter(), time.process_time()
            self.reference()
            self.ref_s[0] += time.perf_counter() - wall
            self.ref_s[1] += time.process_time() - cpu
            self.ref_runs += 1
        self.attempted += 1
        expect = Expect()
        result = None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, not a crashed run
            expect.problems.append(f"raised {type(exc).__name__}: {exc}")
        if check is not None and not expect.problems:
            try:
                check(result, expect)
            except Exception as exc:
                expect.problems.append(f"check raised {type(exc).__name__}: {exc}")
        self.err_frac = max(self.err_frac, expect.worst)
        if expect.problems:
            self.failed += 1
        for text in expect.problems:
            self.findings.add(f"{label}: {text}")
        for text in expect.notes:
            self.findings.add(f"{label} (not counted as failed): {text}")
        return result
