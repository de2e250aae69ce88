"""Pure-Python orbit kernel.

One step of F in coefficient space is an integer matrix action: with the
orbit scaled by its (invariant) common denominator D, a step is
``v -> M v -+ D*L`` where M is multiplication by lambda and L is lambda's
integer coefficient vector.  The branch is chosen by the sign of
``sum(v_j * sin(2*pi*j/m))``, decided by a certified float fast path, an
exact integer zero test, and a caller-supplied exact oracle for the rare
ambiguous nonzero cases.

The one entry point, ``Kernel.walk``, serves both first-return searches and
sign sequences: it records the sign of every iterate as one signed byte and
every on-line iterate, and stops at an exact return when given a target.
This module is the always-available fallback; arithmetic is Python ints and
therefore never overflows.  The compiled twin, the C extension built from
``_stepkernel.c``, has the same interface and hands back on int64 overflow.
"""

from __future__ import annotations

from array import array

IMPL = "pure"

STATUS_OK = 0          # target reached, or every step walked without one
STATUS_BUDGET = 1      # target not reached within the budget
STATUS_OVERFLOW = 2    # compiled kernel only

TOUCH_CAP = 100000     # on-line iterates recorded per walk


class Kernel:
    def __init__(self, rows_m, rows_k, lvec, denom, sines, margin, hard_sign,
                 int64_threshold=0):
        self.rows_m = tuple(tuple(row) for row in rows_m)
        self.rows_k = tuple(tuple(row) for row in rows_k)
        self.sines = tuple(sines)
        self.margin = margin
        self.hard_sign = hard_sign
        self.d = len(self.sines)
        # branch offsets: + branch subtracts D*L, - branch adds it
        self.off_plus = tuple(-denom * c for c in lvec)
        self.off_minus = tuple(denom * c for c in lvec)

    # -- sign of Im(v), exact ------------------------------------------------

    def _sign(self, v):
        sines = self.sines
        try:
            total = 0.0
            absum = 0.0
            for j, x in enumerate(v):
                if x:
                    xf = float(x)
                    total += xf * sines[j]
                    absum += abs(xf)
            if absum != absum or absum == float("inf"):
                raise OverflowError
            if abs(total) > self.margin * absum:
                return 1 if total > 0.0 else -1
        except OverflowError:
            pass
        # exact zero test: v fixed by conjugation
        for i, row in enumerate(self.rows_k):
            acc = 0
            for j, c in row:
                acc += c * v[j]
            if acc != v[i]:
                return self.hard_sign(tuple(v))
        return 0

    def _step(self, v, positive_branch):
        rows = self.rows_m
        off = self.off_plus if positive_branch else self.off_minus
        return [
            sum(c * v[j] for j, c in rows[i]) + off[i]
            for i in range(self.d)
        ]

    # -- the walk -----------------------------------------------------------------

    def walk(self, v_start, budget, target=None):
        """Sign the iterates v_0, v_1, ... of v_start, at most ``budget`` of them.

        Returns (status, signs, touches, v): ``signs`` holds one signed byte
        per signed iterate, ``touches`` pairs the index of each on-line
        iterate with its coefficient tuple (the first TOUCH_CAP of them), and
        v is the first iterate not signed.  With a target the walk stops at
        the first step that lands on it (STATUS_OK, so len(signs) is the
        return time) or ends with STATUS_BUDGET; without one it signs
        ``budget`` iterates and ends with STATUS_OK.
        """
        v = list(v_start)
        target = None if target is None else list(target)
        signs = array("b")
        touches = []
        for i in range(budget):
            s = self._sign(v)
            signs.append(s)
            if s == 0 and len(touches) < TOUCH_CAP:
                touches.append((i, tuple(v)))
            v = self._step(v, s >= 0)
            if v == target:
                return STATUS_OK, signs, touches, v
        return (STATUS_OK if target is None else STATUS_BUDGET), signs, touches, v
