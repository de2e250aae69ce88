"""Pure-Python orbit kernel.

One step of F in coefficient space is an integer matrix action: with the
orbit scaled by its (invariant) common denominator D, a step is
``v -> M v -+ D*L`` where M is multiplication by lambda and L is lambda's
integer coefficient vector.  The branch is chosen by the sign of
``sum(v_j * sin(2*pi*j/m))``, decided by a certified float fast path, an
exact integer zero test, and a caller-supplied exact oracle for the rare
ambiguous nonzero cases.

The one entry point, ``Kernel.walk``, serves first-return searches, sign
sequences and tiles: it records the sign of every iterate as one signed
byte and every on-line iterate, stops at an exact return when given a
target, and when asked nominates, per direction class, the one iterate
nearest the line, decided exactly (see ``walk``).  This module is the
always-available fallback; arithmetic is Python ints and therefore never
overflows.  The compiled twin, the C extension built from
``_stepkernel.c``, has the same interface but gives up on int64 overflow,
and then ``stepper`` walks the orbit again in this kernel from its start.
"""

from __future__ import annotations

from array import array

IMPL = "pure"

STATUS_OK = 0          # target reached, or every step walked without one
STATUS_BUDGET = 1      # target not reached within the budget

TOUCH_CAP = 100000     # on-line iterates recorded per walk

_INF = float("inf")


class Kernel:
    def __init__(self, mat_m, mat_k, lvec, denom, sines, margin, hard_sign, m, t0):
        # per row of M and of K, its nonzero (column, entry) pairs
        self.rows_m, self.rows_k = (
            tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in mat)
            for mat in (mat_m, mat_k)
        )
        self.sines = tuple(sines)
        self.margin = margin
        self.hard_sign = hard_sign
        self.m = m
        self.t0 = t0
        self.d = len(self.sines)
        # branch offsets: + branch subtracts D*L, - branch adds it
        self.off_plus = tuple(-denom * c for c in lvec)
        self.off_minus = tuple(denom * c for c in lvec)

    # -- sign of Im(v), exact ------------------------------------------------

    def _sign(self, v):
        """(s, lo, hi): the exact sign of Im(v), and bounds on |Im(v)| * D
        from the float sum when it decided the sign, else (-inf, inf)."""
        sines = self.sines
        try:
            total = 0.0
            absum = 0.0
            for j, x in enumerate(v):
                if x:
                    xf = float(x)
                    total += xf * sines[j]
                    absum += abs(xf)
            if absum != absum or absum == _INF:
                raise OverflowError
            mag, err = abs(total), self.margin * absum
            if mag > err:
                return (1 if total > 0.0 else -1), mag - err, mag + err
        except OverflowError:
            pass
        # exact zero test: v fixed by conjugation
        for i, row in enumerate(self.rows_k):
            acc = 0
            for j, c in row:
                acc += c * v[j]
            if acc != v[i]:
                return self.hard_sign(tuple(v)), -_INF, _INF
        return 0, -_INF, _INF

    def _below(self, v, s, c, best):
        """Whether s Im(v) is below the value of class c's best (j, vec),
        decided exactly on the integer difference of the two."""
        j, vec = best
        sb = 1 if self.t0 * j % self.m == c else -1
        return self._sign([s * x - sb * y for x, y in zip(v, vec)])[0] < 0

    def _step(self, v, positive_branch):
        rows = self.rows_m
        off = self.off_plus if positive_branch else self.off_minus
        return [
            sum(c * v[j] for j, c in rows[i]) + off[i]
            for i in range(self.d)
        ]

    # -- the walk -----------------------------------------------------------------

    def walk(self, v_start, budget, target=None, select=False):
        """Sign the iterates of v_start until ``budget`` iterates are signed.

        Returns (status, signs, touches, select): one signed byte per
        iterate signed, and the index and coefficient tuple of each on-line
        iterate (the first TOUCH_CAP).  With a target the walk stops at the
        first step that lands on it (STATUS_OK, and len(signs) is the return
        time) or ends with STATUS_BUDGET.

        With ``select`` true, select = (bounds, best) nominates, per class
        e = (t0*j + (m/2 if s_j < 0)) mod m, the iterate of least
        s_j Im(v_j), the earliest on an exact tie; else it is None.  best[e]
        is its (j, tuple(v_j)), or None for a class no iterate is in.  A
        float that decided a sign bounds that value within [lo, hi], else
        lo = -inf and hi = inf; bounds[e] is the least hi of the class, and
        an iterate with lo above it is passed over.  Any other is compared
        with best[e] by the exact sign of the difference of the two values.
        """
        m, t0, half = self.m, self.t0, self.m // 2
        signs, touches = array("b"), []
        sel = ([_INF] * m, [None] * m) if select else None
        bounds, best = sel or ((), ())
        v = list(v_start)
        target = None if target is None else list(target)
        e = 0  # lambda^i = zeta^e
        for i in range(budget):
            s, lo, hi = self._sign(v)
            signs.append(s)
            if s == 0:
                if len(touches) < TOUCH_CAP:
                    touches.append((i, tuple(v)))
            elif sel:
                c = e if s > 0 else (e + half) % m
                if lo <= bounds[c]:
                    if best[c] is None or self._below(v, s, c, best[c]):
                        best[c] = (i, tuple(v))
                    bounds[c] = min(bounds[c], hi)
            v = self._step(v, s >= 0)
            e = (e + t0) % m
            if v == target:
                return STATUS_OK, signs, touches, sel
        status = STATUS_OK if target is None else STATUS_BUDGET
        return status, signs, touches, sel
