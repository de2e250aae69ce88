"""Pure-Python orbit kernel.

One step of F in coefficient space is an integer matrix action: with the
orbit scaled by its (invariant) common denominator D, a step is
``v -> M v -+ D*L`` where M is multiplication by lambda and L is lambda's
integer coefficient vector.  The branch is chosen by the sign of
``sum(v_j * sin(2*pi*j/m))``, decided by a certified float fast path, an
exact integer zero test, and a caller-supplied exact oracle for the rare
ambiguous nonzero cases.

This module is the always-available fallback; arithmetic is Python ints and
therefore never overflows.  The compiled twin, the C extension built from
``_stepkernel.c``, has the same interface and hands back on int64 overflow.
"""

from __future__ import annotations

IMPL = "pure"

STATUS_OK = 0          # period found / walk completed
STATUS_BUDGET = 1
STATUS_OVERFLOW = 2    # compiled kernel only
STATUS_ZERO = 3


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

    # -- entry points -----------------------------------------------------------

    def period_search(self, v_start, v_target, budget, idx_offset=0,
                      touch_cap=100000):
        """Iterate until v equals v_target or the budget runs out.

        Returns (status, steps_done, touches, v_final) where touches is a
        list of (absolute index, coefficient tuple) with exactly vanishing
        imaginary part, capped at touch_cap entries.
        """
        v = list(v_start)
        target = tuple(v_target)
        touches = []
        for i in range(budget):
            s = self._sign(v)
            if s == 0 and len(touches) < touch_cap:
                touches.append((idx_offset + i, tuple(v)))
            v = self._step(v, s >= 0)
            if tuple(v) == target:
                return STATUS_OK, i + 1, touches, v
        return STATUS_BUDGET, budget, touches, v

    def sign_walk(self, v_start, nsteps, stop_on_zero=False,
                  include_final=False, touch_cap=100000):
        """Record the address sign of the first ``nsteps`` iterates.

        Returns (status, signs, touches, v_final).  With ``stop_on_zero`` the
        walk aborts at the first on-line iterate (its 0 is the last recorded
        sign).  With ``include_final`` the sign of iterate ``nsteps`` is
        recorded too (signs has length nsteps + 1).
        """
        v = list(v_start)
        signs = []
        touches = []
        for i in range(nsteps):
            s = self._sign(v)
            signs.append(s)
            if s == 0:
                if len(touches) < touch_cap:
                    touches.append((i, tuple(v)))
                if stop_on_zero:
                    return STATUS_ZERO, signs, touches, v
            v = self._step(v, s >= 0)
        if include_final:
            s = self._sign(v)
            signs.append(s)
            if s == 0 and len(touches) < touch_cap:
                touches.append((nsteps, tuple(v)))
        return STATUS_OK, signs, touches, v
