"""Pure-Python orbit kernel.

The orbit is walked in the co-rotating frame.  With the orbit scaled by its
(invariant) common denominator D, the iterates are integer vectors v_n, and
F(z) = lambda*(z - H(z)) gives v_n = lambda^n W_n with

    W_(n+1) = W_n - H(z_n) * D * lambda^-n.

lambda^-n = zeta^(-n*t0 mod m) depends only on the residue r = n mod q, so a
step adds or subtracts D times one of q fixed lattice vectors, and touches
only their nonzero entries (1 or 4 of 8 at 4/5).  The branch is the sign of
Im(z_n) = Im(zeta^e W_n) / D with e = r*t0 mod m, and it is decided as the
field decides every sign (``FieldContext.sign``).  With row the 64-bit sine
nodes rotated by e (``FieldContext.sine_row``), T = sum(W_j * row_j) is
within E = sum|W_j| of 2^64 * D * Im(z_n), so |T| > E decides the sign, and
then |T| - E and |T| + E bound 2^64 * D * |Im(z_n)|.  Otherwise the exact
v_n = zeta^e W_n is built (``FieldContext._permute``) and tested for zero
exactly (v_n fixed by conjugation), and a nonzero sign goes to a
caller-supplied exact oracle.  An exact return v_n = v_0 is
W_n = lambda^-r v_0, one of q targets rotated once per walk.

The one entry point, ``Kernel.walk``, serves first-return searches, sign
sequences and tiles: it records the sign of every iterate as one signed
byte and every on-line iterate, stops at an exact return when given a
target, and when asked nominates, per direction class, the one iterate
nearest the line, decided exactly (see ``walk``).  Touches and nominees
build v_n only when they are recorded.  This module is the always-available
fallback and the reference the compiled kernel is tested against;
arithmetic is Python ints and therefore never overflows.  The compiled
twin, the C extension built from ``_stepkernel.c``, has the same walk but
decides signs by a float sum with its own allowance (``stepper._Plan``), and
gives up on int64 overflow, and then ``stepper`` walks the orbit again in
this kernel from its start.
"""

from __future__ import annotations

from array import array
from operator import mul

STATUS_OK = 0          # target reached, or every step walked without one
STATUS_BUDGET = 1      # target not reached within the budget

TOUCH_CAP = 100000     # on-line iterates recorded per walk

_INF = float("inf")    # the bound of a class that nothing bounds yet


class Kernel:
    """Walks at denominator ``denom`` in the field of ``ctx``, with, per
    residue r < q of the step index mod the order q of lambda, the integer
    sine row ``rows[r]`` rotated by r*t0."""

    def __init__(self, ctx, rows, denom, hard_sign):
        self.ctx, self.rows, self.hard_sign = ctx, rows, hard_sign
        m, t0 = ctx.m, ctx.t0
        # per residue r, D * lambda^-r as (index, entry) pairs: the - branch
        # adds it to W, the + branch subtracts it
        self.moves = tuple(
            tuple((i, denom * c) for i, c in ctx._zeta_rows[-r * t0 % m]) for r in range(len(rows))
        )

    def _exact_sign(self, v) -> int:
        """The sign of Im(v) that no certificate decided: 0 when conjugation
        fixes v, else the oracle's."""
        if self.ctx._permute(v, -1, 0) == v:
            return 0
        return self.hard_sign(tuple(v))

    def _below(self, v, s, c, best):
        """Whether s Im(v) is below the value of class c's best (j, vec),
        decided exactly on the integer difference of the two."""
        j, vec = best
        ctx = self.ctx
        sb = 1 if ctx.t0 * j % ctx.m == c else -1
        diff = [s * x - sb * y for x, y in zip(v, vec)]
        t, err = sum(map(mul, diff, self.rows[0])), sum(map(abs, diff))
        if abs(t) > err:
            return t < 0
        return self._exact_sign(diff) < 0

    def walk(self, v_start, budget, target=None, select=False):
        """Sign the iterates of v_start until ``budget`` iterates are signed.

        Returns (status, signs, touches, nominees): one signed byte per
        iterate signed, and the index and coefficient tuple of each on-line
        iterate (the first TOUCH_CAP).  With a target the walk stops at the
        first step that lands on it (STATUS_OK, and len(signs) is the return
        time) or ends with STATUS_BUDGET.

        Each step signs iterate n from W_n as the module docstring says,
        then adds -+D lambda^-n to the entries of W that it touches, and
        compares W with lambda^-(n+1) target.

        With ``select`` true, nominees[e] is, per class
        e = (t0*j + (m/2 if s_j < 0)) mod m, the (j, tuple(v_j)) of the
        iterate of least s_j Im(v_j), the earliest on an exact tie, or None
        for a class no iterate is in; else nominees is None.  A certificate
        that decided a sign bounds 2^64 s_j Im(v_j) within [lo, hi] =
        [|T| - E, |T| + E]; the walk keeps per class the least hi (inf while
        it has none) and passes over an iterate with lo above it.  Any other
        is compared with the class's nominee by the exact sign of the
        difference of the two values.
        """
        ctx, rows, moves = self.ctx, self.rows, self.moves
        m, t0, q, half, permute = ctx.m, ctx.t0, len(rows), ctx.m // 2, ctx._permute
        signs, touches = array("b"), []
        bounds, best = ([_INF] * m, [None] * m) if select else ((), None)
        w = list(v_start)
        # targets[r] = lambda^-r target, which W_n equals when v_n = target
        targets = None if target is None else [permute(target, 1, -r * t0) for r in range(q)]
        r = e = 0  # the step index mod q, and lambda^n = zeta^e
        for i in range(budget):
            v = None
            t, err = sum(map(mul, w, rows[r])), sum(map(abs, w))
            if t > err:
                s = 1
            elif -t > err:
                s = -1
            else:
                v = permute(w, 1, e)
                s = self._exact_sign(v)
            signs.append(s)
            if s == 0:
                if len(touches) < TOUCH_CAP:
                    touches.append((i, tuple(v)))
            elif best is not None:
                c = e if s > 0 else (e + half) % m
                # a certified sign is passed over when its lower bound is
                # above the class's bound; an exact one (v built) has none
                if v is None and abs(t) - err <= bounds[c]:
                    v = permute(w, 1, e)
                    bounds[c] = min(bounds[c], abs(t) + err)
                if v is not None and (best[c] is None or self._below(v, s, c, best[c])):
                    best[c] = (i, tuple(v))
            h = 1 if s >= 0 else -1  # H(z_i)
            for j, x in moves[r]:
                w[j] -= h * x
            r = r + 1 if r + 1 < q else 0
            e = (e + t0) % m
            if targets is not None and w == targets[r]:
                return STATUS_OK, signs, touches, best
        status = STATUS_OK if target is None else STATUS_BUDGET
        return status, signs, touches, best
