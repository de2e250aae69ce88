"""Pure-Python orbit kernel.

The orbit is walked in the co-rotating frame.  With the orbit scaled by its
(invariant) common denominator D, the iterates are integer vectors v_n, and
F(z) = lambda*(z - H(z)) gives v_n = lambda^n W_n with

    W_(n+1) = W_n - H(z_n) * D * lambda^-n.

lambda^-n = zeta^(-n*t0 mod m) depends only on the residue r = n mod q, so a
step adds or subtracts D times one of q fixed lattice vectors, and touches
only their nonzero entries (1 or 4 of 8 at 4/5).  The branch is the sign of
Im(z_n) = Im(zeta^e W_n) / D with e = r*t0 mod m: the d-term float sum of
W_n against the sine row rotated by e decides it when it clears its
allowance (below).  Otherwise the exact v_n = zeta^e W_n is built and
signed by the same float test on the unrotated row, then the exact integer
zero test (v_n fixed by conjugation), then a caller-supplied exact oracle
for the rare ambiguous nonzero cases.  An exact return v_n = v_0 is
W_n = lambda^-r v_0, one of q targets rotated once per walk.

The allowance.  Let u = 2^-53 and A = sum|W_j|.  Row entry j of row e is
y_j = fl(S)/2^64 for the 64-bit node S of ``cyclo._fixed_nodes``, within 1
of 2^64 sin(2 pi (j + e)/m), so |y_j - sin| < 2^-64 + u(1 + 2^-64) < 1.01u,
and |y_j| <= 1.  Converting W_j, the d products and the d - 1 additions of
the recursive sum each round once, so the computed sum T differs from
Im(zeta^e W) by at most sum|W_j| (1.01u + (1 + 1.01u)((1 + u)^(d+1) - 1)),
below (d + 3)u A for any d < 2^20.  The allowance is margin * a with
margin = (8d + 128)u, where a, the float sum of the |fl(W_j)|, is at least
(1 - (d + 1)u) A, and its product rounds once, so the allowance is more
than twice that error: |T| above it has the sign of Im(z_n).  Then
|T| -+ allowance also brackets |Im(z_n)| * D: their own roundings are at
most 2uA (|T| <= A(1 + du)), and the allowance exceeds the error by more.
The walks pass over an iterate that cannot be its class's nominee by these
bounds.  The same bound, with e = 0, holds for the test on v_n and on the
differences the nomination compares.

The one entry point, ``Kernel.walk``, serves first-return searches, sign
sequences and tiles: it records the sign of every iterate as one signed
byte and every on-line iterate, stops at an exact return when given a
target, and when asked nominates, per direction class, the one iterate
nearest the line, decided exactly (see ``walk``).  Touches and nominees
build v_n only when they are recorded.  This module is the always-available
fallback; arithmetic is Python ints and therefore never overflows.  The
compiled twin, the C extension built from ``_stepkernel.c``, has the same
interface but gives up on int64 overflow, and then ``stepper`` walks the
orbit again in this kernel from its start.
"""

from __future__ import annotations

from array import array

STATUS_OK = 0          # target reached, or every step walked without one
STATUS_BUDGET = 1      # target not reached within the budget

TOUCH_CAP = 100000     # on-line iterates recorded per walk

_INF = float("inf")


class Kernel:
    """Walks at denominator ``denom`` in the field whose m powers of zeta
    have the integer vectors ``zeta``, with lambda = zeta^t0 and, per
    residue r < q of the step index mod the order q of lambda, the float
    sine row ``rows[r]`` rotated by r*t0."""

    def __init__(self, zeta, rows, t0, denom, margin, hard_sign):
        m, q = len(zeta), len(rows)
        self.m, self.q, self.t0 = m, q, t0
        self.margin = margin
        self.hard_sign = hard_sign
        # per power of zeta, its nonzero (index, entry) pairs
        self.zrows = tuple(tuple((i, c) for i, c in enumerate(vec) if c) for vec in zeta)
        self.rows = tuple(tuple(row) for row in rows)
        # per residue r, D * lambda^-r as (index, entry) pairs: the - branch
        # adds it to W, the + branch subtracts it
        self.moves = tuple(
            tuple((i, denom * c) for i, c in self.zrows[-r * t0 % m]) for r in range(q)
        )

    def _rotate(self, vec, k, e):
        """The integer vector of sum(vec_j * zeta^(k*j + e)): zeta^e * vec for
        k = 1, the conjugate of vec for k = -1 and e = 0."""
        m, zrows = self.m, self.zrows
        out = [0] * len(vec)
        for j, x in enumerate(vec):
            if x:
                for i, c in zrows[(k * j + e) % m]:
                    out[i] += x * c
        return out

    # -- sign of Im(v), exact ------------------------------------------------

    def _float_sign(self, vec, row):
        """(s, lo, hi) when the float sum of vec against row clears its
        allowance (see the module docstring): the sign s of the imaginary
        part it stands for, and bounds lo <= |that part| * D <= hi.  Else
        None."""
        try:
            total = absum = 0.0
            for x, y in zip(vec, row):
                x = float(x)
                total += x * y
                absum += abs(x)
            mag, err = abs(total), self.margin * absum
            if err < mag < _INF:
                return (1 if total > 0.0 else -1), mag - err, mag + err
        except OverflowError:
            pass
        return None

    def _sign(self, v):
        """(s, lo, hi): the exact sign of Im(v), and bounds on |Im(v)| * D
        from the float sum when it decided the sign, else (-inf, inf)."""
        decided = self._float_sign(v, self.rows[0])
        if decided:
            return decided
        # exact zero test: v fixed by conjugation
        if self._rotate(v, -1, 0) != list(v):
            return self.hard_sign(tuple(v)), -_INF, _INF
        return 0, -_INF, _INF

    def _below(self, v, s, c, best):
        """Whether s Im(v) is below the value of class c's best (j, vec),
        decided exactly on the integer difference of the two."""
        j, vec = best
        sb = 1 if self.t0 * j % self.m == c else -1
        return self._sign([s * x - sb * y for x, y in zip(v, vec)])[0] < 0

    # -- the walk -----------------------------------------------------------------

    def walk(self, v_start, budget, target=None, select=False):
        """Sign the iterates of v_start until ``budget`` iterates are signed.

        Returns (status, signs, touches, select): one signed byte per
        iterate signed, and the index and coefficient tuple of each on-line
        iterate (the first TOUCH_CAP).  With a target the walk stops at the
        first step that lands on it (STATUS_OK, and len(signs) is the return
        time) or ends with STATUS_BUDGET.

        Each step signs iterate n from W_n as the module docstring says,
        then adds -+D lambda^-n to the entries of W that it touches, and
        compares W with lambda^-(n+1) target.

        With ``select`` true, select = (bounds, best) nominates, per class
        e = (t0*j + (m/2 if s_j < 0)) mod m, the iterate of least
        s_j Im(v_j), the earliest on an exact tie; else it is None.  best[e]
        is its (j, tuple(v_j)), or None for a class no iterate is in.  A
        float that decided a sign bounds that value within [lo, hi], else
        lo = -inf and hi = inf; bounds[e] is the least hi of the class, and
        an iterate with lo above it is passed over.  Any other is compared
        with best[e] by the exact sign of the difference of the two values.
        """
        m, t0, q, half = self.m, self.t0, self.q, self.m // 2
        rows, moves, float_sign = self.rows, self.moves, self._float_sign
        signs, touches = array("b"), []
        sel = ([_INF] * m, [None] * m) if select else None
        bounds, best = sel or ((), ())
        w = list(v_start)
        # targets[r] = lambda^-r target, which W_n equals when v_n = target
        targets = None if target is None else [self._rotate(target, 1, -r * t0) for r in range(q)]
        r = e = 0  # the step index mod q, and lambda^n = zeta^e
        for i in range(budget):
            v = None
            decided = float_sign(w, rows[r])
            if not decided:
                v = self._rotate(w, 1, e)
                decided = self._sign(v)
            s, lo, hi = decided
            signs.append(s)
            if s == 0:
                if len(touches) < TOUCH_CAP:
                    touches.append((i, tuple(v)))
            elif sel:
                c = e if s > 0 else (e + half) % m
                if lo <= bounds[c]:
                    if v is None:
                        v = self._rotate(w, 1, e)
                    if best[c] is None or self._below(v, s, c, best[c]):
                        best[c] = (i, tuple(v))
                    bounds[c] = min(bounds[c], hi)
            h = 1 if s >= 0 else -1  # H(z_i)
            for j, x in moves[r]:
                w[j] -= h * x
            r = r + 1 if r + 1 < q else 0
            e = (e + t0) % m
            if targets is not None and w == targets[r]:
                return STATUS_OK, signs, touches, sel
        status = STATUS_OK if target is None else STATUS_BUDGET
        return status, signs, touches, sel
