"""Kernel selection and the orbit-plan builder.

A ``CycloNum`` is stored as ``vec / den``, and the orbit of F from it lives
on the lattice (1/den) * Z^d.  The kernels walk it in the co-rotating frame
v_n = lambda^n W_n, where a step adds or subtracts den * lambda^-n, one of q
lattice vectors, to W: exact period detection over millions of steps is
pure integer work, with no conversion in or out.  This module builds the
tables of that walk once per field context (the integer vectors of the
powers of zeta, and the integer sine rows rotated by each power of lambda,
with the float rows and allowance of the compiled kernel derived from
them) and hands them to the fastest available kernel: the compiled
extension when importable and the start fits its int64 guard, else the
pure-Python twin, which signs with the integer rows as the field does.
Every orbit computation is one walk through ``_walk``, which reruns a
compiled walk that outgrows int64 in the pure kernel from its start;
``run_period`` and ``run_signs`` are its two views.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import _steppy
from ._steppy import STATUS_OK
from .cyclo import CycloNum, FieldContext
from .errors import InternalInconsistencyError

try:
    from . import _stepkernel
except ImportError:  # extension not built; pure fallback only
    _stepkernel = None

HAVE_COMPILED = _stepkernel is not None

_INT64_GUARD = 2 ** 62


def active_impl() -> str:
    """Name of the kernel the next computation will try first."""
    return "compiled" if _compiled_enabled() else "pure"


def _compiled_enabled() -> bool:
    return HAVE_COMPILED and os.environ.get("PWROT_PURE") != "1"


class OrbitRecord(NamedTuple):
    """One first-return walk: the period (None past the budget), the on-line
    iterates, the sign of each iterate walked, and, when the walk
    nominated, per class e the nominee (j, vec) of least s_j Im(z_j) of
    ``_steppy.Kernel.walk`` (None for an empty class), with
    z_j = vec / start.den."""

    start: CycloNum
    period: Optional[int]
    iterates_on_line: tuple[tuple[int, CycloNum], ...]
    signs: Sequence[int]
    nominees: Optional[tuple]

    @property
    def budget_used(self) -> int:
        """The steps walked: one sign per iterate."""
        return len(self.signs)


class _Plan:
    """The tables of the co-rotating walk for one field context: the
    integer vectors of the m powers of zeta, from which the compiled kernel
    takes the q step vectors lambda^-r, rotates the targets and builds the
    exact iterates v_n = zeta^e W_n, and the q integer sine rows rotated by
    e = r*t0 (``FieldContext.sine_row``), which the pure kernel signs with.

    The compiled kernel signs with the float rows y_j = fl(S)/2^64 of the
    same nodes S, and a float sum counts only when it clears an allowance.
    Let u = 2^-53 and A = sum|W_j|.  S is within 1 of
    2^64 sin(2 pi (j + e)/m), so |y_j - sin| < 2^-64 + u(1 + 2^-64) < 1.01u,
    and |y_j| <= 1.  Converting W_j, the d products and the d - 1 additions
    of the recursive sum each round once, so the computed sum T differs from
    Im(zeta^e W) by at most A (1.01u + (1 + 1.01u)((1 + u)^(d+1) - 1)),
    below (d + 3)u A for any d < 2^20.  The allowance is margin * a with
    margin = (8d + 128)u, where a, the float sum of the |fl(W_j)|, is at
    least (1 - (d + 1)u) A, and its product rounds once, so the allowance is
    more than twice that error: |T| above it has the sign of Im(z_n).  Then
    |T| -+ allowance also brackets |Im(z_n)| * D: their own roundings are at
    most 2uA (|T| <= A(1 + du)), and the allowance exceeds the error by
    more.  The walks pass over an iterate that cannot be its class's
    nominee by these bounds.  The same bound, with e = 0, holds for the test
    on v_n and on the differences the nomination compares."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        d, m = ctx.d, ctx.m
        self.t0 = t0 = ctx.t0
        self.zeta = zeta = ctx._zeta_vecs
        self.rows = tuple(ctx.sine_row(r * t0) for r in range(ctx.q))
        self.float_rows = tuple(tuple(s / 2 ** 64 for s in row) for row in self.rows)
        self.margin = (4 * d + 64) * 2.0 ** -52

        def spread(k: int, e: int) -> int:
            """The largest row sum of |entries| of vec -> sum(vec_j zeta^(k*j + e))."""
            return max(sum(abs(zeta[(k * j + e) % m][i]) for j in range(d)) for i in range(d))

        # an iterate v_n = zeta^(r*t0) W_n, a target's rotation, and the
        # conjugate of an iterate in the zero test are at most this many
        # times max|W_j|
        self.rowsum = max(spread(1, r * t0) for r in range(ctx.q)) * spread(-1, 0)
        self.max_l = max(abs(c) for vec in zeta for c in vec)

    def hard_sign(self, v) -> int:
        """Exact +-1 for the rare float-ambiguous, nonzero imaginary parts."""
        s = int(self.ctx.sign(v))
        if s == 0:
            raise InternalInconsistencyError("hard_sign called on an exact zero")
        return s

    def int64_threshold(self, denom: int) -> int:
        """Largest safe |W_j| for a compiled walk at this denominator: one
        more step adds at most denom * max_l, and v_n = zeta^e W_n, the
        conjugate of v_n, and that of a difference of two iterates stay
        within 2 * rowsum * threshold, so every int64 sum fits."""
        room = _INT64_GUARD - denom * self.max_l
        if room <= 0:
            return 0
        return room // self.rowsum

    def pure_kernel(self, denom: int):
        return _steppy.Kernel(self.ctx, self.rows, denom, self.hard_sign)

    def compiled_kernel(self, denom: int):
        return _stepkernel.Kernel(
            self.zeta, self.float_rows, self.t0, denom, self.margin, self.hard_sign,
            self.int64_threshold(denom),
        )


@lru_cache(maxsize=None)
def _plan(ctx: FieldContext) -> _Plan:
    return _Plan(ctx)


def _walk(z: CycloNum, budget: int, target=None, select=False):
    """One kernel walk of the orbit of z: (status, signs, touches, nominees),
    with the touches' exact values, and nominees None unless ``select``.  The
    compiled kernel walks when z fits its int64 bound; a compiled walk that
    outgrows the bound returns None, and the pure kernel walks the orbit
    again from z.  Each Galois embedding of an iterate moves by at most 1 per
    step, and W_n = lambda^-n v_n has embeddings of the same size, so the
    coefficients of W grow at most linearly, and only a walk that starts
    near the bound (a huge denominator or coefficient) outgrows it."""
    ctx = z.ctx
    plan = _plan(ctx)
    denom = z.den
    out = None
    if _compiled_enabled():
        thresh = plan.int64_threshold(denom)
        if thresh > 0 and max(abs(x) for x in z.vec) <= thresh:
            out = plan.compiled_kernel(denom).walk(z.vec, budget, target, select)
    if out is None:
        out = plan.pure_kernel(denom).walk(z.vec, budget, target, select)
    status, signs, touches, best = out
    on_line = tuple((i, ctx.from_lattice(vec, denom)) for i, vec in touches)
    return status, signs, on_line, None if best is None else tuple(best)


def run_period(z: CycloNum, budget: int, nominate: bool = False) -> OrbitRecord:
    """Exact first-return search behind ``dynamics.minimal_period``."""
    status, signs, on_line, nominees = _walk(z, budget, z.vec, nominate)
    return OrbitRecord(
        start=z,
        period=len(signs) if status == STATUS_OK else None,
        iterates_on_line=on_line,
        signs=signs,
        nominees=nominees,
    )


def run_signs(z: CycloNum, nsteps: int):
    """(signs, touches): the signs of the first ``nsteps`` iterates of z, as
    signed bytes, and the on-line indices paired with their exact values."""
    _, signs, on_line, _ = _walk(z, nsteps)
    return signs, on_line
