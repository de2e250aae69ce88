"""Kernel selection and the orbit-plan builder.

A ``CycloNum`` is stored as ``vec / den``, and the orbit of F from it lives
on the lattice (1/den) * Z^d: multiplying by lambda is an integer matrix,
conjugation is an integer matrix, and the branch translation is an integer
vector, so exact period detection over millions of steps is pure integer
work on ``vec``, with no conversion in or out.  This module builds those
tables once per field context and hands them to the fastest available
kernel: the compiled extension when importable (with an int64 overflow guard
and fallback), else the pure-Python twin.
"""

from __future__ import annotations

import os

from . import _steppy
from .cyclo import CycloNum, FieldContext
from .dynamics import OrbitRecord
from .errors import InternalInconsistencyError

try:
    from . import _stepkernel
except ImportError:  # extension not built; pure fallback only
    _stepkernel = None

HAVE_COMPILED = _stepkernel is not None

STATUS_OK = _steppy.STATUS_OK
STATUS_BUDGET = _steppy.STATUS_BUDGET
STATUS_OVERFLOW = _steppy.STATUS_OVERFLOW
STATUS_ZERO = _steppy.STATUS_ZERO

_INT64_GUARD = 2 ** 62


def active_impl() -> str:
    """Name of the kernel the next computation will try first."""
    return "compiled" if _compiled_enabled() else "pure"


def _compiled_enabled() -> bool:
    return HAVE_COMPILED and os.environ.get("PWROT_PURE") != "1"


class _Plan:
    """Integer step tables for one field context."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        d, m = ctx.d, ctx.m
        t0 = m * ctx.p // ctx.q
        vecs = ctx._zeta_vecs
        self.mat_m = [[vecs[(t0 + j) % m][i] for j in range(d)] for i in range(d)]
        self.mat_k = [[vecs[(m - j) % m][i] for j in range(d)] for i in range(d)]
        self.lvec = list(vecs[t0])
        self.sines = list(ctx._sin)
        # the kernels' float sign of sum(v_j * sines_j) stands only when it
        # clears margin * sum|v_j|; otherwise they call hard_sign
        self.margin = (4 * d + 64) * 2.0 ** -52
        self.rows_m = [
            tuple((j, c) for j, c in enumerate(row) if c) for row in self.mat_m
        ]
        self.rows_k = [
            tuple((j, c) for j, c in enumerate(row) if c) for row in self.mat_k
        ]
        self.rowsum = max(
            max(sum(abs(c) for c in row) for row in self.mat_m),
            max(sum(abs(c) for c in row) for row in self.mat_k),
            1,
        )
        self.max_l = max(abs(c) for c in self.lvec)

    def hard_sign(self, v) -> int:
        """Exact +-1 for the rare float-ambiguous, nonzero imaginary parts."""
        s = int(self.ctx._sign(v, imag=True))
        if s == 0:
            raise InternalInconsistencyError("hard_sign called on an exact zero")
        return s

    def int64_threshold(self, denom: int) -> int:
        """Largest safe |v_j| for one compiled step at this denominator."""
        room = _INT64_GUARD - denom * self.max_l
        if room <= 0:
            return 0
        return room // self.rowsum

    def pure_kernel(self, denom: int):
        return _steppy.Kernel(
            self.rows_m, self.rows_k, self.lvec, denom,
            self.sines, self.margin, self.hard_sign,
        )

    def compiled_kernel(self, denom: int):
        return _stepkernel.Kernel(
            self.mat_m, self.mat_k, self.lvec, denom,
            self.sines, self.margin, self.hard_sign,
            self.int64_threshold(denom),
        )


def _plan(ctx: FieldContext) -> _Plan:
    plan = ctx._extras.get("step_plan")
    if plan is None:
        plan = _Plan(ctx)
        ctx._extras["step_plan"] = plan
    return plan


def _kernel(plan: _Plan, v, denom: int):
    """The compiled kernel when v fits its int64 bound, else the pure one."""
    if _compiled_enabled():
        thresh = plan.int64_threshold(denom)
        if thresh > 0 and max(abs(x) for x in v) <= thresh:
            return plan.compiled_kernel(denom)
    return plan.pure_kernel(denom)


def run_period(z: CycloNum, budget: int, touch_cap: int = 100000) -> OrbitRecord:
    """Exact first-return search behind ``dynamics.minimal_period``."""
    ctx = z.ctx
    plan = _plan(ctx)
    v0, denom = z.vec, z.den
    kern = _kernel(plan, v0, denom)
    status, done, touches, v = kern.period_search(list(v0), v0, budget, 0, touch_cap)
    if status == STATUS_OVERFLOW:
        # resume exactly where the int64 walk stopped
        status, steps, tch, v = plan.pure_kernel(denom).period_search(
            v, v0, budget - done, done, touch_cap - len(touches)
        )
        touches.extend(tch)
        done += steps
    period = done if status == STATUS_OK else None
    on_line = tuple(
        (idx, ctx.from_lattice(vec, denom)) for idx, vec in touches
    )
    return OrbitRecord(
        start=z, period=period, iterates_on_line=on_line, budget_used=done
    )


def run_signs(
    z: CycloNum,
    nsteps: int,
    stop_on_zero: bool = False,
    include_final: bool = False,
    touch_cap: int = 100000,
):
    """Address signs of the first iterates of z.

    Returns (signs, first_zero_index_or_None, touches) where touches pairs
    on-line indices with their exact values.
    """
    ctx = z.ctx
    plan = _plan(ctx)
    denom = z.den
    kern = _kernel(plan, z.vec, denom)
    status, signs, tch, v = kern.sign_walk(
        list(z.vec), nsteps, stop_on_zero, include_final, touch_cap
    )
    touches = [(idx, ctx.from_lattice(vec, denom)) for idx, vec in tch]
    if status == STATUS_OVERFLOW:
        # resume exactly where the int64 walk stopped
        offset = len(signs)
        status, part, tch, v = plan.pure_kernel(denom).sign_walk(
            v, nsteps - offset, stop_on_zero, include_final,
            touch_cap - len(touches),
        )
        signs.extend(part)
        touches.extend(
            (idx + offset, ctx.from_lattice(vec, denom)) for idx, vec in tch
        )

    zero_index = None
    if stop_on_zero and signs and signs[-1] == 0:
        zero_index = len(signs) - 1
    return signs, zero_index, touches
