"""Kernel selection and the orbit-plan builder.

A ``CycloNum`` is stored as ``vec / den``, and the orbit of F from it lives
on the lattice (1/den) * Z^d: multiplying by lambda is an integer matrix,
conjugation is an integer matrix, and the branch translation is an integer
vector, so exact period detection over millions of steps is pure integer
work on ``vec``, with no conversion in or out.  This module builds those
tables once per field context and hands them to the fastest available
kernel: the compiled extension when importable and the start fits its int64
guard, else the pure-Python twin.  Every orbit computation is one walk
through ``_walk``, which reruns a compiled walk that outgrows int64 in the
pure kernel from its start; ``run_period`` and ``run_signs`` are its two
views.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class OrbitRecord:
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
    """Integer step tables for one field context."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        d, m = ctx.d, ctx.m
        self.t0 = t0 = m * ctx.p // ctx.q
        vecs = ctx._zeta_vecs
        self.mat_m = [[vecs[(t0 + j) % m][i] for j in range(d)] for i in range(d)]
        self.mat_k = [[vecs[(m - j) % m][i] for j in range(d)] for i in range(d)]
        self.lvec = list(vecs[t0])
        self.sines = list(ctx._sin)
        # the kernels' float sign of sum(v_j * sines_j) stands only when it
        # clears margin * sum|v_j|; otherwise they call hard_sign.  The margin
        # is several times the sum's worst error, about (d + 4) 2^-53 sum|v_j|,
        # so |sum| -+ margin * sum|v_j| also brackets |Im(v)| * D, with room
        # for the roundings of those bounds: the walks pass over an iterate
        # that cannot be its class's nominee by it
        self.margin = (4 * d + 64) * 2.0 ** -52
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
            self.mat_m, self.mat_k, self.lvec, denom,
            self.sines, self.margin, self.hard_sign, self.ctx.m, self.t0,
        )

    def compiled_kernel(self, denom: int):
        return _stepkernel.Kernel(
            self.mat_m, self.mat_k, self.lvec, denom,
            self.sines, self.margin, self.hard_sign, self.ctx.m, self.t0,
            self.int64_threshold(denom),
        )


def _plan(ctx: FieldContext) -> _Plan:
    plan = ctx._extras.get("step_plan")
    if plan is None:
        plan = _Plan(ctx)
        ctx._extras["step_plan"] = plan
    return plan


def _walk(z: CycloNum, budget: int, target=None, select=False):
    """One kernel walk of the orbit of z: (status, signs, touches, nominees),
    with the touches' exact values, and nominees None unless ``select``.  The
    compiled kernel walks when z fits its int64 bound; a compiled walk that
    outgrows the bound returns None, and the pure kernel walks the orbit
    again from z.  Each Galois embedding of an iterate moves by at most 1 per
    step, so coefficients grow at most linearly, and only a walk that starts
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
    status, signs, touches, sel = out
    on_line = tuple((i, ctx.from_lattice(vec, denom)) for i, vec in touches)
    return status, signs, on_line, None if sel is None else tuple(sel[1])


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
