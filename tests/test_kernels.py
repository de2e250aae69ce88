"""The compiled and pure orbit kernels must be observationally identical."""

import random
from fractions import Fraction

import pytest

from pwrot import stepper
from pwrot.cyclo import golden_elements, make_field
from pwrot.dynamics import minimal_period, orbit, step
from pwrot.stepper import run_period, run_signs


@pytest.fixture(scope="module")
def ctx():
    return make_field(4, 5)


def test_decompose_round_trip(ctx):
    z = ctx.point(Fraction(3, 10), Fraction(-7, 6))
    v, denom = z.vec, z.den
    assert denom == 30
    assert ctx.num([Fraction(x, denom) for x in v]) == z


def test_pure_kernel_matches_field_arithmetic(ctx):
    # the integer-lattice step must equal the CycloNum step, value for value
    plan = stepper._plan(ctx)
    z = ctx.point(Fraction(1, 3), Fraction(2, 7))
    v, denom = z.vec, z.den
    kern = plan.pure_kernel(denom)
    values = orbit(z, 25)
    cur = list(v)
    for val in values[1:]:
        _, signs, _, cur = kern.walk(cur, 1)
        assert ctx.num([Fraction(x, denom) for x in cur]) == val


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
class TestCompiledAgreesWithPure:
    def _compare(self, ctx, z, budget):
        plan = stepper._plan(ctx)
        v, denom = z.vec, z.den
        pure = plan.pure_kernel(denom)
        comp = plan.compiled_kernel(denom)
        rp = pure.walk(list(v), budget, list(v))
        rc = comp.walk(list(v), budget, list(v))
        assert rp == rc
        sp = pure.walk(list(v), min(budget, 300) + 1)
        sc = comp.walk(list(v), min(budget, 300) + 1)
        assert sp == sc

    def test_fixed_point(self, ctx):
        phi, s, _ = golden_elements(ctx)
        p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
        self._compare(ctx, p0, 10)

    def test_seven_cycle(self, ctx):
        phi, s, _ = golden_elements(ctx)
        p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
        p1 = (2 * phi - 3) * p0 + (2 - 2 * phi)
        self._compare(ctx, p1, 100)

    def test_line_walker(self, ctx):
        phi, _, _ = golden_elements(ctx)
        self._compare(ctx, -phi, 240)

    def test_random_points(self, ctx):
        rng = random.Random(77)
        for _ in range(8):
            z = ctx.point(
                Fraction(rng.randint(-20, 20), rng.randint(1, 8)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 8)),
            )
            self._compare(ctx, z, 400)

    def test_other_fields(self):
        for p, q in [(11, 12), (3, 7)]:
            c = make_field(p, q)
            self._compare(c, c.point(Fraction(1, 3), Fraction(1, 5)), 300)


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_overflow_hands_off_to_pure(ctx, monkeypatch):
    # shrink the guard so each compiled walk overflows mid-orbit, then check
    # the one resume path, with and without a target, still matches an
    # all-pure walk: period, signs, touch indices and touch values.  Every
    # |v_j| on the orbit of Q (denominator 1) is at most 15 and starts at 1;
    # F(P1) (denominator 5) starts at 6 and reaches 7 on its 7-cycle.
    phi, s, _ = golden_elements(ctx)
    p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
    w1 = step((2 * phi - 3) * p0 + (2 - 2 * phi))
    q0 = -phi

    def walks():
        return [run_period(q0, 240), run_period(w1, 100), run_signs(q0, 241)]

    plan = stepper._plan(ctx)
    real_pure = plan.pure_kernel
    resumed = []

    def counted_pure(denom):
        resumed.append(denom)
        return real_pure(denom)

    with monkeypatch.context() as m:
        m.setattr(plan, "int64_threshold", lambda denom: 2 if denom == 1 else 6)
        m.setattr(plan, "pure_kernel", counted_pure)
        mixed = walks()
    # each walk started compiled and handed off once
    assert resumed == [1, 5, 1]
    monkeypatch.setattr(stepper, "_compiled_enabled", lambda: False)
    pure = walks()
    for rec_mixed, rec_pure in zip(mixed[:2], pure[:2]):
        assert rec_mixed.period == rec_pure.period
        assert rec_mixed.signs == rec_pure.signs
        assert rec_mixed.iterates_on_line == rec_pure.iterates_on_line
        assert rec_mixed == rec_pure
    assert mixed[0].period is None and mixed[1].period == 7
    assert [i for i, _ in mixed[0].iterates_on_line][:3] == [0, 3, 10]
    signs, touches = mixed[2]
    assert signs == pure[2][0] and signs[:240] == mixed[0].signs
    assert [i for i, _ in touches] == [i for i, _ in pure[2][1]]
    assert [v for _, v in touches] == [v for _, v in pure[2][1]]


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_huge_denominator_uses_pure_path(ctx):
    z = ctx.point(Fraction(1, 2 ** 61), Fraction(1, 3))
    rec = minimal_period(z, 50)  # must not crash or misbehave
    assert rec.budget_used <= 50


def test_env_override_forces_pure(ctx, monkeypatch):
    monkeypatch.setenv("PWROT_PURE", "1")
    assert stepper.active_impl() == "pure"
    phi, s, _ = golden_elements(ctx)
    p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
    assert minimal_period(p0, 5).period == 1


def test_forced_hard_sign_matches_fast_path(ctx, monkeypatch):
    # a margin no float sum can clear sends every nonzero branch sign to the
    # exact oracle in _Plan.hard_sign; the walks must not change
    phi, s, _ = golden_elements(ctx)
    p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
    p1 = (2 * phi - 3) * p0 + (2 - 2 * phi)
    rec = run_period(p1, 100)
    signs = run_signs(-phi, 241)
    assert rec.period == 7

    hard_sign = stepper._Plan.hard_sign
    calls = []

    def counted(plan, v):
        calls.append(v)
        return hard_sign(plan, v)

    monkeypatch.setattr(stepper._plan(ctx), "margin", float("inf"))
    monkeypatch.setattr(stepper._Plan, "hard_sign", counted)
    monkeypatch.setattr(stepper, "_compiled_enabled", lambda: False)
    assert run_period(p1, 100) == rec
    assert len(calls) == 7
    assert run_signs(-phi, 241) == signs
    assert len(calls) == 7 + sum(1 for x in signs[0] if x)


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_forced_hard_sign_matches_pure(ctx, monkeypatch):
    # the compiled twin of test_forced_hard_sign_matches_fast_path: every
    # nonzero branch sign crosses from C into _Plan.hard_sign, with the same
    # oracle calls and results as the pure kernel, and oracle errors propagate;
    # PWROT_PURE=1 in the environment would switch the compiled walk off
    monkeypatch.delenv("PWROT_PURE", raising=False)
    phi, s, _ = golden_elements(ctx)
    p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
    p1 = (2 * phi - 3) * p0 + (2 - 2 * phi)
    rec = run_period(p1, 100)
    signs = run_signs(-phi, 241)

    plan = stepper._plan(ctx)
    hard_sign = stepper._Plan.hard_sign
    calls = []

    def counted(plan, v):
        calls.append(v)
        return hard_sign(plan, v)

    def walks():
        calls.clear()
        return run_period(p1, 100), run_signs(-phi, 241), list(calls)

    monkeypatch.setattr(plan, "margin", float("inf"))
    monkeypatch.setattr(stepper._Plan, "hard_sign", counted)
    with monkeypatch.context() as m:
        m.setattr(stepper, "_compiled_enabled", lambda: False)
        pure = walks()
    with monkeypatch.context() as m:
        m.setattr(plan, "pure_kernel", None)  # the compiled kernel must do every step
        compiled = walks()
    assert compiled == pure
    assert compiled[:2] == (rec, signs)
    assert len(compiled[2]) == 7 + sum(1 for x in signs[0] if x)

    def failing(plan, v):
        raise RuntimeError("oracle failed")

    monkeypatch.setattr(stepper._Plan, "hard_sign", failing)
    with pytest.raises(RuntimeError, match="oracle failed"):
        run_period(p1, 100)
    with pytest.raises(RuntimeError, match="oracle failed"):
        run_signs(-phi, 240)
