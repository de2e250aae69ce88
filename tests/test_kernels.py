"""The compiled and pure orbit kernels must be observationally identical."""

import random
import shutil
import subprocess
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest

from pwrot import stepper
from pwrot.casestudy import golden_context, hexagon_context, pentagon_centers
from pwrot.cyclo import Sign, golden_elements, make_field, sign_of_imag
from pwrot.dynamics import branch_offsets, minimal_period, orbit, step
from pwrot.geometry import Box, HalfPlane, intersect_halfplanes
from pwrot.stepper import run_period, run_signs
from pwrot.tiles import interior_samples, scan_region, tile_from_seed


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
        cur = kern._step(cur, kern._sign(cur)[0] >= 0)
        assert ctx.num([Fraction(x, denom) for x in cur]) == val


def tile_seeds():
    """P0..P4, an interior point of the P2 tile and the hexagon center, with
    budgets past their periods."""
    gc, hc = golden_context(), hexagon_context()
    centers = pentagon_centers(gc, 4)
    sample = interior_samples(tile_from_seed(centers[2], 200), 1, seed=4)[0]
    return [(z, 7000) for z in centers] + [(sample, 7000), (hc.center, 100)]


def scan_seeds():
    """The first seed of each tile of the three tile-scan grids of the
    benchmark, with the scan's budget."""
    grids = [((4, 5), Box(-3, -3, 3, 3), 1, 3000), ((11, 12), Box(-1, -1, 3, 2), Fraction(1, 2), 1000),
             ((3, 7), Box(-2, -2, 2, 2), Fraction(4, 3), 3000)]
    return [
        (t.seed, budget)
        for (p, q), box, step, budget in grids
        for t in scan_region(make_field(p, q), box, step, budget).tile_list
    ]


def field_nominees(z, budget):
    """Per class e = (t0*j + (m/2 if s_j < 0)) mod m, the (j, z_j) of least
    s_j Im(z_j) on the walk from z to its first return, the earliest on an
    exact tie, by field arithmetic alone: what a nominating walk returns."""
    ctx = z.ctx
    m, t0 = ctx.m, ctx.m * ctx.p // ctx.q
    best = [None] * m
    w = z
    for j in range(budget):
        s = sign_of_imag(w)
        assert s != Sign.ZERO
        c = (t0 * j + (m // 2 if s < 0 else 0)) % m
        if best[c] is None or sign_of_imag(w * int(s) - best[c][1] * best[c][2]) == Sign.NEGATIVE:
            best[c] = (j, w, int(s))
        w = step(w)
        if w == z:
            return [b and b[:2] for b in best]
    raise AssertionError("no return within the budget")


def as_field(z, nominees):
    """A walk's nominees with their iterates as field elements."""
    return [n and (n[0], z.ctx.from_lattice(n[1], z.den)) for n in nominees]


def streamed_polygon(tile):
    """The tile's polygon from every pulled-back constraint, streamed from the
    walk of branch offsets: the reference the nominees must reproduce."""
    ctx, word, n = tile.ctx, tile.word.word, tile.period
    return intersect_halfplanes(
        HalfPlane(j % ctx.q, b, word[j % tile.ell])
        for j, b in enumerate(branch_offsets(ctx, word, n - 1))
    )


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
class TestCompiledAgreesWithPure:
    """Every output of a walk agrees: status, signs, touches, and the
    per-class bounds and nominees when it selects them."""

    def _compare(self, ctx, z, budget):
        plan = stepper._plan(ctx)
        v, denom = z.vec, z.den
        pure = plan.pure_kernel(denom)
        comp = plan.compiled_kernel(denom)
        rp = pure.walk(list(v), budget, list(v), True)
        rc = comp.walk(list(v), budget, list(v), True)
        assert rp == rc
        # a walk that does not select is the same walk, with no nominees
        unselected = rp[:3] + (None,)
        assert pure.walk(list(v), budget, list(v)) == comp.walk(list(v), budget, list(v)) == unselected
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

    def test_budgets_that_sign_nothing(self, ctx):
        plan = stepper._plan(ctx)
        z = ctx.point(Fraction(1, 3), Fraction(2, 7))
        for budget in (0, -3):
            for select in (False, True):
                pure = plan.pure_kernel(z.den).walk(z.vec, budget, None, select)
                assert plan.compiled_kernel(z.den).walk(z.vec, budget, None, select) == pure
                assert len(pure[1]) == 0 and pure[2] == []

    def test_tile_seeds(self):
        for z, budget in tile_seeds():
            plan = stepper._plan(z.ctx)
            pure = plan.pure_kernel(z.den).walk(z.vec, budget, z.vec, True)
            assert pure == plan.compiled_kernel(z.den).walk(z.vec, budget, z.vec, True)
            bounds, nominees = pure[3]
            assert any(nominees) and len(bounds) == len(nominees) == z.ctx.m


class _Logged:
    """A kernel whose walks are logged as (kind, v_start, gave up)."""

    def __init__(self, kind, kern, log):
        self.kind, self.kern, self.log = kind, kern, log

    def walk(self, v_start, *args):
        out = self.kern.walk(v_start, *args)
        self.log.append((self.kind, tuple(v_start), out is None))
        return out


def log_walks(m, plan, log):
    """Log every walk of plan's kernels into log, within the monkeypatch
    context m."""
    for kind in ("compiled", "pure"):
        make = getattr(plan, f"{kind}_kernel")
        m.setattr(plan, f"{kind}_kernel",
                  lambda denom, kind=kind, make=make: _Logged(kind, make(denom), log))


def rerun_log(starts):
    """The log of walks from these starts that each overflow the compiled
    kernel once and are walked again, from the start, by the pure one."""
    return [(kind, tuple(z.vec), kind == "compiled") for z in starts for kind in ("compiled", "pure")]


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_walk_past_its_threshold_returns_none(ctx, monkeypatch):
    # every |v_j| on the orbit of Q (denominator 1) is at most 15 and starts
    # at 1: a threshold of 0 has the walk start past it, one of 2 has it
    # cross mid-walk; either way the walk returns None, found or not
    plan = stepper._plan(ctx)
    q0 = -golden_elements(ctx)[0]
    for thresh in (0, 2):
        monkeypatch.setattr(plan, "int64_threshold", lambda denom: thresh)
        kern = plan.compiled_kernel(q0.den)
        for target in (None, q0.vec):
            for select in (False, True):
                assert kern.walk(q0.vec, 240, target, select) is None
    monkeypatch.undo()
    assert plan.compiled_kernel(q0.den).walk(q0.vec, 240, q0.vec, True) is not None


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_overflow_hands_off_to_pure(ctx, monkeypatch):
    # shrink the guard so each compiled walk overflows mid-orbit, then check
    # that the pure rerun, with and without a target, matches an all-pure
    # walk: period, signs, touch indices and touch values.  Every |v_j| on
    # the orbit of Q (denominator 1) is at most 15 and starts at 1; F(P1)
    # (denominator 5) starts at 6 and reaches 7 on its 7-cycle.
    monkeypatch.delenv("PWROT_PURE", raising=False)
    phi, s, _ = golden_elements(ctx)
    p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
    w1 = step((2 * phi - 3) * p0 + (2 - 2 * phi))
    q0 = -phi

    def walks():
        return [run_period(q0, 240, True), run_period(w1, 100, True), run_signs(q0, 241)]

    plan = stepper._plan(ctx)
    log = []
    with monkeypatch.context() as m:
        m.setattr(plan, "int64_threshold", lambda denom: 2 if denom == 1 else 6)
        log_walks(m, plan, log)
        mixed = walks()
    # each walk started compiled, gave up, and ran once more, pure, from its start
    assert log == rerun_log([q0, w1, q0])
    monkeypatch.setattr(stepper, "_compiled_enabled", lambda: False)
    pure = walks()
    for rec_mixed, rec_pure in zip(mixed[:2], pure[:2]):
        assert rec_mixed.period == rec_pure.period
        assert rec_mixed.signs == rec_pure.signs
        assert rec_mixed.iterates_on_line == rec_pure.iterates_on_line
        assert rec_mixed.nominees == rec_pure.nominees
        assert rec_mixed == rec_pure
    assert mixed[0].period is None and mixed[1].period == 7
    assert [i for i, _ in mixed[0].iterates_on_line][:3] == [0, 3, 10]
    signs, touches = mixed[2]
    assert signs == pure[2][0] and signs[:240] == mixed[0].signs
    assert [i for i, _ in touches] == [i for i, _ in pure[2][1]]
    assert [v for _, v in touches] == [v for _, v in pure[2][1]]


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_overflow_handoff_carries_the_nominees(monkeypatch):
    # a guard at the seed's own largest coefficient makes each compiled walk
    # give up once the orbit grows past it (the orbits of P0 and P1 never
    # do); the pure kernel then walks again from the seed, so the per-class
    # nominees, records and tiles do not change
    monkeypatch.delenv("PWROT_PURE", raising=False)
    seeds = tile_seeds()[2:]
    with monkeypatch.context() as m:
        m.setattr(stepper, "_compiled_enabled", lambda: False)
        pure = [(run_period(z, budget, True), tile_from_seed(z, budget)) for z, budget in seeds]
    for (z, budget), (rec, tile) in zip(seeds, pure):
        plan = stepper._plan(z.ctx)
        log = []
        with monkeypatch.context() as m:
            m.setattr(plan, "int64_threshold", lambda denom: max(map(abs, z.vec)))
            log_walks(m, plan, log)
            mixed = run_period(z, budget, True)
            assert tile_from_seed(z, budget) == tile
        assert log == rerun_log([z, z]), "each walk must start compiled and rerun pure"
        assert mixed.nominees == rec.nominees and any(mixed.nominees)
        assert mixed == rec


@pytest.fixture(scope="module")
def contract():
    """Seeds at 4/5, 11/12 and 3/7, each with its budget and the nominees
    its walk must return."""
    return [(z, budget, field_nominees(z, budget)) for z, budget in tile_seeds() + scan_seeds()]


@pytest.mark.parametrize("kernel", ["pure", "compiled", "handoff"])
def test_nominees_are_the_least_of_each_class(monkeypatch, contract, kernel):
    # one nominee per class, the least s_j Im(z_j) and the earliest on an
    # exact tie, whichever kernel walks; "handoff" starts compiled with a
    # guard at the seed's own largest coefficient, so the walks whose orbit
    # outgrows it run again in the pure kernel
    if kernel != "pure" and not stepper.HAVE_COMPILED:
        pytest.skip("compiled kernel not built")
    monkeypatch.delenv("PWROT_PURE", raising=False)
    monkeypatch.setattr(stepper, "_compiled_enabled", lambda: kernel != "pure")
    handoffs = []
    for z, budget, expected in contract:
        plan = stepper._plan(z.ctx)
        with monkeypatch.context() as m:
            if kernel == "handoff":
                real_pure = plan.pure_kernel
                m.setattr(plan, "int64_threshold", lambda denom: max(map(abs, z.vec)))
                m.setattr(plan, "pure_kernel", lambda denom: handoffs.append(z) or real_pure(denom))
            rec = run_period(z, budget, True)
        assert rec.period is not None and len(rec.nominees) == z.ctx.m
        assert as_field(z, rec.nominees) == expected
    assert (len(handoffs) > 0) == (kernel == "handoff")


@pytest.mark.parametrize("compiled", [False, True])
def test_forced_near_ties_are_settled_exactly(monkeypatch, compiled):
    # with a margin no float sum can clear, no float bounds an iterate: every
    # iterate off the line is compared with its class's nominee by exact
    # signs alone, and the nominees and tiles must not change.  At even q a
    # class holds iterates of both signs, and exact ties leave a zero
    # difference, which the exact zero test settles.
    if compiled and not stepper.HAVE_COMPILED:
        pytest.skip("compiled kernel not built")
    monkeypatch.delenv("PWROT_PURE", raising=False)
    seeds = tile_seeds() + scan_seeds()
    tiles = [tile_from_seed(z, budget) for z, budget in seeds]
    floated = [run_period(z, budget, True).nominees for z, budget in seeds]
    monkeypatch.setattr(stepper, "_compiled_enabled", lambda: compiled)
    for z, _ in seeds:
        monkeypatch.setattr(stepper._plan(z.ctx), "margin", float("inf"))
    for (z, budget), tile, before in zip(seeds, tiles, floated):
        assert run_period(z, budget, True).nominees == before
        forced = tile_from_seed(z, budget)
        assert forced == tile
        assert forced.polygon == streamed_polygon(tile)


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_origin_with_infinite_margin(ctx, monkeypatch):
    # an infinite margin times sum|v_j| = 0 is NaN at the origin: the float
    # must decide nothing there, so the zero test signs it 0, a touch
    plan = stepper._plan(ctx)
    monkeypatch.setattr(plan, "margin", float("inf"))
    z = ctx.zero()
    pure = plan.pure_kernel(z.den).walk(z.vec, 3, None, True)
    assert plan.compiled_kernel(z.den).walk(z.vec, 3, None, True) == pure
    assert list(pure[1]) == [0, 1, 1] and pure[2] == [(0, tuple(z.vec))]


def test_kernel_compiles_without_warnings(tmp_path):
    # the suite's build of the extension hides the compiler's output
    cc = shutil.which("cc")
    include = Path(sysconfig.get_paths()["include"])
    if cc is None or not (include / "Python.h").exists():
        pytest.skip("no C compiler or Python headers")
    source = Path(stepper.__file__).with_name("_stepkernel.c")
    # at -O2, so that the optimizer's warnings, such as -Wmaybe-uninitialized,
    # show too
    proc = subprocess.run(
        [cc, "-O2", "-c", "-o", str(tmp_path / "kernel.o"), "-Wall", "-Wextra", "-Werror",
         f"-I{include}", str(source)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_huge_denominator_uses_pure_path(ctx, monkeypatch):
    # a denominator past the int64 guard leaves no room for a compiled step,
    # so the walk is the pure kernel's
    monkeypatch.delenv("PWROT_PURE", raising=False)
    z = ctx.point(Fraction(1, 2 ** 61), Fraction(1, 3))
    assert stepper._plan(ctx).int64_threshold(z.den) == 0
    rec = minimal_period(z, 50)
    monkeypatch.setenv("PWROT_PURE", "1")
    assert rec == minimal_period(z, 50)


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
    assert (compiled[0], compiled[1]) == (rec, signs)
    assert len(compiled[2]) == 7 + sum(1 for x in signs[0] if x)

    def failing(plan, v):
        raise RuntimeError("oracle failed")

    monkeypatch.setattr(stepper._Plan, "hard_sign", failing)
    with pytest.raises(RuntimeError, match="oracle failed"):
        run_period(p1, 100)
    with pytest.raises(RuntimeError, match="oracle failed"):
        run_signs(-phi, 240)
