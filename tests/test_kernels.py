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
from pwrot.geometry import Box, intersect_halfplanes
from pwrot.stepper import run_period, run_signs
from pwrot.tiles import interior_samples, scan_region, tile_from_seed

from affine import pulled_back


@pytest.fixture(scope="module")
def ctx():
    return make_field(4, 5)


def test_decompose_round_trip(ctx):
    z = ctx.point(Fraction(3, 10), Fraction(-7, 6))
    v, denom = z.vec, z.den
    assert denom == 30
    assert ctx.num([Fraction(x, denom) for x in v]) == z


def test_pure_kernel_matches_field_arithmetic(ctx):
    # the co-rotating walk must land on the CycloNum orbit, value for value:
    # a walk given iterate n as its target first lands on it at step n
    plan = stepper._plan(ctx)
    z = ctx.point(Fraction(3, 10), Fraction(-7, 6))
    v, denom = z.vec, z.den
    kern = plan.pure_kernel(denom)
    values = orbit(z, 25)
    assert len(set(values)) == len(values)
    for n, val in enumerate(values[1:], 1):
        assert denom % val.den == 0
        target = [x * (denom // val.den) for x in val.vec]
        status, signs, _, _ = kern.walk(v, 30, target)
        assert (status, len(signs)) == (stepper.STATUS_OK, n)


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
    ctx, word, n = tile.ctx, tile.word, tile.period
    return intersect_halfplanes(
        pulled_back(ctx, j, b, word[j % tile.ell])
        for j, b in enumerate(branch_offsets(ctx, word, n - 1))
    )[0]


def force_exact(m, ctx):
    """Within the monkeypatch context m, leave every sign of ctx's walks to
    the exact zero test or hard_sign, whichever kernel walks: no float sum
    clears an infinite margin, and no certificate on zero integer rows
    clears its error sum|W_j|."""
    plan = stepper._plan(ctx)
    m.setattr(plan, "margin", float("inf"))
    m.setattr(plan, "rows", tuple((0,) * ctx.d for _ in plan.rows))


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
class TestCompiledAgreesWithPure:
    """Every output of a walk agrees: status, signs, touches, and the
    per-class nominees when it selects them."""

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
        phi, s = golden_elements(ctx)
        p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
        self._compare(ctx, p0, 10)

    def test_seven_cycle(self, ctx):
        phi, s = golden_elements(ctx)
        p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
        p1 = (2 * phi - 3) * p0 + (2 - 2 * phi)
        self._compare(ctx, p1, 100)

    def test_line_walker(self, ctx):
        phi, _ = golden_elements(ctx)
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
            comp = plan.compiled_kernel(z.den).walk(z.vec, budget, z.vec, True)
            assert pure == comp
            assert any(pure[3]) and len(pure[3]) == z.ctx.m


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


def f_p1(ctx):
    """F(P1), on the 7-cycle of P1 (denominator 5): every |v_j| on its orbit
    is at most 7, but W_1 = lambda^-1 v_1 has an entry 9."""
    phi, s = golden_elements(ctx)
    p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
    return step((2 * phi - 3) * p0 + (2 - 2 * phi))


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_walk_past_its_threshold_returns_none(ctx, monkeypatch):
    # every |W_j| on the orbit of Q (denominator 1) is at most 13 and starts
    # at 1: a threshold of 0 has the walk start past it, one of 2 has it
    # cross mid-walk; either way the walk returns None, found or not.  The
    # guard is on W: at a threshold of 8, the walk of F(P1) gives up,
    # though none of its iterates v_n has an entry past 7
    plan = stepper._plan(ctx)
    q0, w1 = -golden_elements(ctx)[0], f_p1(ctx)
    for z, thresh in ((q0, 0), (q0, 2), (w1, 8)):
        monkeypatch.setattr(plan, "int64_threshold", lambda denom: thresh)
        kern = plan.compiled_kernel(z.den)
        for target in (None, z.vec):
            for select in (False, True):
                assert kern.walk(z.vec, 240, target, select) is None
    monkeypatch.setattr(plan, "int64_threshold", lambda denom: 9)
    assert plan.compiled_kernel(w1.den).walk(w1.vec, 240, w1.vec, True) is not None
    monkeypatch.undo()
    assert plan.compiled_kernel(q0.den).walk(q0.vec, 240, q0.vec, True) is not None


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_overflow_hands_off_to_pure(ctx, monkeypatch):
    # shrink the guard so each compiled walk overflows mid-orbit, then check
    # that the pure rerun, with and without a target, matches an all-pure
    # walk: period, signs, touch indices and touch values.  Every |W_j| on
    # the orbit of Q (denominator 1) is at most 13 and starts at 1; on the
    # 7-cycle of F(P1) (denominator 5) W passes 8 while v stays within 7.
    monkeypatch.delenv("PWROT_PURE", raising=False)
    w1, q0 = f_p1(ctx), -golden_elements(ctx)[0]

    def walks():
        return [run_period(q0, 240, True), run_period(w1, 100, True), run_signs(q0, 241)]

    plan = stepper._plan(ctx)
    log = []
    with monkeypatch.context() as m:
        m.setattr(plan, "int64_threshold", lambda denom: 2 if denom == 1 else 8)
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
    # with every sign left to the exact tests (force_exact), nothing bounds
    # an iterate: every iterate off the line is compared with its class's
    # nominee by exact signs alone, and the nominees and tiles must not
    # change.  At even q a class holds iterates of both signs, and exact ties
    # leave a zero difference, which the exact zero test settles.
    if compiled and not stepper.HAVE_COMPILED:
        pytest.skip("compiled kernel not built")
    monkeypatch.delenv("PWROT_PURE", raising=False)
    seeds = tile_seeds() + scan_seeds()
    tiles = [tile_from_seed(z, budget) for z, budget in seeds]
    floated = [run_period(z, budget, True).nominees for z, budget in seeds]
    monkeypatch.setattr(stepper, "_compiled_enabled", lambda: compiled)
    for c in {z.ctx for z, _ in seeds}:
        force_exact(monkeypatch, c)
    for (z, budget), tile, before in zip(seeds, tiles, floated):
        assert run_period(z, budget, True).nominees == before
        forced = tile_from_seed(z, budget)
        assert forced == tile
        assert forced.polygon == streamed_polygon(tile)


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_origin_with_infinite_margin(ctx, monkeypatch):
    # an infinite margin times sum|v_j| = 0 is NaN at the origin: the float
    # must decide nothing there, so the zero test signs it 0, a touch; with
    # the shipped margin the float sum 0 does not clear the allowance 0, nor
    # the certificate's sum 0 its error 0, forced or not
    plan = stepper._plan(ctx)
    z = ctx.zero()
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                force_exact(m, ctx)
            pure = plan.pure_kernel(z.den).walk(z.vec, 3, None, True)
            assert plan.compiled_kernel(z.den).walk(z.vec, 3, None, True) == pure
        assert list(pure[1]) == [0, 1, 1] and pure[2] == [(0, tuple(z.vec))]


@pytest.mark.parametrize("compiled", [False, True])
def test_q_exact_zeros_are_touches(ctx, monkeypatch, compiled):
    # iterates 8,115 and 16,125 of Q lie on the line where sum|W_j| is 359
    # and 919, so a sine row off by more than its bound moves the float sum
    # of W past the allowance: rows from math.sin of unreduced angles sign
    # both +1, and math.sin rows with no allowance -1, instead of sending
    # them to the exact zero test
    if compiled and not stepper.HAVE_COMPILED:
        pytest.skip("compiled kernel not built")
    monkeypatch.delenv("PWROT_PURE", raising=False)
    monkeypatch.setattr(stepper, "_compiled_enabled", lambda: compiled)
    signs, touches = run_signs(-golden_elements(ctx)[0], 16_126)
    on_line = dict(touches)
    for i in (8115, 16125):
        assert signs[i] == 0 and sign_of_imag(on_line[i]) == Sign.ZERO


def fallback_seeds():
    """P0..P6, and two points each of 11/12 and 3/7, with budgets past their
    periods."""
    centers = [(z, 60_000) for z in pentagon_centers(golden_context(), 6)]
    others = [
        (make_field(p, q).point(x, y), 1000)
        for p, q in ((11, 12), (3, 7))
        for x, y in ((Fraction(1, 3), Fraction(1, 5)), (Fraction(3, 4), Fraction(-1, 4)))
    ]
    return centers + others


@pytest.mark.parametrize("compiled", [False, True])
def test_fallback_at_every_step_changes_nothing(ctx, monkeypatch, compiled):
    # with every sign left to the exact tests (force_exact), every iterate
    # takes the fallback: v_n = zeta^e W_n is built and signed by the exact
    # zero test or hard_sign.  Signs, touches, periods and nominees must not
    # change on Q's walk past its touch at 16,125 and on the walks of
    # fallback_seeds
    if compiled and not stepper.HAVE_COMPILED:
        pytest.skip("compiled kernel not built")
    monkeypatch.delenv("PWROT_PURE", raising=False)
    monkeypatch.setattr(stepper, "_compiled_enabled", lambda: compiled)
    q0, seeds = -golden_elements(ctx)[0], fallback_seeds()

    def walks():
        return run_signs(q0, 16_126), [run_period(z, budget, True) for z, budget in seeds]

    before = walks()
    hard_sign = stepper._Plan.hard_sign
    calls = []
    monkeypatch.setattr(stepper._Plan, "hard_sign",
                        lambda plan, v: calls.append(v) or hard_sign(plan, v))
    for c in {z.ctx for z, _ in seeds}:
        force_exact(monkeypatch, c)
    q_signs = run_signs(q0, 16_126)
    # each nonzero sign of Q's walk went to the oracle, each zero to the zero test
    assert len(calls) == sum(1 for x in q_signs[0] if x)
    assert (q_signs, [run_period(z, budget, True) for z, budget in seeds]) == before
    assert [r.period for r in before[1]] == [1, 7, 38, 232, 1388, 8332, 49988, 12, 60, 14, 581]


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


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_start_past_the_threshold_is_walked_again_pure(ctx, monkeypatch):
    # the compiled kernel refuses a start one past its threshold, or past
    # int64, by returning None, and the pure kernel walks it from the start
    monkeypatch.delenv("PWROT_PURE", raising=False)
    plan = stepper._plan(ctx)
    starts = [ctx.point(plan.int64_threshold(1) + 1, 0), ctx.point(2 ** 70, 1)]
    assert max(map(abs, starts[0].vec)) == plan.int64_threshold(1) + 1
    with monkeypatch.context() as m:
        m.setattr(stepper, "_compiled_enabled", lambda: False)
        pure = [run_period(z, 50, True) for z in starts]
    log = []
    with monkeypatch.context() as m:
        log_walks(m, plan, log)
        assert [run_period(z, 50, True) for z in starts] == pure
    assert log == rerun_log(starts)


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_coefficients_at_the_guard_stay_exact():
    # a start 1,000 below the threshold stays within it for 200 steps (each
    # adds at most 1 to an entry), while the nominees' v_n = zeta^e W_n,
    # their differences and the conjugates of the zero test reach up to
    # rowsum (36 at 2/15) times that: the compiled walk must not wrap, so it
    # equals the pure walk.  With rowsum 1 this start wraps.
    c = make_field(2, 15)
    plan = stepper._plan(c)
    big = plan.int64_threshold(1) - 1000
    assert big > 2 ** 56
    pattern = (-1, 1, -1, 0, -1, 0, 0, 0, 1, 0, -1, -1, 0, -1, 0, 0)
    start = [x * big for x in pattern]
    pure = plan.pure_kernel(1).walk(start, 200, start, True)
    assert plan.compiled_kernel(1).walk(start, 200, start, True) == pure
    assert any(pure[3])


def test_env_override_forces_pure(ctx, monkeypatch):
    monkeypatch.setenv("PWROT_PURE", "1")
    assert stepper.active_impl() == "pure"
    phi, s = golden_elements(ctx)
    p0 = ctx.from_rational(Fraction(1, 2)) + ctx.i_unit * ((phi + 2) * s / 10)
    assert minimal_period(p0, 5).period == 1


def test_forced_hard_sign_matches_fast_path(ctx, monkeypatch):
    # zero integer rows, on which no certificate clears its error, send every
    # nonzero branch sign of the pure kernel to the exact oracle in
    # _Plan.hard_sign; the walks must not change
    phi, s = golden_elements(ctx)
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

    force_exact(monkeypatch, ctx)
    monkeypatch.setattr(stepper._Plan, "hard_sign", counted)
    monkeypatch.setattr(stepper, "_compiled_enabled", lambda: False)
    assert run_period(p1, 100) == rec
    assert len(calls) == 7
    assert run_signs(-phi, 241) == signs
    assert len(calls) == 7 + sum(1 for x in signs[0] if x)


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_forced_hard_sign_matches_pure(ctx, monkeypatch):
    # the compiled twin of test_forced_hard_sign_matches_fast_path: with an
    # infinite margin every nonzero branch sign crosses from C into
    # _Plan.hard_sign, with the same oracle calls and results as the pure
    # kernel on zero rows, and oracle errors propagate; PWROT_PURE=1 in the
    # environment would switch the compiled walk off
    monkeypatch.delenv("PWROT_PURE", raising=False)
    phi, s = golden_elements(ctx)
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

    force_exact(monkeypatch, ctx)
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


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_near_line_walks_check_the_float_allowance(ctx, monkeypatch):
    # Q + i/2^45 at 4/5 and 2 + i/2^45 at 3/7 start 2^-45 off the line and
    # come as near it again, where a float sum of W cannot clear the compiled
    # kernel's allowance and hard_sign decides (2,150 and 288 times), while
    # the pure kernel's 64-bit certificate decides every sign itself: the two
    # walks check the allowance against a certificate that shares none of it
    hard_sign = stepper._Plan.hard_sign
    calls = []
    monkeypatch.setattr(stepper._Plan, "hard_sign",
                        lambda plan, v: calls.append(v) or hard_sign(plan, v))
    eps = Fraction(1, 2 ** 45)
    for z in (-golden_elements(ctx)[0] + ctx.i_unit * eps, make_field(3, 7).point(2, eps)):
        plan = stepper._plan(z.ctx)
        pure = plan.pure_kernel(z.den).walk(z.vec, 16_126, None, True)
        assert calls == []
        compiled = plan.compiled_kernel(z.den).walk(z.vec, 16_126, None, True)
        assert len(calls) > 0, "the compiled walk must need hard_sign"
        assert compiled == pure
        calls.clear()


@pytest.mark.skipif(not stepper.HAVE_COMPILED, reason="compiled kernel not built")
def test_forced_kernels_call_the_oracle_alike(monkeypatch):
    # forced (force_exact), each kernel sends the same branch signs and
    # nominee differences to hard_sign, in the same order, and its
    # nominating walks of the tile seeds are those of the unforced walks
    monkeypatch.delenv("PWROT_PURE", raising=False)
    seeds = tile_seeds()
    before = [run_period(z, budget, True) for z, budget in seeds]
    hard_sign = stepper._Plan.hard_sign
    calls = []
    monkeypatch.setattr(stepper._Plan, "hard_sign",
                        lambda plan, v: calls.append(v) or hard_sign(plan, v))
    for c in {z.ctx for z, _ in seeds}:
        force_exact(monkeypatch, c)
    logs = []
    for compiled in (False, True):
        monkeypatch.setattr(stepper, "_compiled_enabled", lambda compiled=compiled: compiled)
        calls.clear()
        assert [run_period(z, budget, True) for z, budget in seeds] == before
        logs.append(list(calls))
    assert logs[0] == logs[1]
    assert len(logs[0]) > sum(rec.period for rec in before)
