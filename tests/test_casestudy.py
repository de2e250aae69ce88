import random
from fractions import Fraction

import pytest

from pwrot.casestudy import (
    golden_context,
    golden_rescale,
    hexagon_case,
    hexagon_context,
    pentagon_center_periods,
    pentagon_centers,
    q_orbit_returns,
)
from pwrot.cyclo import Sign, make_field, sign_of_imag, sign_of_real
from pwrot.dynamics import minimal_period, step
from pwrot.errors import WrongContextError
from pwrot.geometry import Location, point_on_segment, polygon_contains

# Periods of the pentagon centers P_n = r^n(P0).  The published table reads
# 1338 for P4, a digit typo: the first exact return of P4 is at 1388, both
# through the stepper kernel (test_verified_period_table) and along the
# separate field-level path of test_p4_field_level_return, and
# F^1338(P4) != P4.  1388 also restores the table's own recurrence
# period(P_{n+1}) = 6*period(P_n) + 4*(-1)^n, which holds exactly for n = 1..8.
VERIFIED_PERIODS = [1, 7, 38, 232, 1388, 8332, 49988]
VERIFIED_PERIODS_LONG = [299932, 1799588, 10797532]

EXPECTED_RETURNS = [
    (0, (0, -1)),
    (3, (1, 1)),
    (10, (0, 1)),
    (15, (-2, 1)),
    (38, (-3, 1)),
    (48, (-3, 3)),
    (53, (-5, 3)),
    (78, (-7, 5)),
    (83, (-9, 5)),
    (93, (-9, 7)),
    (220, (-10, 7)),
]


@pytest.fixture(scope="module")
def gc():
    return golden_context()


class TestGoldenContext:
    def test_scale_is_inverse_phi_cubed(self, gc):
        assert gc.r_scale * gc.phi ** 3 == 1

    def test_p0_is_fixed(self, gc):
        assert step(gc.P0) == gc.P0

    def test_q_is_fixed_by_rescale(self, gc):
        assert golden_rescale(gc, gc.Q) == gc.Q

    def test_wrong_context_rejected(self, gc):
        other = make_field(11, 12)
        with pytest.raises(WrongContextError):
            golden_rescale(gc, other.one())

    def test_p1_is_seven_periodic(self, gc):
        p1 = golden_rescale(gc, gc.P0)
        assert minimal_period(p1, 10).period == 7

    def test_rescaled_s_stays_on_bottom_edge(self, gc):
        s1 = golden_rescale(gc, gc.S)
        assert s1.imag().is_zero()
        assert s1 == 1 - gc.phi
        # strictly between Q and S on the real axis
        assert sign_of_real(s1.real() - gc.Q.real()) == Sign.POSITIVE
        assert sign_of_real(gc.S.real() - s1.real()) == Sign.POSITIVE

    def test_triangle_maps_into_itself(self, gc):
        tri = gc.triangle()
        for v in (gc.Q, gc.R, gc.S):
            img = golden_rescale(gc, v)
            assert polygon_contains(tri, img) != Location.EXTERIOR

    def test_contraction_ratio_exact(self, gc):
        rng = random.Random(9)
        ratio2 = gc.r_scale * gc.r_scale
        for _ in range(10):
            z1 = gc.ctx.point(Fraction(rng.randint(-20, 20), 7), Fraction(rng.randint(-20, 20), 7))
            z2 = gc.ctx.point(Fraction(rng.randint(-20, 20), 7), Fraction(rng.randint(-20, 20), 7))
            lhs = (golden_rescale(gc, z1) - golden_rescale(gc, z2)).squared_abs()
            rhs = ratio2 * (z1 - z2).squared_abs()
            assert lhs == rhs


class TestPentagonCenters:
    def test_verified_period_table(self, gc):
        rows = pentagon_center_periods(gc, 6, 100000)
        assert [p for _, _, p in rows] == VERIFIED_PERIODS

    def test_p4_field_level_return(self, gc):
        # Separate from minimal_period and the stepper kernels: iterate the
        # field-level map (CycloNum arithmetic, sign_of_imag branch oracle).
        p4 = pentagon_centers(gc, 4)[4]
        w = p4
        for n in range(1, 2001):
            assert sign_of_imag(w) != Sign.ZERO
            w = step(w)
            if n == 1338:
                assert w != p4
            if w == p4:
                break
        assert n == 1388

    def test_centers_converge_toward_q(self, gc):
        pts = pentagon_centers(gc, 8)
        d_prev = None
        for p in pts:
            d = (p - gc.Q).squared_abs()
            if d_prev is not None:
                assert sign_of_real(d_prev - d) == Sign.POSITIVE
            d_prev = d

    def test_centers_stay_above_line(self, gc):
        for p in pentagon_centers(gc, 8):
            assert sign_of_real(p.imag()) == Sign.POSITIVE

    def test_budget_exhaustion_reported_per_row(self, gc):
        rows = pentagon_center_periods(gc, 4, 300)
        assert [p for _, _, p in rows] == [1, 7, 38, 232, None]

    @pytest.mark.long
    def test_long_period_table(self, gc):
        rows = pentagon_center_periods(gc, 9, 11_000_000)
        assert [p for _, _, p in rows] == VERIFIED_PERIODS + VERIFIED_PERIODS_LONG


class TestQReturns:
    def test_return_table(self, gc):
        rets = q_orbit_returns(gc, 220)
        assert [(idx, pair) for idx, _, pair in rets] == [
            (i, (Fraction(a), Fraction(b))) for i, (a, b) in EXPECTED_RETURNS
        ]

    def test_returns_have_integer_coordinates(self, gc):
        for _, _, pair in q_orbit_returns(gc, 220):
            assert pair is not None
            assert pair[0].denominator == 1 and pair[1].denominator == 1

    def test_short_run_prefix(self, gc):
        rets = q_orbit_returns(gc, 10)
        assert [idx for idx, _, _ in rets] == [0, 3, 10]
        assert rets[-1][1] == gc.phi


class TestHexagonCase:
    def test_all_checks_pass(self):
        report = hexagon_case()
        assert report.passed, report.failures()
        labels = [label for label, _, _ in report.checks]
        assert "center is 20-periodic" in labels
        assert "no open image meets the line" in labels

    def test_known_vertices(self):
        hc = hexagon_context()
        # corner (2, 0) and the height-1/2 vertex pin the published data
        assert hc.ctx.point(2, 0) in hc.hexagon.vertices
        half = Fraction(1, 2)
        tall = [v for v in hc.hexagon.vertices if v.imag() == hc.ctx.from_rational(half)]
        assert len(tall) == 1

    def test_center_inside(self):
        hc = hexagon_context()
        assert polygon_contains(hc.hexagon, hc.center) == Location.INTERIOR


class TestRenormalizationIncidence:
    def test_curated_segments_land_on_deeper_layers(self, gc):
        # exact incidence of rescaled critical segments, curated to endpoints
        # whose images provably return to the line (the rescaling does NOT
        # preserve the critical set pointwise; see the 30-periodic images)
        from pwrot.critical import critical_bundle
        from pwrot.geometry import Box
        from pwrot.stepper import run_signs

        tri = gc.triangle()
        src = critical_bundle(gc.ctx, 10, Box(-2, Fraction(-1, 2), 3, 7))
        inside = [
            s
            for s in src.all_segments()
            if s.depth > 0
            and polygon_contains(tri, s.a) != Location.EXTERIOR
            and polygon_contains(tri, s.b) != Location.EXTERIOR
        ]
        assert len(inside) >= 15

        def hit_depth(z, limit=80):
            _, zero_idx, _ = run_signs(z, limit, stop_on_zero=True)
            return zero_idx

        curated = []
        max_hit = 0
        for seg in inside:
            ha = hit_depth(golden_rescale(gc, seg.a))
            hb = hit_depth(golden_rescale(gc, seg.b))
            if ha is not None and hb is not None:
                curated.append(seg)
                max_hit = max(max_hit, ha, hb)
        assert len(curated) >= 10
        deep = critical_bundle(
            gc.ctx, max(32, max_hit), Box(-2, Fraction(-7, 10), 0, Fraction(9, 5))
        )
        dsegs = deep.all_segments()
        for seg in curated:
            for endpoint in (seg.a, seg.b):
                img = golden_rescale(gc, endpoint)
                assert any(point_on_segment(s, img) for s in dsegs)

    def test_rescaling_can_leave_the_critical_set(self, gc):
        # counterexample kept as a regression anchor: this exact critical
        # point has a 30-periodic, never-touching image
        from pwrot.critical import critical_bundle
        from pwrot.geometry import Box

        src = critical_bundle(gc.ctx, 8, Box(-2, Fraction(-1, 2), 3, 7))
        tri = gc.triangle()
        found = None
        for seg in src.all_segments():
            for endpoint in (seg.a, seg.b):
                if polygon_contains(tri, endpoint) == Location.EXTERIOR:
                    continue
                img = golden_rescale(gc, endpoint)
                rec = minimal_period(img, 50)
                if rec.period == 30 and not rec.iterates_on_line:
                    found = endpoint
                    break
            if found is not None:
                break
        assert found is not None
