import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq

from sosci import (
    CPlusCurve,
    abs_max_interval,
    b_region_probability,
    c_plus,
    cplus_curve,
    larger_of_two_interval,
    run_coverage,
    sidak_halfwidth,
)
from sosci.dist import (
    CovarianceModel,
    sample_mvn,
    std_normal_cdf,
    student_t_family,
)
from sosci import bivariate
from sosci.mc import Scenario
from sosci.sos import OptimizationError

from _oracles import b_region_quad, estimate_b_probability, larger_of_two_miss_quad

Z975 = 1.959963985
SIDAK2 = 2.236476645  # oracle: bisection solve of (1-(1-0.05)^(1/2))/2 tail


@pytest.fixture(scope="module")
def small_curve():
    return CPlusCurve.build(0.05, a_max=3.0, step=0.05)


def test_larger_of_two_frozen_example():
    ci = larger_of_two_interval([2.9, 2.5], 0.05)
    assert ci.index == 0
    assert ci.method == "larger_of_two"
    assert ci.lo == pytest.approx(0.940036015, abs=1e-8)
    assert ci.hi == pytest.approx(4.859963985, abs=1e-8)


def test_larger_of_two_ties_and_negative():
    ci = larger_of_two_interval([-0.5, -2.0], 0.05)
    assert ci.index == 0
    assert ci.lo == pytest.approx(-0.5 - Z975, abs=1e-8)


def test_larger_of_two_width_is_unadjusted():
    for alpha in (0.01, 0.05, 0.2):
        ci = larger_of_two_interval([1.0, 0.0], alpha)
        # the selected-coordinate interval uses the plain two-sided constant
        assert ci.length == pytest.approx(
            2 * sidak_halfwidth(1, alpha), abs=1e-12)


def test_larger_of_two_misses_exactly_alpha_at_every_gap():
    # the paper's k = 1, m = 2 remark: at theta = (g, 0) the miss is
    # integral_{|t| > z} phi(t) [Phi(t + g) + Phi(t - g)] dt, and t -> -t
    # turns the bracket into 2 minus itself, so the miss is alpha at every g
    for alpha in (0.01, 0.05, 0.2):
        for g in np.linspace(0.0, 12.0, 49):
            half = 0.5 * larger_of_two_interval([g, 0.0], alpha).length
            assert larger_of_two_miss_quad(g, half) == pytest.approx(alpha, abs=1e-12, rel=0.0)


def test_larger_of_two_t_family():
    t5 = student_t_family(5)
    ci = larger_of_two_interval([2.9, 2.5], 0.05, family=t5)
    assert ci.hi - 2.9 == pytest.approx(2.570581836, abs=1e-6)


def test_larger_of_two_errors():
    with pytest.raises(ValueError):
        larger_of_two_interval([1.0], 0.05)
    with pytest.raises(ValueError):
        larger_of_two_interval([1.0, 2.0], 1.5)


def test_gauss_legendre_literals_are_scipys_rule():
    x, w = special.roots_legendre(28)
    assert bivariate._GL_X.tobytes() == x.tobytes()
    assert bivariate._GL_W.tobytes() == w.tobytes()


def test_quadrature_rule_is_converged(monkeypatch):
    # the shipped rule against a 96-node one: the miss probability over means
    # up to 100 and c up to 40, and c_plus on 161 knots at eight alphas.  A
    # 24-node rule misses the c_plus bound at alpha = 0.99 (1.2e-11), where c
    # is small, and a 20-node one misses all three bounds; 28 and 48 nodes
    # pass, at 3.7e-13 and 1.1e-12 on c_plus
    alphas = (1e-13, 1e-6, 0.01, 0.05, 0.2, 0.5, 0.9, 0.99)
    knots = np.linspace(0.0, 8.0, 161)
    mu_0, mu_1, c = (np.ravel(v) for v in np.meshgrid(
        [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0, 100.0],
        [-100.0, -8.0, -1.0, 0.0, 1.0, 3.0, 10.0, 100.0],
        [0.01, 0.3, 1.0, 2.0, 3.0, 5.0, 8.0, 15.0, 25.0, 40.0]))

    def evaluate():
        return (np.array([bivariate._calibrate(knots, alpha) for alpha in alphas]),
                bivariate._miss_probability(mu_0, mu_1, c, False)[0])

    shipped_c, shipped_miss = evaluate()
    # the shipped rule also matches adaptive quadrature at means up to 100,
    # at c_plus for a = 0, 2 and 8
    for c_row in shipped_c[:, [0, 40, 160]]:
        for level in c_row:
            for mu in ((0.0, 0.0), (1.5, 0.0), (3.0, -2.5), (8.0, 0.0), (20.0, 19.5),
                       (50.0, -49.0), (100.0, 0.0), (100.0, 99.0), (100.0, -100.0)):
                assert b_region_probability(mu, level) == pytest.approx(
                    b_region_quad(mu, level), abs=1e-12, rel=0.0)
    x, w = special.roots_legendre(96)
    monkeypatch.setattr(bivariate, "_GL_X", x)
    monkeypatch.setattr(bivariate, "_GL_W", w)
    reference_c, reference_miss = evaluate()
    np.testing.assert_allclose(shipped_c, reference_c, rtol=4e-12, atol=0.0)
    keep = reference_miss > 1e-30
    assert keep.mean() > 0.5
    np.testing.assert_allclose(shipped_miss[keep], reference_miss[keep], rtol=1e-12, atol=0.0)


def test_miss_slopes_bits_are_pinned():
    # the rule with its mean slopes, as the endpoint solves call it, over
    # means on both sides of the kink and c from 0.5 to 30 (375 elements,
    # more than one _CHUNK): every value keeps the bits it had when pinned
    mu_0, mu_1, c = (np.ravel(v) for v in np.meshgrid(
        np.linspace(-3.0, 9.0, 25), [-1.5, 0.0, 2.5], [0.5, 1.96, 2.24, 4.0, 30.0]))
    out = bivariate._miss_probability(mu_0, mu_1, c, True)
    assert out.shape == (3, 375)
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "b0f3f221bcbd897ea69610aa6c4d3a519e7385ac8d24eb7d073e2a221e98b795")


def test_b_region_zero_mean_factorizes():
    # oracle: at mu = (0, 0) the region probability is (2*Phi(c) - 1)^2
    assert b_region_probability((0.0, 0.0), SIDAK2) == pytest.approx(0.95, abs=1e-4)
    rng = np.random.default_rng(4)
    for c in rng.uniform(0.3, 3.5, 10):
        expected = (2 * std_normal_cdf(c) - 1.0) ** 2
        assert b_region_probability((0.0, 0.0), c) == pytest.approx(
            expected, abs=1e-9)


def test_b_region_distant_second_coordinate_is_univariate():
    # oracle: with mu = (8, 0) the event degenerates to |W - 8| <= c
    assert b_region_probability((8.0, 0.0), Z975) == pytest.approx(0.95, abs=1e-3)


def test_b_region_symmetries():
    for mu in ((1.3, 0.4), (2.0, -1.0), (0.3, 0.0)):
        p = b_region_probability(mu, 2.1)
        assert b_region_probability((mu[1], mu[0]), 2.1) == pytest.approx(p, abs=1e-9)
        assert b_region_probability((-mu[0], -mu[1]), 2.1) == pytest.approx(
            p, abs=1e-9)


def test_b_region_edge_cases():
    assert b_region_probability((1.0, 2.0), 0.0) == 0.0
    assert 0.0 <= b_region_probability((0.0, 0.0), 1e-8) <= 1e-6
    with pytest.raises(ValueError):
        b_region_probability((1.0, 2.0), -0.3)
    with pytest.raises(ValueError, match="mu"):
        b_region_probability((np.inf, 0.0), 1.0)
    with pytest.raises(ValueError, match="mu"):
        b_region_probability((np.nan, 0.0), 1.0)
    with pytest.raises(ValueError, match="c must"):
        b_region_probability((1.0, 2.0), np.nan)
    with pytest.raises(ValueError, match="c must"):
        b_region_probability((0, 0), 10**400)  # finite but no float
    assert b_region_probability((1.0, 2.0), np.inf) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu", [(1e160, 0.0), (0.0, 1e160), (1e308, -1e308),
                                (1e160, 1e160), (-1e300, 1e300)])
def test_b_region_at_huge_means(mu):
    # the selected coordinate tracks its own mean, alone or (equal |mu|) as
    # the larger of two, so the probability is the unadjusted coverage;
    # RuntimeWarnings are errors in this suite, so an overflow would fail here
    assert b_region_probability(mu, 2.0) == pytest.approx(2.0 * std_normal_cdf(2.0) - 1.0,
                                                          abs=1e-14)


def _oracle_grid():
    # the |t + mu_0| kink at, just inside and just outside both ends of
    # [-c, c], plus means up to 10 and c up to 40, where the tails underflow
    for c in (1e-3, 0.3, 1.0, 1.96, 2.5, 5.0, 9.0, 12.0, 40.0):
        near = [s * c + e for s in (-1.0, 1.0) for e in (-1e-7, 0.0, 1e-7)]
        for mu_0 in near + [-10.0, -3.3, 0.0, 0.7, 3.3, 10.0]:
            if abs(mu_0) <= 10.0:
                for mu_1 in (-10.0, -2.0, 0.0, 0.4, 2.0, 10.0):
                    yield (mu_0, mu_1), c


def test_b_region_matches_quadrature_oracle():
    worst = max(abs(b_region_probability(mu, c) - b_region_quad(mu, c))
                for mu, c in _oracle_grid())
    assert worst <= 1e-12
    for mu in ((0.0, 0.0), (10.0, -10.0), (-3.0, 0.5)):
        assert b_region_probability(mu, np.inf) == pytest.approx(1.0, abs=1e-12)


def test_miss_slopes_match_finite_differences():
    # the Newton solver's slopes of the miss probability at mean (a, 0): the
    # c slope from the tail edges, the a slope from the rule's nodes.  No
    # grid point has |a| = c, where the slopes are continuous but the
    # second derivatives jump, so a central difference is only O(h) there
    h = 1e-5

    def miss(a, c):
        return bivariate._miss_probability(np.array([a]), np.zeros(1), np.array([c]))[:, 0]

    for a in (-3.0, -1.0, 0.0, 0.3, 1.0, 2.2, 5.0, 9.0):
        for c in (0.05, 0.5, 1.5, 2.5, 4.0, 7.0):
            p, slope_a, slope_c = miss(a, c)
            assert p == pytest.approx(1.0 - b_region_probability((a, 0.0), c), abs=1e-15)
            fd_a = (miss(a + h, c)[0] - miss(a - h, c)[0]) / (2 * h)
            fd_c = (miss(a, c + h)[0] - miss(a, c - h)[0]) / (2 * h)
            assert abs(slope_a - fd_a) <= 1e-7, (a, c)
            assert abs(slope_c - fd_c) <= 1e-7, (a, c)


def test_b_region_monotone_in_c():
    grid = np.arange(0.2, 3.2, 0.2)
    probs = [b_region_probability((1.0, 0.5), c) for c in grid]
    assert all(a < b for a, b in zip(probs, probs[1:]))


def test_b_region_against_monte_carlo():
    rng = np.random.default_rng(8)
    reps = 10**6
    for _ in range(6):
        mu = tuple(rng.uniform(-3.0, 3.0, 2))
        c = float(rng.uniform(1.5, 2.5))
        p = b_region_probability(mu, c)
        p_hat = estimate_b_probability(mu, c, reps, seed=int(rng.integers(1 << 30)))
        se = np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / reps)
        assert abs(p - p_hat) <= 4 * se + 1e-6


@pytest.mark.parametrize("a,expected", [
    # oracle: bisection on the quadrature probability at each pinned shift
    (0.0, 2.236476645),
    (1.0, 2.214445327),
    (3.0, 1.964902008),
])
def test_c_plus_frozen(a, expected):
    assert c_plus(a, 0.05) == pytest.approx(expected, abs=1e-6)


def test_c_plus_limits_and_monotone():
    values = [c_plus(a, 0.05) for a in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(SIDAK2, abs=1e-6)
    assert values[-1] == pytest.approx(Z975, abs=1e-4)
    assert all(Z975 - 1e-6 <= v <= SIDAK2 + 1e-6 for v in values)


def test_c_plus_domain():
    for a in (-1.0, np.nan, np.inf, 10**400):  # the last is finite but no float
        with pytest.raises(ValueError, match="a must"):
            c_plus(a, 0.05)
    with pytest.raises(ValueError):
        c_plus(0.0, 0.0)


@pytest.mark.parametrize("alpha", [1e-4, 1e-8, 1e-10, 1e-13])
def test_c_plus_exact_at_small_alpha(alpha):
    # both limits in closed form, with the tail levels formed without
    # cancellation: at a = 0 the region probability is (2 Phi(c) - 1)^2, so
    # the tail is (1 - sqrt(1 - alpha)) / 2; at a = 12 the second coordinate
    # is never selected, so c_plus is the unadjusted constant
    sidak_tail = 0.5 * alpha / (1.0 + math.sqrt(1.0 - alpha))
    assert c_plus(0.0, alpha) == pytest.approx(-special.ndtri(sidak_tail), abs=1e-9)
    assert c_plus(12.0, alpha) == pytest.approx(-special.ndtri(0.5 * alpha), abs=1e-9)


@pytest.mark.parametrize("alpha", [1e-16, 1e-17, 1e-30])
def test_c_plus_exact_where_one_minus_alpha_rounds(alpha):
    # the Sidak start is the quantile at level p, not at 1 - p, which rounds to 1 here
    exact = -special.ndtri(-math.expm1(math.log1p(-alpha) / 2.0) / 2.0)
    assert c_plus(0.0, alpha) == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha", [1e-13, 0.05, 0.999])
def test_c_plus_flat_at_huge_a(alpha):
    # the solve holds a at _A_FLAT beyond it: a genuine solve at 20 or 50
    # already has the same bits, and a huge a must not overflow the rule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = c_plus(bivariate._A_FLAT, alpha)
        for a in (20.0, 50.0, 1e3, 1e150, 1e300):
            assert c_plus(a, alpha) == flat, a


@pytest.mark.parametrize("alpha", [1e-13, 1e-6, 0.05, 0.9, 0.999])
def test_c_plus_matches_bracketed_root(alpha):
    # reference: a bracketed root of the same tail-integrated miss
    # probability, solved far tighter than the Newton step tolerance
    z = sidak_halfwidth(1, alpha)
    s = sidak_halfwidth(2, alpha)
    for a in (0.0, 0.7, 2.2, 5.0, 12.0):
        def excess(c):
            return bivariate._miss_probability(np.array([a]), np.zeros(1), np.array([c]))[0, 0] - alpha

        root = brentq(excess, max(z - 0.05, 1e-6), s + 0.05, xtol=1e-14)
        assert c_plus(a, alpha) == pytest.approx(root, abs=1e-11), a


@pytest.mark.parametrize("alpha", [0.97, 0.98, 0.999])
@pytest.mark.parametrize("a", [0.0, 0.5, 3.0])
def test_c_plus_large_alpha(a, alpha):
    # the unadjusted constant minus the bracket margin is negative here
    c = c_plus(a, alpha)
    assert c > 0.0
    assert b_region_probability((a, 0.0), c) == pytest.approx(1.0 - alpha, abs=1e-8)
    if a == 0.0:  # (2 Phi(c) - 1)^2 = 1 - alpha
        assert c == pytest.approx(sidak_halfwidth(2, alpha), abs=1e-8)


@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.2, 0.9, 0.999])
def test_c_plus_between_limits(alpha):
    # the Newton solves of c_plus, and of both abs-max endpoints without a
    # curve, start at the Sidak end s of the range z <= c_plus(a) <= s
    z = sidak_halfwidth(1, alpha)
    s = sidak_halfwidth(2, alpha)
    for a in np.arange(0.0, 12.01, 0.25):
        assert z - 1e-9 <= c_plus(float(a), alpha) <= s + 1e-9, a


@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.2, 0.9, 0.999])
def test_cplus_curve_slope_exceeds_minus_one(alpha):
    # a + c(|a|) and a - c(|a|) are then increasing, so each abs-max endpoint
    # is the one root in its bracket
    curve = cplus_curve(alpha)
    assert np.min(np.diff(curve.grid_c) / curve.step) > -1.0


def test_curve_build(small_curve):
    assert small_curve.alpha == 0.05
    assert small_curve.grid_a[0] == 0.0
    assert small_curve.grid_a[-1] == pytest.approx(3.0)
    assert small_curve.grid_a.shape == small_curve.grid_c.shape == (61,)
    assert np.all(np.diff(small_curve.grid_c) <= 1e-9)
    assert small_curve.grid_c[0] == pytest.approx(SIDAK2, abs=1e-6)


def test_curve_matches_pointwise_solver(small_curve):
    for i in (10, 35, 48):  # knots a = 0.5, 1.75, 2.4
        a = float(small_curve.grid_a[i])
        assert small_curve.grid_c[i] == c_plus(a, 0.05)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.9])
def test_curve_equals_c_plus_at_every_knot(alpha):
    # the batched build freezes each knot once it converges, so it is the
    # scalar solve bit for bit
    curve = CPlusCurve.build(alpha)
    pointwise = [c_plus(float(a), alpha) for a in curve.grid_a]
    assert curve.grid_c.tolist() == pointwise


def test_calibration_forms_its_start_once_per_call(monkeypatch):
    # the Sidak start of every Newton solve comes from one quantile call per
    # public call, not one per knot or per endpoint
    calls = []

    def counted(m, alpha):
        calls.append((m, alpha))
        return sidak_halfwidth(m, alpha)

    monkeypatch.setattr(bivariate, "sidak_halfwidth", counted)
    CPlusCurve.build(0.05, a_max=2.0, step=0.1)
    c_plus(1.0, 0.05)
    abs_max_interval([1.0, 0.0], 0.05)
    assert calls == [(2, 0.05)] * 3


def test_newton_cap_raises_optimization_error(monkeypatch):
    curve = cplus_curve(0.05)
    monkeypatch.setattr(bivariate, "_MAX_STEPS", 2)
    with pytest.raises(OptimizationError, match="did not converge"):
        c_plus(1.0, 0.05)
    with pytest.raises(OptimizationError, match="did not converge"):
        CPlusCurve.build(0.05, a_max=1.0, step=0.5)
    with pytest.raises(OptimizationError, match="did not converge"):
        abs_max_interval([1.0, 0.0], 0.05)
    # a start on the curve saves steps but keeps the cap: at w = 4.12 the
    # lower endpoint, a = 2.06, lies where a is near c_plus(a) and the
    # curve's quintic reading is off by 2e-6, so the solve needs a second step
    monkeypatch.setattr(bivariate, "_MAX_STEPS", 1)
    with pytest.raises(OptimizationError, match="did not converge"):
        abs_max_interval([4.12, 0.0], 0.05, curve=curve)


def test_cplus_curve_cache():
    assert cplus_curve(0.05) is cplus_curve(0.05)


def test_curve_arrays_are_read_only():
    # the cache hands one curve to every caller, and interval solves start on it
    for curve in (cplus_curve(0.05), CPlusCurve.build(0.05, a_max=1.0, step=0.5)):
        for grid in (curve.grid_a, curve.grid_c):
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = 0.0
    assert cplus_curve(0.05).grid_c[0] == c_plus(0.0, 0.05)


# a hand-built curve: its three fields and a table for them
_HAND_BUILT = dict(alpha=0.05, a_max=1.0, step=0.5, grid_a=[0.0, 0.5, 1.0],
                   grid_c=[2.2, 2.1, 2.0])


@pytest.mark.parametrize("change, match", [
    (dict(a_max=1.0, step=1.0, grid_a=[0.0, 1.0], grid_c=[100.0, 100.0]), "grid_c"),
    (dict(a_max=1.0, step=1.0, grid_a=[0.0, 1.0], grid_c=[0.0, 0.0]), "grid_c"),
    (dict(grid_c=[2.2, np.nan, 2.0]), "grid_c"),
    (dict(grid_c=[2.3, 2.1, 2.0]), "grid_c"),
    (dict(grid_c=[2.2, 2.1, 1.9]), "grid_c"),
    (dict(grid_c=[2.2, 2.1]), "grid_c"),
    (dict(grid_a=[0.0, 0.5, 1.1]), "grid_a"),
    (dict(grid_a=[0.5, 1.0, 1.5]), "grid_a"),
    (dict(grid_a=[[0.0, 0.5, 1.0]]), "grid_a"),
    (dict(grid_a=["0", "0.5", "1"]), "grid_a"),
    (dict(step=0.3), "grid_a"),
    (dict(step=2.0), "step"),
    (dict(alpha=1.5), "alpha"),
])
def test_hand_built_curve_is_checked(change, match):
    # a curve calibrates its own table, so no hand-built one, good or bad,
    # gets past the constructor; from alpha, a_max and step alone it either
    # names the bad argument or solves each knot as c_plus does
    fields = {**_HAND_BUILT, **change}
    with pytest.raises(TypeError, match="grid_a"):
        CPlusCurve(**fields)
    scalars = {name: fields[name] for name in ("alpha", "a_max", "step")}
    if match in scalars:
        with pytest.raises(ValueError, match=match):
            CPlusCurve(**scalars)
    else:
        curve = CPlusCurve(**scalars)
        assert curve.grid_c.tolist() == [c_plus(float(a), curve.alpha) for a in curve.grid_a]


def test_hand_built_curve_keeps_read_only_copies():
    for name in ("grid_a", "grid_c"):
        with pytest.raises(TypeError, match=name):
            CPlusCurve(0.05, **{name: np.zeros(801)})
    # a copy with a new alpha calibrates its own table, not the old one's
    copy = dataclasses.replace(cplus_curve(0.05), alpha=0.2)
    assert (copy.alpha, copy.a_max, copy.step) == (0.2, 8.0, 0.01)
    assert not (copy.grid_a.flags.writeable or copy.grid_c.flags.writeable)
    assert copy.grid_c.tobytes() == CPlusCurve.build(0.2).grid_c.tobytes()
    # a copy of a built curve's fields is a curve, and gives its endpoints
    built = CPlusCurve.build(0.05, a_max=3.0, step=0.5)
    copy = CPlusCurve(**{name: getattr(built, name) for name in ("alpha", "a_max", "step")})
    for w in (0.0, 1.0, 3.0):
        assert abs_max_interval([w, 0.0], 0.05, curve=copy) == abs_max_interval(
            [w, 0.0], 0.05, curve=built)


def test_default_curve_bits_are_pinned():
    # the calibration skips the mean slopes its steps multiply by 0; every
    # knot keeps the bits it had when they were computed.  Pinned for the
    # 28-node rule, whose knots lie within 16 ulp of a 96-node rule's
    grid_c = CPlusCurve.build(0.05).grid_c
    assert grid_c.shape == (801,)
    assert hashlib.sha256(grid_c.tobytes()).hexdigest() == (
        "4658f440921f1058d4f28cb5f8fd391551c6153b3ea96542d6854f080d9f83f1")


def test_abs_max_interval_frozen_center(small_curve):
    # oracle: w = 0 inverts to +/- 2.059530792
    ci = abs_max_interval([0.0, 0.0], 0.05, curve=small_curve)
    assert ci.method == "abs_max"
    assert ci.lo == pytest.approx(-2.059530792, abs=2e-4)
    assert ci.hi == pytest.approx(2.059530792, abs=2e-4)


def test_abs_max_interval_far_from_zero_is_unadjusted():
    ci = abs_max_interval([10.0, 0.3], 0.05, curve=cplus_curve(0.05))
    assert ci.index == 0
    assert ci.length == pytest.approx(2 * Z975, abs=1e-3)


def test_abs_max_interval_reflection(small_curve):
    pos = abs_max_interval([4.0, 0.1], 0.05, curve=small_curve)
    neg = abs_max_interval([0.1, -4.0], 0.05, curve=small_curve)
    assert neg.index == 1
    assert neg.lo == pytest.approx(-pos.hi, abs=1e-9)
    assert neg.hi == pytest.approx(-pos.lo, abs=1e-9)


def test_abs_max_interval_never_wider_than_sidak_box(small_curve):
    for w in np.arange(0.0, 6.01, 0.25):
        ci = abs_max_interval([w, 0.0], 0.05, curve=small_curve)
        assert ci.lo >= w - SIDAK2 - 1e-6
        assert ci.hi <= w + SIDAK2 + 1e-6


def test_abs_max_membership_equivalence(small_curve):
    # theta is inside the interval exactly when |w - theta| <= c_plus(|theta|),
    # also beyond the curve's a_max
    thetas = np.arange(-1.0, 7.01, 0.08)
    c = [c_plus(abs(theta), 0.05) for theta in thetas]
    for w in (0.0, 0.7, 1.9, 2.23, 3.4, 5.0):
        ci = abs_max_interval([w, 0.0], 0.05, curve=small_curve)
        for theta, c_theta in zip(thetas, c):
            inside = ci.lo <= theta <= ci.hi
            accepted = abs(w - theta) <= c_theta + 1e-9
            if not inside == accepted:
                # only tolerate disagreement at the endpoints' solve tolerance
                assert abs(abs(w - theta) - c_theta) <= 1e-8


def test_abs_max_width_profile():
    curve = cplus_curve(0.05)
    base = 2 * SIDAK2
    widths = {w: abs_max_interval([w, 0.0], 0.05, curve=curve).length
              for w in (0.0, 2.23, 10.0)}
    # oracle: widest interval sits near w = 2.23 at 93.8% of the fixed box
    assert widths[2.23] / base == pytest.approx(0.93819, abs=0.005)
    assert widths[10.0] / base == pytest.approx(0.87636, abs=0.005)
    assert widths[0.0] < widths[2.23]


@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.2, 0.9, 0.999])
def test_abs_max_endpoints_solve_exactly(alpha):
    curve = CPlusCurve.build(alpha, a_max=3.0, step=0.5)
    for given in (None, curve):
        for w in (0.0, 0.4, 1.7, 2.23, 2.9, 3.1, 5.0, 9.5):
            for y in ([w, 0.0], [0.0, -w]):
                ci = abs_max_interval(y, alpha, curve=given)
                w_sel = y[ci.index]
                if w_sel < 0.0:  # reflect: the interval for -w is -(lo, hi)
                    lo, hi = -ci.hi, -ci.lo
                else:
                    lo, hi = ci.lo, ci.hi
                assert abs(lo + c_plus(abs(lo), alpha) - abs(w_sel)) <= 1e-8, (given, y)
                assert abs(hi - c_plus(abs(hi), alpha) - abs(w_sel)) <= 1e-8, (given, y)


@pytest.mark.parametrize("alpha", [1e-10, 1e-13])
def test_abs_max_endpoints_solve_exactly_at_small_alpha(alpha):
    # c_plus(8) is still above c_plus(100) here, so the far endpoint solves
    # against c_plus at its own a, not at a cutoff
    for w in (3.0, 9.0, 12.0):
        ci = abs_max_interval([w, 0.0], alpha)
        assert abs(ci.lo + c_plus(abs(ci.lo), alpha) - w) <= 1e-9, w
        assert abs(ci.hi - c_plus(abs(ci.hi), alpha) - w) <= 1e-9, w


def _sidak_start_endpoints(w, alpha):
    # the endpoint solve started at the ends of the Sidak box, as without a curve
    s = sidak_halfwidth(2, alpha)
    slope = np.array([1.0, -1.0])
    a, _ = bivariate._newton(w - slope * s, np.array([s, s]), slope, np.array([w, w]), alpha)
    return a


@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.2, 0.9])
def test_curve_start_gives_the_sidak_start_endpoints(alpha):
    # the curve only sets where Newton starts: both starts solve against
    # exact c_plus at every a (w runs past the curve's a_max)
    for curve in (cplus_curve(alpha), CPlusCurve.build(alpha, a_max=3.0, step=0.5)):
        for w in np.linspace(0.0, 12.0, 61):
            ci = abs_max_interval([w, 0.0], alpha, curve=curve)
            lo, hi = _sidak_start_endpoints(w, alpha)
            assert abs(ci.lo - lo) <= 1e-12 and abs(ci.hi - hi) <= 1e-12, (curve.a_max, w)


@pytest.mark.parametrize("alpha", [1e-13, 1e-10, 1e-6, 0.05])
def test_any_curve_gives_the_no_curve_endpoints(alpha):
    # a curve's extent and step move where the solve starts, never an endpoint
    curves = (cplus_curve(alpha), CPlusCurve.build(alpha, a_max=3.0, step=0.5),
              CPlusCurve.build(alpha, a_max=1.0, step=1.0))
    for w in np.linspace(0.0, 12.0, 25):
        plain = abs_max_interval([w, 0.0], alpha)
        for curve in curves:
            ci = abs_max_interval([w, 0.0], alpha, curve=curve)
            assert abs(ci.lo - plain.lo) <= 1e-12 and abs(ci.hi - plain.hi) <= 1e-12, (
                curve.a_max, w)


def test_curve_start_at_huge_curve_a_max():
    curve = CPlusCurve.build(0.05, 1e200, 1e199)
    for w in (0.0, 1.3, 2.23, 7.0, 150.0, 1e200):
        ci = abs_max_interval([w, 0.0], 0.05, curve=curve)
        lo, hi = _sidak_start_endpoints(w, 0.05)
        assert abs(ci.lo - lo) <= 1e-12 and abs(ci.hi - hi) <= 1e-12, w


def test_quintic_reading_reproduces_every_quintic():
    # the written-out basis at v = -2.5, ..., 2.5: the quintic through the
    # values of v^j at the knots is v^j, and its slope is j v^(j - 1)
    knots = np.arange(6.0) - 2.5
    values = np.vander(knots, 6, increasing=True).T
    np.testing.assert_allclose(values @ bivariate._QUINTIC[:, :, 0], np.eye(6),
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(values @ bivariate._QUINTIC[:, :, 1],
                               np.eye(6, k=-1) * np.arange(6.0)[:, None], rtol=0.0, atol=1e-15)


def test_curve_start_saves_newton_evaluations(monkeypatch):
    # over c04's width profile, a solve started on the curve's quintic
    # reading needs at most 1.1 evaluations of the rule per interval on
    # average (one confirms all but the endpoints near a = c_plus(a)); the
    # Sidak start needs 5
    calls = []
    miss = bivariate._miss_probability

    def counted(*args):
        calls.append(1)
        return miss(*args)

    curve = cplus_curve(0.05)
    monkeypatch.setattr(bivariate, "_miss_probability", counted)
    w_grid = np.arange(0.0, 6.0 + 1e-12, 0.01)
    for w in w_grid:
        abs_max_interval([w, 0.0], 0.05, curve=curve)
    assert len(calls) <= 1.1 * len(w_grid)


def test_abs_max_interval_at_huge_curve_a_max():
    # the inversion holds a at _A_FLAT beyond it, as c_plus does, so a huge
    # a_max must not overflow the rule; c_plus (about 2) vanishes beside 1e200
    curve = CPlusCurve.build(0.05, 1e200, 1e199)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ci = abs_max_interval([1e200, 0.0], 0.05, curve=curve)
    assert (ci.index, ci.lo, ci.hi) == (0, 1e200, 1e200)


def test_abs_max_alpha_mismatch(small_curve):
    with pytest.raises(ValueError):
        abs_max_interval([1.0, 0.0], 0.01, curve=small_curve)


def test_abs_max_coverage_by_simulation():
    curve = cplus_curve(0.05)
    reps = 20000
    for theta in ((0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (4.0, 2.0)):
        cov = CovarianceModel("block", 2, 0.0, block_size=1)
        scn = Scenario(m=2, covariance=cov, reps=reps, seed=31,
                       theta=theta)
        report = run_coverage(scn, k=1, method="abs_max", alpha=0.05)
        bound = 0.05 + 3 * np.sqrt(0.05 * 0.95 / reps)
        assert report.sos_rate <= bound, theta


def test_larger_of_two_coverage_under_correlation():
    # selection-adjusted coverage of the unadjusted interval, positive and
    # negative exchangeable correlation plus a common-shock check
    reps = 20000
    z = Z975
    rng_idx = 0
    for rho in (-0.5, 0.0, 0.7):
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        for theta in ((0.0, 0.0), (1.0, 1.0), (0.0, 2.0)):
            rng_idx += 1
            y = sample_mvn(np.array(theta), sigma, reps, 100 + rng_idx)
            sel = np.argmax(y, axis=1)
            picked = np.take_along_axis(y, sel[:, None], axis=1)[:, 0]
            target = np.asarray(theta)[sel]
            miss = np.mean(np.abs(picked - target) > z)
            assert miss <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / reps), (rho, theta)


def test_larger_of_two_coverage_common_shock():
    # exchangeability/symmetry is all the construction needs: errors
    # E_i = Z_i + W with Z_i ~ Uniform(-1, 1) iid and one shared normal shock
    def marginal_cdf(c):
        # E[Phi(c - Z)] = (1/2) * integral of Phi over [c-1, c+1]
        def phi_antideriv(x):
            return x * std_normal_cdf(x) + math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return 0.5 * (phi_antideriv(c + 1.0) - phi_antideriv(c - 1.0))

    c = brentq(lambda x: marginal_cdf(x) - 0.975, 0.0, 10.0, xtol=1e-12)
    rng = np.random.default_rng(71)
    reps = 30000
    for theta in ((0.0, 0.0), (0.0, 2.0), (1.5, 1.5)):
        z = rng.uniform(-1.0, 1.0, (reps, 2))
        w = rng.standard_normal((reps, 1))
        y = np.asarray(theta) + z + w
        sel = np.argmax(y, axis=1)
        picked = np.take_along_axis(y, sel[:, None], axis=1)[:, 0]
        target = np.asarray(theta)[sel]
        miss = np.mean(np.abs(picked - target) > c)
        assert miss <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / reps), theta


def test_wrong_typed_family_and_curve():
    with pytest.raises(ValueError, match="family"):
        larger_of_two_interval([1.0, 0.0], 0.05, family=None)
    with pytest.raises(ValueError, match="curve"):
        abs_max_interval([1.0, 0.0], 0.05, curve="x")
