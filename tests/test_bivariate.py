import numpy as np
import pytest
from scipy.optimize import brentq

from sosci import (
    CPlusCurve,
    QuadratureError,
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
    std_normal_pdf,
    student_t_family,
)
from sosci.mc import Scenario, estimate_b_probability

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


def test_larger_of_two_t_family():
    t5 = student_t_family(5)
    ci = larger_of_two_interval([2.9, 2.5], 0.05, family=t5)
    assert ci.hi - 2.9 == pytest.approx(2.570581836, abs=1e-6)


def test_larger_of_two_errors():
    with pytest.raises(ValueError):
        larger_of_two_interval([1.0], 0.05)
    with pytest.raises(ValueError):
        larger_of_two_interval([1.0, 2.0], 1.5)


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
    with pytest.raises(ValueError):
        b_region_probability((np.inf, 0.0), 1.0)


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
    with pytest.raises(ValueError):
        c_plus(-1.0, 0.05)
    with pytest.raises(ValueError):
        c_plus(0.0, 0.0)


@pytest.mark.parametrize("alpha", [0.97, 0.98, 0.999])
@pytest.mark.parametrize("a", [0.0, 0.5, 3.0])
def test_c_plus_large_alpha(a, alpha):
    # the unadjusted constant minus the bracket margin is negative here
    c = c_plus(a, alpha)
    assert c > 0.0
    assert b_region_probability((a, 0.0), c) == pytest.approx(1.0 - alpha, abs=1e-8)
    if a == 0.0:  # (2 Phi(c) - 1)^2 = 1 - alpha
        assert c == pytest.approx(sidak_halfwidth(2, alpha), abs=1e-8)


def test_curve_build_and_call(small_curve):
    assert small_curve.alpha == 0.05
    grid = small_curve.grid
    assert grid[0][0] == 0.0
    assert grid[-1][0] == pytest.approx(3.0)
    cs = np.array([c for _, c in grid])
    assert np.all(np.diff(cs) <= 1e-9)
    assert small_curve(0.0) == pytest.approx(SIDAK2, abs=1e-6)
    # evaluation interpolates, is even in a, and clamps beyond the grid
    assert small_curve(-1.0) == small_curve(1.0)
    assert small_curve(50.0) == small_curve(3.0)
    arr = small_curve(np.array([0.0, 1.0, 2.0]))
    assert arr.shape == (3,)


def test_curve_matches_pointwise_solver(small_curve):
    for a in (0.512, 1.777, 2.404):  # off-knot, so interpolation is exercised
        assert small_curve(a) == pytest.approx(c_plus(a, 0.05), abs=2e-4)


def test_cplus_curve_cache():
    assert cplus_curve(0.05) is cplus_curve(0.05)


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
    # theta is inside the interval exactly when |w - theta| <= c(|theta|)
    for w in (0.0, 0.7, 1.9, 2.23, 3.4, 5.0):
        ci = abs_max_interval([w, 0.0], 0.05, curve=small_curve)
        for theta in np.arange(-1.0, 7.01, 0.08):
            inside = ci.lo <= theta <= ci.hi
            accepted = abs(w - theta) <= small_curve(theta) + 1e-9
            if not inside == accepted:
                # only tolerate disagreement within interpolation slack
                gap = abs(abs(w - theta) - small_curve(theta))
                assert gap <= 2e-3


def test_abs_max_width_profile():
    curve = cplus_curve(0.05)
    base = 2 * SIDAK2
    widths = {w: abs_max_interval([w, 0.0], 0.05, curve=curve).length
              for w in (0.0, 2.23, 10.0)}
    # oracle: widest interval sits near w = 2.23 at 93.8% of the fixed box
    assert widths[2.23] / base == pytest.approx(0.93819, abs=0.005)
    assert widths[10.0] / base == pytest.approx(0.87636, abs=0.005)
    assert widths[0.0] < widths[2.23]


def test_abs_max_alpha_mismatch(small_curve):
    with pytest.raises(ValueError):
        abs_max_interval([1.0, 0.0], 0.01, curve=small_curve)


def test_abs_max_coverage_by_simulation():
    curve = cplus_curve(0.05)
    reps = 20000
    for theta in ((0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (4.0, 2.0)):
        cov = CovarianceModel("block", 2, 0.0, block_size=1)
        scn = Scenario(m=2, covariance=cov, reps=reps, seed=31,
                       theta_rule="fixed", theta=theta)
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
            return x * std_normal_cdf(x) + std_normal_pdf(x)
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


def test_quadrature_failure_is_typed():
    assert issubclass(QuadratureError, Exception)
