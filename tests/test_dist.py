import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

import sosci
from sosci import dist

from _oracles import (
    bisect_normal_quantile,
    estimate_b_probability,
    series_normal_cdf,
    t_cdf_quad,
)


def test_cdf_center_and_symmetry():
    assert dist.std_normal_cdf(0.0) == 0.5
    for x in np.linspace(-9.0, 9.0, 61):
        assert abs(dist.std_normal_cdf(x) + dist.std_normal_cdf(-x) - 1.0) <= 1e-12


def test_cdf_against_series_oracle():
    for x in np.arange(-8.0, 8.01, 0.25):
        assert abs(dist.std_normal_cdf(float(x)) - series_normal_cdf(float(x))) <= 1e-12


@pytest.mark.parametrize("x", ["a", None, pytest.param([0.5], id="list"),
                               pytest.param(np.array([0.5, 1.0]), id="array"), 1j, math.nan,
                               pytest.param(10**400, id="10**400")])
def test_cdf_domain(x):
    with pytest.raises(ValueError, match="^x must be a real number"):
        dist.std_normal_cdf(x)


def test_cdf_reads_infinities_and_real_scalars():
    # FCW's coverage reads Phi at +inf; ints and numpy scalars read as floats
    assert dist.std_normal_cdf(math.inf) == 1.0 and dist.std_normal_cdf(-math.inf) == 0.0
    assert dist.std_normal_cdf(0) == 0.5
    assert dist.std_normal_cdf(np.float32(1.5)) == dist.std_normal_cdf(1.5)


def test_cdf_frozen_point():
    # oracle: bisection on the series CDF gives z(0.975) = 1.959963985
    assert dist.std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


@pytest.mark.parametrize("p,expected,tol", [
    (0.5, 0.0, 1e-12),
    (0.975, 1.959963985, 1e-5),
    (0.99975, 3.480756404, 1e-3),  # the m=100 two-sided Bonferroni constant
])
def test_quantile_frozen_points(p, expected, tol):
    assert dist.std_normal_quantile(p) == pytest.approx(expected, abs=tol)


def test_quantile_matches_bisection_oracle():
    for p in (0.6, 0.9, 0.975, 0.9995, 0.2, 0.025):
        assert dist.std_normal_quantile(p) == pytest.approx(
            bisect_normal_quantile(p), abs=1e-9)


def test_quantile_cdf_round_trip_deep_tails():
    tails = np.logspace(-8, math.log10(0.5), 40)
    for p in np.concatenate([tails, 1.0 - tails]):
        z = dist.std_normal_quantile(float(p))
        assert abs(dist.std_normal_cdf(z) - p) <= 1e-9


def test_quantile_monotone():
    grid = np.linspace(1e-6, 1 - 1e-6, 2001)
    values = [dist.std_normal_quantile(float(p)) for p in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, -0.0, math.nan, math.inf, -math.inf, True,
                               False, "0.5", None, -5e-324])
def test_quantile_domain(p):
    # the same message as _check_unit, which every other entry point runs
    with pytest.raises(ValueError) as checked:
        dist._check_unit(p, "p")
    with pytest.raises(ValueError, match=re.escape(str(checked.value))):
        dist.std_normal_quantile(p)


# roots of Phi(x) = p solved to 40 digits with mpmath (not a test dependency),
# from the least subnormal double to 1 - 2^-53, across AS241's branch edges
# (p = 0.075, about exp(-25)) and the tail step's (5/64, the least normal
# double), and at three p where AS241 alone errs by more than 4 ulp
_QUANTILE_ROOTS = [
    (5e-324, "-38.46740561714434625078"),
    (1e-320, "-38.26912534303265101818"),
    (1e-310, "-37.66306033194952373189"),
    (2.2250738585072014e-308, "-37.51937934714449982068"),
    (1e-300, "-37.04709629936119923655"),
    (8.79970448839955e-205, "-30.51285198775956944023"),  # AS241 alone: 5.4 ulp
    (1e-200, "-30.20559417957964306312"),
    (1.174196360127428e-178, "-28.47561575956579808696"),  # AS241 alone: 6.0 ulp
    (1e-100, "-21.27345356096532429418"),
    (1e-50, "-14.93333753478848898066"),
    (1e-20, "-9.262340089798407579572"),
    (1.4e-11, "-6.656723091518183635597"),
    (1e-08, "-5.61200124417478872793"),
    (1e-05, "-4.264890793922824610234"),
    (0.0123, "-2.247626755795137757588"),
    (0.05, "-1.644853626951472687952"),
    (0.075, "-1.43953147093845593495"),
    (0.078125, "-1.417797137996267339086"),
    (0.1, "-1.281551565544600435335"),
    (0.3, "-0.5244005127080408159695"),
    (0.6, "0.2533471031357997413247"),
    (0.9, "1.281551565544600593487"),
    (0.921875, "1.417797137996267339086"),
    (0.925, "1.439531470938456229063"),
    (0.975, "1.959963984540053855604"),
    (0.9999, "3.719016485455708386723"),
    (0.9999999998664517, "6.316764243308767074432"),  # AS241 alone: 4.1 ulp
    (0.9999999999, "6.361340889697421864155"),
    (0.9999999999999999, "8.209536151601386855631"),
]


@pytest.mark.parametrize("p,root", _QUANTILE_ROOTS)
def test_quantile_within_4_ulp_of_40_digit_roots(p, root):
    x = dist.std_normal_quantile(p)
    assert abs(Fraction(x) - Fraction(root)) <= 4 * Fraction(math.ulp(x))


def _adjacent_doubles(p, n):
    # the n doubles below p, p, and the n above it
    below, above = [p], [p]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def test_quantile_is_exactly_odd_about_one_half():
    rng = np.random.default_rng(21)
    edges = [0.5, 0.921875, 0.925, 1.0 - 2.0**-53]
    near = [p for edge in edges for p in _adjacent_doubles(edge, 50) if 0.5 <= p < 1.0]
    tails = 1.0 - np.logspace(-16, math.log10(0.5), 300)
    for p in [*rng.uniform(0.5, 1.0, 2000), *tails, *near]:
        assert dist.std_normal_quantile(p) == -dist.std_normal_quantile(1.0 - p), p


@pytest.mark.parametrize("edge", [2.2250738585072014e-308, math.exp(-25.0), 0.075, 0.078125,
                                  0.5, 0.921875, 0.925, 1.0 - math.exp(-25.0)])
def test_quantile_monotone_across_adjacent_doubles(edge):
    # within the 4 spacings that the offset table's monotonicity test allows
    values = [dist.std_normal_quantile(p) for p in _adjacent_doubles(edge, 500)]
    assert all(b >= a - 4.0 * np.spacing(abs(a)) for a, b in zip(values, values[1:]))


def test_quantile_agrees_with_scipy_ndtri():
    rng = np.random.default_rng(5)
    lower = np.exp(rng.uniform(math.log(5e-324), math.log(0.5), 2000))
    upper = 1.0 - np.exp(rng.uniform(math.log(1e-16), math.log(0.5), 1000))
    for p in [*lower, *upper]:
        x, ref = dist.std_normal_quantile(p), float(special.ndtri(p))
        assert abs(x - ref) <= 8 * math.ulp(ref), p


@pytest.mark.parametrize("p", [np.float64(0.01), np.float32(0.99), np.float32(0.3)])
def test_quantile_reads_numpy_scalars_as_floats(p):
    x = dist.std_normal_quantile(p)
    assert type(x) is float and x == dist.std_normal_quantile(float(p))


def test_t_cdf_symmetry_and_center():
    # F0(-x) = 1 - F0(x), which the method table's offsets -F0^{-1}(p) rely
    # on, read through the quantile: F0^{-1}(1/2) = 0 and F0^{-1}(1 - p) = -F0^{-1}(p)
    assert dist.student_t_quantile(0.5, 5) == 0.0
    for p in (1e-6, 0.01, 0.2, 0.4):
        assert dist.student_t_quantile(p, 5) + dist.student_t_quantile(1.0 - p, 5) == \
            pytest.approx(0.0, abs=1e-9)


def test_t_quantile_frozen_point():
    # oracle: bisection on the quadrature CDF of the t5 density
    assert dist.student_t_quantile(0.975, 5) == pytest.approx(2.570581836, abs=1e-6)
    assert dist.student_t_quantile(0.975, 5) == pytest.approx(2.5706, abs=1e-3)


def test_t_cdf_against_quadrature_oracle():
    # the quantile inverts the oracle's CDF at points given in x
    for df in (1, 5, 30):
        for x in (-3.0, -0.7, 0.4, 2.2):
            assert dist.student_t_quantile(t_cdf_quad(x, df), df) == pytest.approx(
                x, abs=1e-10)


def test_t_round_trip():
    for df in (1, 2, 5, 50):
        for p in (1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6):
            x = dist.student_t_quantile(p, df)
            assert abs(t_cdf_quad(x, df) - p) <= 1e-8


@pytest.mark.parametrize("df", [0, -1, 2.5, pytest.param(10**400, id="10**400")])
def test_t_df_domain(df):
    with pytest.raises(ValueError):
        dist.student_t_quantile(0.5, df)
    with pytest.raises(ValueError):
        dist.student_t_family(df)


def test_families():
    fam = dist.NORMAL
    assert fam.name == "normal"
    assert fam.quantile(0.975) == dist.std_normal_quantile(0.975)
    t5 = dist.student_t_family(5)
    assert t5.name == "student_t(5)"
    with pytest.raises(ValueError, match="family quantile must be callable, got 1.0"):
        dist.ShiftFamily("x", 1.0)
    with pytest.raises(ValueError, match="family name must be a str, got 1"):
        dist.ShiftFamily(1, dist.std_normal_quantile)


def test_unit_check_reads_real_scalars():
    # a level may be any real scalar, a 0-d array included, but no array of
    # one element, whose comparison would otherwise pass
    for p in (0.5, np.float64(0.5), np.float32(0.5), np.array(0.5), 1e-300):
        dist._check_unit(p, "p")
    for p in (np.array([0.5]), [0.5], np.array([[0.5]]), 0.0, 1.0, math.nan, True, "0.5"):
        with pytest.raises(ValueError, match="^p must lie in"):
            dist._check_unit(p, "p")


def test_integers_past_the_str_limit_are_named_by_their_size():
    # str() refuses an int of more than 4300 digits; the message names the
    # argument and its bit length instead
    big = 10**5000
    assert big.bit_length() == 16610
    with pytest.raises(ValueError, match="^df must be at most .*, got an integer of 16610 bits$"):
        dist.student_t_quantile(0.3, big)
    with pytest.raises(ValueError, match="^reps must be >= 1, got an integer of 16610 bits$"):
        dist.sample_mvn(np.zeros(2), _I2, -big, 1)
    with pytest.raises(ValueError, match="^need 1 <= k <= m, got k=an integer of 16610 bits, m=3$"):
        sosci.select_top_k([1.0, 2.0, 3.0], big)
    with pytest.raises(ValueError, match="^m must be at most .*, got an integer of 16610 bits$"):
        sosci.sidak_halfwidth(big, 0.05)
    # within the float range the value itself is printed
    with pytest.raises(ValueError, match="^m must be at most 4096, got 200000$"):
        sosci.Scenario(m=200000, covariance=dist.CovarianceModel("ar"), reps=1, seed=1)


def test_t_quantile_at_the_largest_df_is_normal():
    # the df cap is the largest float, where stdtrit gives the normal quantile
    df = int(sys.float_info.max)
    assert dist.student_t_quantile(0.3, df) == pytest.approx(dist.std_normal_quantile(0.3),
                                                             abs=1e-15)
    assert dist.student_t_family(df).quantile(0.3) == dist.student_t_quantile(0.3, df)


def test_cholesky_identity_and_hand_value():
    assert np.allclose(dist.cholesky(np.eye(3)), np.eye(3))
    lower = dist.cholesky([[1.0, 0.5], [0.5, 1.0]])
    assert lower[0, 0] == pytest.approx(1.0)
    assert lower[1, 0] == pytest.approx(0.5)
    assert lower[1, 1] == pytest.approx(math.sqrt(0.75), abs=1e-12)  # 0.8660254


def test_cholesky_reconstruction():
    rng = dist.seeded_rng(99)
    a = rng.standard_normal((6, 6))
    sigma = a @ a.T + 6 * np.eye(6)
    lower = dist.cholesky(sigma)
    assert np.max(np.abs(lower @ lower.T - sigma)) <= 1e-10


def test_cholesky_errors():
    with pytest.raises(dist.NotPositiveDefiniteError):
        dist.cholesky([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(ValueError):
        dist.cholesky([[1.0, 0.2], [0.3, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        dist.cholesky(np.ones((2, 3)))


def test_sample_mvn_moments_and_replay():
    reps = 10**5
    y = dist.sample_mvn(np.zeros(4), np.eye(4), reps, 7)
    assert np.all(np.abs(y.mean(axis=0)) <= 4.0 / math.sqrt(reps))
    again = dist.sample_mvn(np.zeros(4), np.eye(4), reps, 7)
    assert y.tobytes() == again.tobytes()


def test_sample_mvn_ar_correlation():
    m = 100
    idx = np.arange(m)
    sigma = 0.7 ** np.abs(np.subtract.outer(idx, idx)).astype(float)
    y = dist.sample_mvn(np.zeros(m), sigma, 50000, 11)
    r = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
    assert r == pytest.approx(0.7, abs=0.02)


def test_sample_mvn_matches_univariate_ks():
    # identity covariance must agree with independent univariate sampling
    y = dist.sample_mvn(np.zeros(3), np.eye(3), 50000, 13)[:, 1]
    z = dist.seeded_rng(14).standard_normal(50000)
    assert stats.ks_2samp(y, z).statistic < 0.01


def _sample_mvt(theta, sigma, df, reps, seed):
    # the coverage engine's t-panel draws: one chi-square mixing variable per row
    return dist.draw_replicates(dist.seeded_rng(seed), theta, dist.cholesky(sigma), reps, df)


def test_sample_mvt_large_df_is_normal():
    y = _sample_mvt(np.zeros(2), np.eye(2), 10**6, 50000, 17)[:, 0]
    assert stats.kstest(y, "norm").statistic < 0.01


def test_sample_mvt_replay_and_shift():
    y = _sample_mvt(np.array([2.0, 0.0]), np.eye(2), 5, 50000, 19)
    again = _sample_mvt(np.array([2.0, 0.0]), np.eye(2), 5, 50000, 19)
    assert y.tobytes() == again.tobytes()
    assert np.median(y[:, 0]) == pytest.approx(2.0, abs=0.05)
    assert np.median(y[:, 1]) == pytest.approx(0.0, abs=0.05)


def test_sample_mvt_single_mixing_variable_per_row():
    # with a huge shared chi-square effect, coordinates of a row are scaled
    # together: the ratio of two coordinates of t-draws with identical theta
    # stays the same as for the underlying normals
    sigma = np.eye(2)
    t_draws = _sample_mvt(np.zeros(2), sigma, 1, 2000, 23)
    n_draws = dist.sample_mvn(np.zeros(2), sigma, 2000, 23)
    ratio = t_draws[:, 0] / t_draws[:, 1]
    ratio_n = n_draws[:, 0] / n_draws[:, 1]
    assert np.allclose(ratio, ratio_n, rtol=1e-9)


def test_seeded_rng_streams():
    a = dist.seeded_rng(5, 1).standard_normal(4)
    b = dist.seeded_rng(5, 2).standard_normal(4)
    c = dist.seeded_rng(5, 1).standard_normal(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)
    with pytest.raises(ValueError, match="seed must be an integer"):
        dist.seeded_rng(dist.seeded_rng(5))
    assert np.array_equal(dist.seeded_rng(5, np.int64(1)).standard_normal(4), a)


@pytest.mark.parametrize("tag", [None, 1.5, math.nan, pytest.param([1], id="list"), 1j, True,
                                 -1])
def test_seeded_rng_checks_each_stream_tag(tag):
    with pytest.raises(ValueError, match="^stream must be"):
        dist.seeded_rng(1, 3, tag)


def test_covariance_model_validation():
    dist.CovarianceModel("ar", -0.5)
    with pytest.raises(ValueError):
        dist.CovarianceModel("ar", 1.0)
    with pytest.raises(ValueError):
        dist.CovarianceModel("block", -0.1)
    with pytest.raises(ValueError):
        dist.CovarianceModel("banded")


_ONE_INTEGER = {
    # case -> call with n as its m or k; the Bonferroni half-width is the
    # bonferroni row of method_offsets at k = 1, and the fixed-delta split
    # once behind spec_from_delta is checked by interval_length
    "bonferroni_halfwidth m": lambda n: sosci.method_offsets("bonferroni", n, 1, 0.05)[0],
    "sidak_halfwidth m": lambda n: sosci.sidak_halfwidth(n, 0.05),
    "spec_from_delta m": lambda n: sosci.interval_length(n, 1, 0.05, 0.5),
    "method_offsets k": lambda n: sosci.method_offsets("sos_shortest", 10, n, 0.05),
    "fcw_constants k": lambda n: sosci.fcw_constants(10, n, 0.05),
    "select_top_k k": lambda n: sosci.select_top_k([1.0, 2.0, 3.0], n),
    "run_coverage k": lambda n: sosci.run_coverage(
        sosci.Scenario(m=4, covariance=dist.CovarianceModel("ar", 0.0), reps=50,
                       seed=1), n, "sidak"),
}


@pytest.mark.parametrize("bad", [1.5, True])
@pytest.mark.parametrize("name", sorted(_ONE_INTEGER))
def test_m_and_k_must_be_integers(name, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        _ONE_INTEGER[name](bad)


@pytest.mark.parametrize("name", sorted(_ONE_INTEGER))
def test_m_and_k_accept_numpy_integers(name):
    assert _ONE_INTEGER[name](np.int64(2)) == _ONE_INTEGER[name](2)


@pytest.mark.parametrize("name", sorted(n for n in _ONE_INTEGER if n.endswith(" m")))
def test_m_beyond_float_range_raises(name):
    # tail levels divide alpha by m as a float, which no 400-digit m has
    with pytest.raises(ValueError, match="m must be at most"):
        _ONE_INTEGER[name](10**399)
    dist._check_mk(int(sys.float_info.max), 1)  # the largest float is still an m


@pytest.mark.parametrize("bad", [1.5, True])
@pytest.mark.parametrize("field", ["block_size"])
def test_covariance_model_integer_fields(field, bad):
    fields = {"kind": "block", "rho": 0.2, "block_size": 2}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        dist.CovarianceModel(**{**fields, field: bad})
    assert dist.CovarianceModel(**{**fields, field: np.int64(fields[field])}) == \
        dist.CovarianceModel(**fields)


def test_covariance_model_refuses_a_parameter_its_kind_ignores():
    # time_decay reads no rho, and only block reads block_size: a value other
    # than the default is an error, not a setting that is recorded and unused
    with pytest.raises(ValueError, match="rho is not read by kind time_decay, .* got 0.7"):
        dist.CovarianceModel("time_decay", 0.7)
    for kind in ("ar", "time_decay"):
        with pytest.raises(ValueError, match=f"block_size is not read by kind {kind}, .* got 7"):
            dist.CovarianceModel(kind, block_size=7)
    # the defaults spelled out are accepted
    assert dist.CovarianceModel("time_decay", 0.0, 10) == dist.CovarianceModel("time_decay")
    assert dist.CovarianceModel("ar", 0.5, 10) == dist.CovarianceModel("ar", 0.5)


_I2 = np.eye(2)
_GEN = np.random.default_rng(0)
_SCN = sosci.Scenario(m=4, covariance=dist.CovarianceModel("ar", 0.0), reps=50, seed=1)
_FIXED = {"m": 4, "covariance": dist.CovarianceModel("ar", 0.0), "reps": 50, "seed": 1}

_BAD_ARGUMENTS = {
    # case -> (call, the argument its message must name); the spec_from_delta
    # cases check the fixed-delta split at interval_length and the fixed policy
    "alpha None, k_of_m_intervals": (lambda: sosci.k_of_m_intervals([1.0, 2.0], 1, None), "alpha"),
    "alpha str, method_offsets": (lambda: sosci.method_offsets("sidak", 10, 2, "0.5"), "alpha"),
    "alpha None, fcw_constants": (lambda: sosci.fcw_constants(10, 2, None), "alpha"),
    "alpha str, optimize_delta": (lambda: sosci.optimize_delta(10, 2, "0.5"), "alpha"),
    "alpha str, c_plus": (lambda: sosci.c_plus(0.0, "0.05"), "alpha"),
    "alpha None, abs_max_interval": (lambda: sosci.abs_max_interval([1.0, 2.0], None), "alpha"),
    "alpha None, run_coverage": (lambda: sosci.run_coverage(_SCN, 2, "sidak", None), "alpha"),
    "delta None, spec_from_delta": (lambda: sosci.interval_length(10, 2, 0.05, None), "delta"),
    "delta str, interval_length": (lambda: sosci.interval_length(10, 2, 0.05, "0.5"), "delta"),
    "delta str, k_of_m_intervals": (
        lambda: sosci.k_of_m_intervals([1.0, 2.0], 1, 0.05, "fixed", delta="0.5"), "delta"),
    "p None, std_normal_quantile": (lambda: dist.std_normal_quantile(None), "p"),
    "p str, student_t_quantile": (lambda: dist.student_t_quantile("0.5", 5), "p"),
    "df True, student_t_family": (lambda: dist.student_t_family(True), "df"),
    "df None, student_t_quantile": (lambda: dist.student_t_quantile(0.5, None), "df"),
    "family None, spec_from_delta": (
        lambda: sosci.k_of_m_intervals([1.0, 2.0], 1, 0.05, "fixed", delta=0.5, family=None),
        "family"),
    "family None, interval_length": (
        lambda: sosci.interval_length(10, 2, 0.05, 0.5, None), "family"),
    "family None, optimize_delta": (lambda: sosci.optimize_delta(10, 2, 0.05, None), "family"),
    "family None, method_tail_levels": (
        lambda: sosci.method_tail_levels("sos_shortest", 10, 2, 0.05, None), "family"),
    "seed 1.5, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, 3, 1.5), "seed"),
    "seed str, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, 3, "7"), "seed"),
    "seed Generator, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, 3, _GEN), "seed"),
    "seed True, seeded_rng": (lambda: dist.seeded_rng(True), "seed"),
    "seed Generator, Scenario": (lambda: dataclasses.replace(_SCN, seed=_GEN), "seed"),
    "seed 1.5, Scenario": (lambda: dataclasses.replace(_SCN, seed=1.5), "seed"),
    "scenario model, build_covariance": (
        lambda: sosci.build_covariance(dist.CovarianceModel("ar")), "scenario"),
    "seed 1.5, estimate_b_probability": (
        lambda: estimate_b_probability([0.0, 0.0], 1.0, 10, 1.5), "seed"),
    "reps True, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, True, 1), "reps"),
    "reps 2.5, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, 2.5, 1), "reps"),
    "reps None, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, None, 1), "reps"),
    "n_jobs 2.5, run_coverage": (
        lambda: sosci.run_coverage(_SCN, 2, "sidak", n_jobs=2.5), "n_jobs"),
    "n_jobs True, run_coverage": (
        lambda: sosci.run_coverage(_SCN, 2, "sidak", n_jobs=True), "n_jobs"),
    "method int, run_coverage": (lambda: sosci.run_coverage(_SCN, 2, 5), "method"),
    "method None, run_coverage": (lambda: sosci.run_coverage(_SCN, 2, None), "method"),
    "theta nan, sample_mvn": (lambda: dist.sample_mvn([math.nan, 0.0], _I2, 3, 1), "theta"),
    "theta length 3, sample_mvn": (lambda: dist.sample_mvn(np.zeros(3), _I2, 3, 1), "theta"),
    "m 4097, Scenario": (
        lambda: sosci.Scenario(m=4097, covariance=dist.CovarianceModel("ar"), reps=1,
                               seed=1), "m"),
    "reps 4096e6 + 1, Scenario": (lambda: dataclasses.replace(_SCN, reps=4096 * 10**6 + 1),
                                  "reps"),
    "theta str, Scenario": (lambda: sosci.Scenario(**_FIXED, theta=("1", 0.0, 0.0, 0.0)), "theta"),
    "theta int, Scenario": (lambda: sosci.Scenario(**_FIXED, theta=5), "theta"),
    "eta str, Scenario": (lambda: dataclasses.replace(_SCN, eta="1"), "eta"),
    "eta None, Scenario": (lambda: dataclasses.replace(_SCN, eta=None), "eta"),
    "eta True, Scenario": (lambda: dataclasses.replace(_SCN, eta=True), "eta"),
    "rho str, CovarianceModel": (lambda: dist.CovarianceModel("ar", "0.1"), "rho"),
    "rho None, CovarianceModel": (lambda: dist.CovarianceModel("block", None, 2), "rho"),
    "rho nan, time_decay CovarianceModel": (
        lambda: dist.CovarianceModel("time_decay", math.nan), "rho"),
    "block_size 0, ar CovarianceModel": (
        lambda: dist.CovarianceModel("ar", 0.0, block_size=0), "block_size"),
    "c None, b_region_probability": (lambda: sosci.b_region_probability([0.0, 0.0], None), "c"),
    "c True, b_region_probability": (lambda: sosci.b_region_probability([0.0, 0.0], True), "c"),
    "c str, estimate_b_probability": (
        lambda: estimate_b_probability([0.0, 0.0], "1", 10, 1), "c"),
    "a None, c_plus": (lambda: sosci.c_plus(None, 0.05), "a"),
    "a True, c_plus": (lambda: sosci.c_plus(True, 0.05), "a"),
    "a_max None, cplus_curve": (lambda: sosci.cplus_curve(0.05, None), "a_max"),
    "step str, CPlusCurve.build": (lambda: sosci.CPlusCurve.build(0.05, 1.0, "0.5"), "step"),
    # checked before the curve cache hashes them
    "alpha list, cplus_curve": (lambda: sosci.cplus_curve([0.05]), "alpha"),
    "a_max list, cplus_curve": (lambda: sosci.cplus_curve(0.05, [8.0]), "a_max"),
    "covariance None, Scenario": (
        lambda: sosci.Scenario(m=2, reps=10, seed=1, covariance=None), "covariance"),
    "scenario None, run_coverage": (lambda: sosci.run_coverage(None, 1, "sidak"), "scenario"),
    "scenario None, resolve_theta": (lambda: sosci.resolve_theta(None), "scenario"),
    # a level is one number: an array of one element is refused, not read
    "p array, std_normal_quantile": (lambda: dist.std_normal_quantile(np.array([0.5])), "p"),
    "alpha array, method_offsets": (
        lambda: sosci.method_offsets("sidak", 10, 1, np.array([0.05])), "alpha"),
    "alpha array, c_plus": (lambda: sosci.c_plus(1.0, np.array([0.05])), "alpha"),
    # array arguments holding strings are not parsed
    "y str, select_top_k": (lambda: sosci.select_top_k(["3", "1"], 1), "y"),
    "y str, select_abs_max": (lambda: sosci.select_abs_max(["3", "1"]), "y"),
    "y bool, select_top_k": (lambda: sosci.select_top_k([True, False], 1), "y"),
    "y str, k_of_m_intervals": (lambda: sosci.k_of_m_intervals(["3", "1", "2"], 1, 0.05), "y"),
    "y str, larger_of_two_interval": (
        lambda: sosci.larger_of_two_interval(["1", "0"], 0.05), "y"),
    "y str, abs_max_interval": (lambda: sosci.abs_max_interval(["1", "0"], 0.05), "y"),
    "mu str, b_region_probability": (lambda: sosci.b_region_probability(["1", "0"], 1.0), "mu"),
    "theta str, sample_mvn": (lambda: dist.sample_mvn(["1", "0"], _I2, 2, 1), "theta"),
    "sigma str, cholesky": (lambda: dist.cholesky([["1", "0"], ["0", "1"]]), "sigma"),
    "sigma object, sample_mvn": (
        lambda: dist.sample_mvn([0.0, 0.0], np.array([[1, 0], [0, None]]), 2, 1), "sigma"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_bad_arguments_raise_value_error_naming_them(case):
    call, name = _BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=rf"(^|\W){name}\W"):
        call()


def test_real_array_check_reads_only_the_dtype():
    # a float array passes through as the same object, so a replicate-sized
    # block is neither copied nor scanned; integer arrays become floats
    block = np.zeros((4096, 100))
    assert dist._check_real_array(block, "y") is block
    ints = dist._check_real_array([3, 1], "y")
    assert ints.dtype == np.float64 and ints.tolist() == [3.0, 1.0]
    assert sosci.select_top_k(np.array([3, 1], dtype=np.int32), 1) == (0,)
