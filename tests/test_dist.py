import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

import sosci
from sosci import dist

from _oracles import bisect_normal_quantile, series_normal_cdf, t_cdf_quad


def test_cdf_center_and_symmetry():
    assert dist.std_normal_cdf(0.0) == 0.5
    for x in np.linspace(-9.0, 9.0, 61):
        assert abs(dist.std_normal_cdf(x) + dist.std_normal_cdf(-x) - 1.0) <= 1e-12


def test_cdf_against_series_oracle():
    for x in np.arange(-8.0, 8.01, 0.25):
        assert abs(dist.std_normal_cdf(float(x)) - series_normal_cdf(float(x))) <= 1e-12


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


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
def test_quantile_domain(p):
    with pytest.raises(ValueError):
        dist.std_normal_quantile(p)


def test_t_cdf_symmetry_and_center():
    assert dist.student_t_cdf(0.0, 5) == 0.5
    for x in (0.3, 1.0, 2.7, 6.0):
        assert dist.student_t_cdf(-x, 5) + dist.student_t_cdf(x, 5) == pytest.approx(
            1.0, abs=1e-12)


def test_t_quantile_frozen_point():
    # oracle: bisection on the quadrature CDF of the t5 density
    assert dist.student_t_quantile(0.975, 5) == pytest.approx(2.570581836, abs=1e-6)
    assert dist.student_t_quantile(0.975, 5) == pytest.approx(2.5706, abs=1e-3)


def test_t_cdf_against_quadrature_oracle():
    for df in (1, 5, 30):
        for x in (-3.0, -0.7, 0.4, 2.2):
            assert dist.student_t_cdf(x, df) == pytest.approx(
                t_cdf_quad(x, df), abs=1e-10)


def test_t_round_trip():
    for df in (1, 2, 5, 50):
        for p in (1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6):
            x = dist.student_t_quantile(p, df)
            assert abs(dist.student_t_cdf(x, df) - p) <= 1e-8


@pytest.mark.parametrize("df", [0, -1, 2.5])
def test_t_df_domain(df):
    with pytest.raises(ValueError):
        dist.student_t_cdf(0.0, df)
    with pytest.raises(ValueError):
        dist.student_t_quantile(0.5, df)


def test_families():
    fam = dist.normal_family()
    assert fam.name == "normal"
    assert fam.quantile(0.975) == dist.std_normal_quantile(0.975)
    t5 = dist.student_t_family(5)
    assert t5.name == "student_t(5)"


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


def test_sample_mvt_large_df_is_normal():
    y = dist.sample_mvt(np.zeros(2), np.eye(2), 10**6, 50000, 17)[:, 0]
    assert stats.kstest(y, "norm").statistic < 0.01


def test_sample_mvt_replay_and_shift():
    y = dist.sample_mvt(np.array([2.0, 0.0]), np.eye(2), 5, 50000, 19)
    again = dist.sample_mvt(np.array([2.0, 0.0]), np.eye(2), 5, 50000, 19)
    assert y.tobytes() == again.tobytes()
    assert np.median(y[:, 0]) == pytest.approx(2.0, abs=0.05)
    assert np.median(y[:, 1]) == pytest.approx(0.0, abs=0.05)


def test_sample_mvt_single_mixing_variable_per_row():
    # with a huge shared chi-square effect, coordinates of a row are scaled
    # together: the ratio of two coordinates of t-draws with identical theta
    # stays the same as for the underlying normals
    sigma = np.eye(2)
    t_draws = dist.sample_mvt(np.zeros(2), sigma, 1, 2000, 23)
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


def test_covariance_model_validation():
    dist.CovarianceModel("ar", 10, -0.5)
    with pytest.raises(ValueError):
        dist.CovarianceModel("ar", 10, 1.0)
    with pytest.raises(ValueError):
        dist.CovarianceModel("block", 10, -0.1)
    with pytest.raises(ValueError):
        dist.CovarianceModel("block", 15, 0.5, block_size=10)
    with pytest.raises(ValueError):
        dist.CovarianceModel("banded", 10)
    with pytest.raises(ValueError):
        dist.CovarianceModel("ar", 0)


_ONE_INTEGER = {
    # entry point -> call with n as its m or k
    "bonferroni_halfwidth m": lambda n: sosci.bonferroni_halfwidth(n, 0.05),
    "sidak_halfwidth m": lambda n: sosci.sidak_halfwidth(n, 0.05),
    "spec_from_delta m": lambda n: sosci.spec_from_delta(n, 1, 0.05, 0.5),
    "method_offsets k": lambda n: sosci.method_offsets("sos_shortest", 10, n, 0.05),
    "fcw_constants k": lambda n: sosci.fcw_constants(10, n, 0.05),
    "select_top_k k": lambda n: sosci.select_top_k([1.0, 2.0, 3.0], n),
    "run_coverage k": lambda n: sosci.run_coverage(
        sosci.Scenario(m=4, covariance=dist.CovarianceModel("ar", 4, 0.0), reps=50,
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


@pytest.mark.parametrize("bad", [1.5, True])
@pytest.mark.parametrize("field", ["dimension", "block_size"])
def test_covariance_model_integer_fields(field, bad):
    fields = {"kind": "block", "dimension": 4, "rho": 0.2, "block_size": 2}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        dist.CovarianceModel(**{**fields, field: bad})
    assert dist.CovarianceModel(**{**fields, field: np.int64(fields[field])}) == \
        dist.CovarianceModel(**fields)


_I2 = np.eye(2)
_GEN = np.random.default_rng(0)
_SCN = sosci.Scenario(m=4, covariance=dist.CovarianceModel("ar", 4, 0.0), reps=50, seed=1)
_FIXED = {"m": 4, "covariance": dist.CovarianceModel("ar", 4, 0.0), "reps": 50, "seed": 1,
          "theta_rule": "fixed"}

_BAD_ARGUMENTS = {
    # case -> (call, the argument its message must name)
    "alpha None, k_of_m_intervals": (lambda: sosci.k_of_m_intervals([1.0, 2.0], 1, None), "alpha"),
    "alpha str, method_offsets": (lambda: sosci.method_offsets("sidak", 10, 2, "0.5"), "alpha"),
    "alpha None, fcw_constants": (lambda: sosci.fcw_constants(10, 2, None), "alpha"),
    "alpha str, optimize_delta": (lambda: sosci.optimize_delta(10, 2, "0.5"), "alpha"),
    "alpha str, c_plus": (lambda: sosci.c_plus(0.0, "0.05"), "alpha"),
    "alpha None, abs_max_interval": (lambda: sosci.abs_max_interval([1.0, 2.0], None), "alpha"),
    "alpha None, run_coverage": (lambda: sosci.run_coverage(_SCN, 2, "sidak", None), "alpha"),
    "delta None, spec_from_delta": (lambda: sosci.spec_from_delta(10, 2, 0.05, None), "delta"),
    "delta str, interval_length": (lambda: sosci.interval_length(10, 2, 0.05, "0.5"), "delta"),
    "delta str, k_of_m_intervals": (
        lambda: sosci.k_of_m_intervals([1.0, 2.0], 1, 0.05, "fixed", delta="0.5"), "delta"),
    "p None, std_normal_quantile": (lambda: dist.std_normal_quantile(None), "p"),
    "p str, student_t_quantile": (lambda: dist.student_t_quantile("0.5", 5), "p"),
    "df True, student_t_family": (lambda: dist.student_t_family(True), "df"),
    "df None, student_t_cdf": (lambda: dist.student_t_cdf(0.0, None), "df"),
    "df True, sample_mvt": (lambda: dist.sample_mvt(np.zeros(2), _I2, True, 3, 1), "df"),
    "family None, spec_from_delta": (
        lambda: sosci.spec_from_delta(10, 2, 0.05, 0.5, None), "family"),
    "family None, interval_length": (
        lambda: sosci.interval_length(10, 2, 0.05, 0.5, None), "family"),
    "family None, optimize_delta": (lambda: sosci.optimize_delta(10, 2, 0.05, None), "family"),
    "family None, method_tail_levels": (
        lambda: sosci.method_tail_levels("sos_shortest", 10, 2, 0.05, None), "family"),
    "seed 1.5, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, 3, 1.5), "seed"),
    "seed str, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, 3, "7"), "seed"),
    "seed Generator, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, 3, _GEN), "seed"),
    "seed True, seeded_rng": (lambda: dist.seeded_rng(True), "seed"),
    "seed Generator, build_covariance": (
        lambda: sosci.build_covariance(dist.CovarianceModel("time_decay", 3), _GEN), "seed"),
    "seed 1.5, build_covariance": (
        lambda: sosci.build_covariance(dist.CovarianceModel("time_decay", 3), 1.5), "seed"),
    "seed 1.5, estimate_b_probability": (
        lambda: sosci.estimate_b_probability([0.0, 0.0], 1.0, 10, 1.5), "seed"),
    "reps True, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, True, 1), "reps"),
    "reps 2.5, sample_mvn": (lambda: dist.sample_mvn(np.zeros(2), _I2, 2.5, 1), "reps"),
    "reps None, sample_mvt": (lambda: dist.sample_mvt(np.zeros(2), _I2, 5, None, 1), "reps"),
    "n_jobs 2.5, run_coverage": (
        lambda: sosci.run_coverage(_SCN, 2, "sidak", n_jobs=2.5), "n_jobs"),
    "n_jobs True, run_coverage": (
        lambda: sosci.run_coverage(_SCN, 2, "sidak", n_jobs=True), "n_jobs"),
    "method int, run_coverage": (lambda: sosci.run_coverage(_SCN, 2, 5), "method"),
    "method None, run_coverage": (lambda: sosci.run_coverage(_SCN, 2, None), "method"),
    "theta nan, sample_mvn": (lambda: dist.sample_mvn([math.nan, 0.0], _I2, 3, 1), "theta"),
    "theta str, Scenario": (lambda: sosci.Scenario(**_FIXED, theta=("1", 0.0, 0.0, 0.0)), "theta"),
    "theta int, Scenario": (lambda: sosci.Scenario(**_FIXED, theta=5), "theta"),
    "eta str, Scenario": (lambda: dataclasses.replace(_SCN, eta="1"), "eta"),
    "eta None, Scenario": (lambda: dataclasses.replace(_SCN, eta=None), "eta"),
    "eta True, Scenario": (lambda: dataclasses.replace(_SCN, eta=True), "eta"),
    "rho str, CovarianceModel": (lambda: dist.CovarianceModel("ar", 4, "0.1"), "rho"),
    "rho None, CovarianceModel": (lambda: dist.CovarianceModel("block", 4, None, 2), "rho"),
    "rho nan, time_decay CovarianceModel": (
        lambda: dist.CovarianceModel("time_decay", 4, math.nan), "rho"),
    "block_size 0, ar CovarianceModel": (
        lambda: dist.CovarianceModel("ar", 4, 0.0, block_size=0), "block_size"),
    "c None, b_region_probability": (lambda: sosci.b_region_probability([0.0, 0.0], None), "c"),
    "c True, b_region_probability": (lambda: sosci.b_region_probability([0.0, 0.0], True), "c"),
    "c str, estimate_b_probability": (
        lambda: sosci.estimate_b_probability([0.0, 0.0], "1", 10, 1), "c"),
    "a None, c_plus": (lambda: sosci.c_plus(None, 0.05), "a"),
    "a True, c_plus": (lambda: sosci.c_plus(True, 0.05), "a"),
    "a_max None, cplus_curve": (lambda: sosci.cplus_curve(0.05, None), "a_max"),
    "step str, CPlusCurve.build": (lambda: sosci.CPlusCurve.build(0.05, 1.0, "0.5"), "step"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_bad_arguments_raise_value_error_naming_them(case):
    call, name = _BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=rf"(^|\W){name}\W"):
        call()
