import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from sosci import (
    CovarianceModel,
    CoverageReport,
    Scenario,
    build_covariance,
    load_scenario,
    method_offsets,
    method_tail_levels,
    resolve_theta,
    run_coverage,
    scenario_from_dict,
)
from sosci import mc
from sosci.bivariate import c_plus
from sosci.dist import cholesky, draw_replicates, seeded_rng, student_t_family

from _oracles import estimate_b_probability, exact_sos_miss, larger_of_two_miss_quad


def iid_scenario(m=20, reps=5000, seed=11, **kw):
    cov = CovarianceModel("block", m, 0.0, block_size=1)
    return Scenario(m=m, covariance=cov, reps=reps, seed=seed, **kw)


def test_exact_rates_agree_with_the_larger_of_two_quadrature():
    # the two oracles share no code path: at m = 2, k = 1 the top-k
    # recursion and the direct quadrature give one miss, and one interval
    # selected makes the FCR that miss too
    c = 2.1
    for g in (0.0, 0.5, 2.0, 6.0):
        exact = exact_sos_miss([g, 0.0], 1, c, c)
        assert exact["sos_rate"] == pytest.approx(larger_of_two_miss_quad(g, c), abs=1e-14)
        assert exact["fcr_rate"] == pytest.approx(exact["sos_rate"], abs=1e-14)
        assert exact["lower_miss_rate"] + exact["upper_miss_rate"] == pytest.approx(
            exact["sos_rate"], abs=1e-14)  # one interval misses on one side only


@pytest.mark.parametrize("m, k", [(10, 1), (10, 2), (10, 10), (100, 1), (100, 2), (100, 10)])
def test_independent_coverage_matches_the_exact_rates(m, k):
    # the first k of m independent parameters sit 1.5 above the rest, so the
    # wrong coordinates are often selected.  Each rate is a binomial mean, or
    # for the FCR a mean of k of them, whose se is at most the binomial one.
    # fcw_shortest, unadjusted and fcr_selection_aware claim no SoS bound at
    # every theta, and are left out
    theta = tuple(1.5 if i < k else 0.0 for i in range(m))
    scenario = Scenario(m=m, covariance=CovarianceModel("ar", m, 0.0), reps=20_000, seed=7,
                        theta=theta)
    methods = ["sidak", "sos_symmetric", "sos_shortest", "fcw_symmetric"]
    for report in run_coverage(scenario, k, methods):
        exact = exact_sos_miss(theta, k, *method_offsets(report.method, m, k, 0.05))
        for name, rate in exact.items():
            se = math.sqrt(rate * (1.0 - rate) / scenario.reps)
            assert abs(getattr(report, name) - rate) <= 4.0 * se, (report.method, name, rate)


def _least_favourable_candidates():
    # (m, k, theta): the gap family, j of m parameters g above the rest, at
    # j = k - 1 and j = k, where a finer scan at m = 10 (g on a 0.25 grid up
    # to 12, j in {1, k - 1, k, k + 1, m / 2, m - 1}, k in {1, 2, 5, 9}) found
    # every method's worst gap; all-equal parameters; and seeded random ones.
    # m = 100 is sampled at two theta only, to keep the search within seconds
    yield 2, 1, (0.0, 0.0)
    for g in np.arange(0.5, 12.01, 0.5):
        yield 2, 1, (g, 0.0)
    for k in (1, 2, 9):
        yield 10, k, (0.0,) * 10
        for j in sorted({k - 1, k} - {0}):
            for g in (1.0, 3.0, 6.0, 12.0):
                yield 10, k, (g,) * j + (0.0,) * (10 - j)
    rng = np.random.default_rng(23)
    for _ in range(5):
        yield 10, 2, tuple(rng.uniform(0.0, 6.0, 10))
    yield 100, 1, (0.0,) * 100
    yield 100, 10, (12.0,) * 9 + (0.0,) * 91


@pytest.mark.parametrize("method", ["bonferroni", "sidak", "sos_symmetric", "sos_shortest",
                                    "fcw_symmetric"])
def test_exact_miss_stays_within_alpha_at_least_favourable_theta(method):
    # the exact SoS miss over finite gaps, whose infinite limit is what the
    # FCW solve constrains.  Over these candidates the worst miss / alpha is
    # 0.896 (bonferroni), 0.910 (sidak), 0.986 (sos_symmetric), 0.946
    # (sos_shortest) and 1 + 1.1e-11 (fcw_symmetric, exact at several theta,
    # worst at m = 2, g = 6.5).  fcw_shortest is left out: its solve
    # constrains one configuration only, and it misses at 50 alpha at
    # (10, 1, 0.01) with j = 1, g = 12 (ROADMAP Direction 1)
    for alpha in (0.01, 0.05, 0.2):
        for m, k, theta in _least_favourable_candidates():
            c_lo, c_up = method_offsets(method, m, k, alpha)
            miss = exact_sos_miss(theta, k, c_lo, c_up)["sos_rate"]
            assert miss <= alpha + 1e-9, (m, k, alpha, theta, miss / alpha)


def test_build_covariance_ar_exact():
    sigma = build_covariance(CovarianceModel("ar", 3, 0.7), seed=0)
    assert np.array_equal(np.diag(sigma), np.ones(3))
    assert sigma[0, 1] == 0.7 and sigma[1, 2] == 0.7
    expected = np.array([[1.0, 0.7, 0.49], [0.7, 1.0, 0.7], [0.49, 0.7, 1.0]])
    assert np.allclose(sigma, expected, rtol=0.0, atol=1e-15)


def test_build_covariance_ar_negative_rho_exact():
    sigma = build_covariance(CovarianceModel("ar", 3, -0.5), seed=0)
    assert sigma[0, 1] == -0.5
    assert sigma[0, 2] == 0.25
    assert sigma[1, 0] == -0.5
    assert np.array_equal(np.diag(sigma), np.ones(3))


def test_build_covariance_ar_zero_rho_is_identity():
    assert np.array_equal(build_covariance(CovarianceModel("ar", 4, 0.0), 0),
                          np.eye(4))


def test_build_covariance_time_decay():
    model = CovarianceModel("time_decay", 6)
    sigma = build_covariance(model, seed=5)
    diag = np.diag(sigma)
    assert np.all((diag >= 1.0) & (diag <= 3.0))
    # the diagonal scaling cancels in the correlation, which is |i-j|^-5 / 2
    corr = sigma / np.sqrt(np.outer(diag, diag))
    assert corr[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert corr[0, 2] == pytest.approx(0.5 * 2.0 ** -5, abs=1e-12)
    assert np.array_equal(sigma, build_covariance(model, seed=5))
    assert not np.array_equal(sigma, build_covariance(model, seed=6))


def test_build_covariance_caps_dimension_before_allocating():
    # the child's address space is capped at 1 GiB, so an m x m build begun
    # before the cap is checked dies with a MemoryError (298 GiB at m = 200000)
    pytest.importorskip("resource")  # RLIMIT_AS is POSIX-only
    code = ("import resource\n"
            "from sosci import CovarianceModel, build_covariance\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "try:\n"
            "    build_covariance(CovarianceModel('ar', 200000, 0.5), 1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "dimension must be at most 4096, got 200000\n"


def test_build_covariance_block():
    sigma = build_covariance(CovarianceModel("block", 4, 0.5, block_size=2), 0)
    expected = np.array([
        [1.0, 0.5, 0.0, 0.0],
        [0.5, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.5],
        [0.0, 0.0, 0.5, 1.0],
    ])
    assert np.array_equal(sigma, expected)
    assert np.array_equal(
        build_covariance(CovarianceModel("block", 4, 0.0, block_size=2), 0),
        np.eye(4))


def test_scenario_validation():
    cov = CovarianceModel("ar", 10, 0.3)
    with pytest.raises(ValueError):
        Scenario(m=5, covariance=cov, reps=100, seed=1)  # dimension mismatch
    with pytest.raises(ValueError):
        Scenario(m=10, covariance=cov, reps=0, seed=1)
    with pytest.raises(ValueError):
        Scenario(m=10, covariance=cov, reps=100, seed=-1)
    with pytest.raises(ValueError, match="must be 0 beside a given theta, got eta=1.0"):
        Scenario(m=10, covariance=cov, reps=100, seed=1, eta=1.0, theta=(0.0,) * 10)
    with pytest.raises(ValueError):
        Scenario(m=10, covariance=cov, reps=100, seed=1, theta=(0.0,) * 9)
    with pytest.raises(ValueError):
        Scenario(m=10, covariance=cov, reps=100, seed=1, eta=-1.0)
    with pytest.raises(ValueError):
        Scenario(m=10, covariance=cov, reps=100, seed=1, panel="all_t")
    with pytest.raises(ValueError):
        Scenario(m=9, covariance=CovarianceModel("ar", 9, 0.3), reps=100,
                 seed=1, panel="half_normal_half_t5")


def test_resolve_theta_fixed_and_uniform():
    fixed = iid_scenario(m=3, theta=(1.0, -2.0, 0.5))
    assert np.array_equal(resolve_theta(fixed), [1.0, -2.0, 0.5])

    uniform = iid_scenario(m=50, eta=7.0)
    theta = resolve_theta(uniform)
    assert theta.shape == (50,)
    assert np.all(np.abs(theta) <= 7.0)
    assert np.array_equal(theta, resolve_theta(uniform))
    # the same scenario at a different eta rescales the same underlying draw
    theta40 = resolve_theta(iid_scenario(m=50, eta=40.0))
    assert np.allclose(theta40, theta * 40.0 / 7.0)

    assert np.array_equal(resolve_theta(iid_scenario(m=4, eta=0.0)), np.zeros(4))


def test_coverage_report_rates():
    report = CoverageReport(method="sidak", k=4, alpha=0.05, reps=1000, seed=9,
                            sos_misses=50, lower_events=30, upper_events=25,
                            missed_intervals=60)
    assert report.sos_rate == 0.05
    assert report.fcr_rate == 60 / 4000
    assert report.lower_miss_rate == 0.03
    assert report.upper_miss_rate == 0.025
    assert report.se == pytest.approx(np.sqrt(0.05 * 0.95 / 1000))
    d = report.to_dict()
    assert d["sos_rate"] == 0.05 and d["method"] == "sidak" and d["seed"] == 9


def test_run_coverage_replay_and_parallel_equivalence():
    scn = iid_scenario(m=10, reps=10000, seed=21, eta=3.0)
    seq = run_coverage(scn, k=3, method="sos_symmetric")
    again = run_coverage(scn, k=3, method="sos_symmetric")
    par = run_coverage(scn, k=3, method="sos_symmetric", n_jobs=4)
    assert seq.to_dict() == again.to_dict()
    assert seq.to_dict() == par.to_dict()
    assert json.dumps(seq.to_dict()) == json.dumps(par.to_dict())


def test_run_coverage_count_consistency():
    scn = iid_scenario(m=10, reps=8000, seed=33, eta=2.0)
    report = run_coverage(scn, k=4, method="unadjusted")
    assert report.sos_misses <= report.lower_events + report.upper_events
    assert report.sos_misses <= report.missed_intervals
    assert report.missed_intervals <= 4 * report.reps
    assert report.k == 4 and report.reps == 8000


def test_run_coverage_single_replicate():
    scn = iid_scenario(m=5, reps=1, seed=2)
    report = run_coverage(scn, k=2, method="bonferroni")
    assert report.sos_misses in (0, 1)
    assert report.reps == 1


def test_run_coverage_unselected_interval_calibration():
    # m = 1: no selection effect, the unadjusted interval must miss at alpha
    scn = iid_scenario(m=1, reps=40000, seed=44)
    report = run_coverage(scn, k=1, method="unadjusted")
    assert report.sos_rate == pytest.approx(0.05, abs=3 * report.se + 1e-9)
    # and the two sides split evenly
    assert report.lower_miss_rate == pytest.approx(0.025, abs=0.005)


def test_run_coverage_sidak_iid_calibration():
    # independent coordinates with k = m: Sidak coverage is exact
    scn = iid_scenario(m=10, reps=40000, seed=55)
    report = run_coverage(scn, k=10, method="sidak")
    bound = 3 * np.sqrt(0.05 * 0.95 / scn.reps)
    assert report.sos_rate == pytest.approx(0.05, abs=bound)


def test_run_coverage_sos_bound_under_dependence():
    cov = CovarianceModel("ar", 30, 0.8)
    scn = Scenario(m=30, covariance=cov, reps=20000, seed=66, eta=5.0)
    report = run_coverage(scn, k=5, method="sos_symmetric")
    assert report.sos_rate <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / scn.reps)


def test_run_coverage_argument_errors():
    scn = iid_scenario(m=6, reps=100, seed=1)
    with pytest.raises(ValueError):
        run_coverage(scn, k=0, method="sidak")
    with pytest.raises(ValueError):
        run_coverage(scn, k=7, method="sidak")
    with pytest.raises(ValueError):
        run_coverage(scn, k=1, method="median")
    with pytest.raises(ValueError):
        run_coverage(scn, k=1, method="sidak", alpha=0.0)
    with pytest.raises(ValueError):
        run_coverage(scn, k=1, method="sidak", n_jobs=0)


def test_run_coverage_caps_n_jobs_before_building_anything(monkeypatch):
    # n_jobs at the cap is accepted and reaches the thread pool
    class PoolBuilt(Exception):
        pass

    def pool(*args, **kwargs):
        raise PoolBuilt

    scn = iid_scenario(m=6, reps=100, seed=1)
    monkeypatch.setattr(mc, "ThreadPoolExecutor", pool)
    with pytest.raises(PoolBuilt):
        run_coverage(scn, k=1, method="sidak", n_jobs=64)


def test_run_coverage_caps_n_jobs_before_the_covariance(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("covariance built before n_jobs was checked")

    monkeypatch.setattr(mc, "_covariance_and_factor", build)
    with pytest.raises(ValueError, match="n_jobs must be at most 64, got 65"):
        run_coverage(iid_scenario(m=6, reps=100, seed=1), k=1, method="sidak", n_jobs=65)


@pytest.mark.parametrize("panel, factorizations", [("all_normal", 1),
                                                   ("half_normal_half_t5", 3)])
def test_run_coverage_factors_the_all_normal_covariance_once(monkeypatch, panel, factorizations):
    # the all-normal panel draws with the factor that checked the covariance;
    # the mixed panel factors each half as well
    calls = []

    def counted(sigma):
        calls.append(sigma.shape)
        return cholesky(sigma)

    scn = Scenario(m=6, covariance=CovarianceModel("ar", 6, 0.5), reps=500, seed=3, panel=panel)
    expected = run_coverage(scn, k=2, method="sidak")
    monkeypatch.setattr(mc, "cholesky", counted)
    assert run_coverage(scn, k=2, method="sidak") == expected
    assert len(calls) == factorizations


def test_run_coverage_abs_max_requirements():
    with pytest.raises(ValueError):
        run_coverage(iid_scenario(m=3, reps=100, seed=1), k=1, method="abs_max")
    corr = Scenario(m=2, covariance=CovarianceModel("ar", 2, 0.5), reps=100,
                    seed=1, theta=(0.0, 0.0))
    with pytest.raises(ValueError):
        run_coverage(corr, k=1, method="abs_max")
    mixed = Scenario(m=2, covariance=CovarianceModel("block", 2, 0.0, block_size=1),
                     reps=100, seed=1, panel="half_normal_half_t5")
    with pytest.raises(ValueError):
        run_coverage(mixed, k=1, method="abs_max")
    # abs-max selects one coordinate; k = 2 is an error, not coerced to 1
    with pytest.raises(ValueError, match="k must be 1"):
        run_coverage(iid_scenario(m=2, reps=100, seed=1), k=2, method="abs_max")


_LIST_CASES = {
    # name: (scenario, k, methods)
    "all_normal": (
        Scenario(m=20, covariance=CovarianceModel("ar", 20, 0.5), reps=9000,
                 seed=111, eta=5.0),
        3, ["sos_symmetric", "sos_shortest", "sidak", "fcw_shortest", "unadjusted"]),
    "mixed_panel": (
        Scenario(m=20, covariance=CovarianceModel("block", 20, 0.5, block_size=10),
                 reps=9000, seed=112, eta=5.0, panel="half_normal_half_t5"),
        4, ["sos_symmetric", "bonferroni", "sos_shortest", "fcr_selection_aware"]),
    "abs_max_and_unadjusted": (
        Scenario(m=2, covariance=CovarianceModel("block", 2, 0.0, block_size=1),
                 reps=9000, seed=113, theta=(0.5, -1.0)),
        1, ["abs_max", "unadjusted"]),
}


@pytest.mark.parametrize("n_jobs", [1, 4])
@pytest.mark.parametrize("name", sorted(_LIST_CASES))
def test_run_coverage_list_matches_single_calls(name, n_jobs):
    scenario, k, methods = _LIST_CASES[name]
    together = run_coverage(scenario, k, methods, n_jobs=n_jobs)
    assert [r.to_dict() for r in together] == [
        run_coverage(scenario, k, method).to_dict() for method in methods]


def test_run_coverage_checks_every_label_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("replicates drawn before every label was checked")

    monkeypatch.setattr(mc, "draw_replicates", no_draws)
    scn = iid_scenario(m=6, reps=100, seed=1)
    with pytest.raises(ValueError, match="empty"):
        run_coverage(scn, k=1, method=[])
    with pytest.raises(ValueError):
        run_coverage(scn, k=1, method=["sidak", "median"])
    with pytest.raises(ValueError):
        run_coverage(scn, k=1, method=["sidak", "abs_max"])  # m != 2


def test_run_coverage_fcw_rejects_mixed_panel():
    scn = iid_scenario(m=10, reps=100, seed=1, panel="half_normal_half_t5")
    with pytest.raises(ValueError):
        run_coverage(scn, k=2, method="fcw_symmetric")


@pytest.mark.parametrize("label", ["sos_symmetric", "sos_shortest"])
def test_mixed_panel_halves_share_tail_levels(monkeypatch, label):
    # the engine's per-coordinate offsets, read where it counts misses; unit
    # variances make them the offsets themselves, bit for bit
    seen = []
    count = mc._count_misses

    def spy(y_sel, th_sel, cols, c_lo, c_up):
        seen.append((c_lo, c_up))
        return count(y_sel, th_sel, cols, c_lo, c_up)

    monkeypatch.setattr(mc, "_count_misses", spy)
    m, k, alpha, half = 10, 2, 0.05, 5
    run_coverage(iid_scenario(m=m, reps=10, panel="half_normal_half_t5"), k, label, alpha)
    [(c_lo, c_up)] = seen
    normal = method_offsets(label, m, k, alpha)
    t5 = [-student_t_family(5).quantile(p) for p in method_tail_levels(label, m, k, alpha)]
    assert c_lo.tolist() == [normal[0]] * half + [t5[0]] * half
    assert c_up.tolist() == [normal[1]] * half + [t5[1]] * half
    # the t half is wider than the normal half at the same levels
    assert c_lo[half] > c_lo[0] and c_up[half] > c_up[0]


_TIED_CASES = {
    # name: (scenario, k, methods); integer theta and integer noise fill the
    # blocks with ties, and 4596 reps make a full block and a remainder
    "time_decay_scales": (
        Scenario(m=8, covariance=CovarianceModel("time_decay", 8), reps=4596, seed=21,
                 theta=(0.0, 1.0, 1.0, -1.0, 2.0, 0.0, 0.0, 1.0)),
        3, ["bonferroni", "sos_symmetric", "sos_shortest", "fcw_symmetric"]),
    "mixed_panel": (
        Scenario(m=8, covariance=CovarianceModel("ar", 8, 0.3), reps=4596, seed=22,
                 theta=(1.0, 0.0, 0.0, 2.0, 1.0, 1.0, -1.0, 0.0),
                 panel="half_normal_half_t5"),
        2, ["sos_shortest", "unadjusted"]),
    "every_coordinate": (
        Scenario(m=4, covariance=CovarianceModel("ar", 4, 0.0), reps=4596, seed=23,
                 theta=(0.0, 1.0, 0.0, -1.0)),
        4, ["sidak"]),
    "abs_max_and_unadjusted": (
        Scenario(m=2, covariance=CovarianceModel("ar", 2, 0.0), reps=4596, seed=24,
                 theta=(1.0, -1.0)),
        1, ["abs_max", "unadjusted"]),
}


@pytest.mark.parametrize("name", sorted(_TIED_CASES))
def test_run_coverage_counts_match_a_per_replicate_reference(monkeypatch, name):
    scenario, k, methods = _TIED_CASES[name]
    m, theta, alpha = scenario.m, list(scenario.theta), 0.05
    drawn = []  # each call's integer-valued draw, in the order the engine asks

    def tied_draws(rng, th, lower, size, df, out, normals):
        out[...] = th + rng.integers(-4, 5, size=out.shape)
        drawn.append(out.tolist())
        return out

    monkeypatch.setattr(mc, "draw_replicates", tied_draws)
    reports = run_coverage(scenario, k, methods, alpha)
    halves = 2 if scenario.panel == "half_normal_half_t5" else 1
    rows = [sum(parts, []) for b in range(0, len(drawn), halves)
            for parts in zip(*drawn[b:b + halves])]
    assert len(rows) == scenario.reps

    scales = np.sqrt(np.diag(build_covariance(scenario.covariance, scenario.seed))).tolist()
    for report, method in zip(reports, methods):
        if method == "abs_max":
            c_lo = c_up = [s * c_plus(abs(t) / s, alpha) for s, t in zip(scales, theta)]
        elif halves == 2:
            t5 = [-student_t_family(5).quantile(p)
                  for p in method_tail_levels(method, m, k, alpha)]
            c_lo, c_up = ([c] * (m // 2) + [c_t] * (m // 2)
                          for c, c_t in zip(method_offsets(method, m, k, alpha), t5))
        else:
            c_lo, c_up = ([s * c for s in scales] for c in method_offsets(method, m, k, alpha))
        key = abs if method == "abs_max" else (lambda v: v)
        sos = low = up = missed = 0
        for row in rows:
            chosen = sorted(range(m), key=lambda i: -key(row[i]))[:k]  # stable
            lows = [(row[i] - c_lo[i]) > theta[i] for i in chosen]
            ups = [(row[i] + c_up[i]) < theta[i] for i in chosen]
            sos += any(lows) or any(ups)
            low += any(lows)
            up += any(ups)
            missed += sum(a or b for a, b in zip(lows, ups))
        counts = (report.sos_misses, report.lower_events, report.upper_events,
                  report.missed_intervals)
        assert counts == (sos, low, up, missed), method
        assert 0 < sos < scenario.reps  # the intervals miss sometimes, not always


def test_run_coverage_mixed_panel_runs_and_replays():
    cov = CovarianceModel("block", 20, 0.5, block_size=10)
    scn = Scenario(m=20, covariance=cov, reps=5000, seed=77, eta=2.0,
                   panel="half_normal_half_t5")
    a = run_coverage(scn, k=3, method="sos_symmetric")
    b = run_coverage(scn, k=3, method="sos_symmetric", n_jobs=2)
    assert a.to_dict() == b.to_dict()
    assert a.sos_rate <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / scn.reps)


_FROZEN_CASES = {
    # name: (scenario, k, method, alpha, expected to_dict())
    "normal_sos_shortest": (
        Scenario(m=20, covariance=CovarianceModel("ar", 20, 0.5), reps=10000,
                 seed=101, eta=20.0),
        3, "sos_shortest", 0.05,
        {"method": "sos_shortest", "k": 3, "alpha": 0.05, "reps": 10000, "seed": 101,
         "sos_misses": 190, "lower_events": 57, "upper_events": 133,
         "missed_intervals": 194, "sos_rate": 0.019, "fcr_rate": 0.006466666666666667,
         "lower_miss_rate": 0.0057, "upper_miss_rate": 0.0133,
         "se": 0.0013652472303579304}),
    "mixed_sos_shortest": (
        Scenario(m=20, covariance=CovarianceModel("block", 20, 0.5, block_size=10),
                 reps=10000, seed=102, eta=20.0, panel="half_normal_half_t5"),
        3, "sos_shortest", 0.05,
        {"method": "sos_shortest", "k": 3, "alpha": 0.05, "reps": 10000, "seed": 102,
         "sos_misses": 179, "lower_events": 67, "upper_events": 115,
         "missed_intervals": 190, "sos_rate": 0.0179, "fcr_rate": 0.006333333333333333,
         "lower_miss_rate": 0.0067, "upper_miss_rate": 0.0115,
         "se": 0.0013258804621835258}),
    "fcw_symmetric": (
        Scenario(m=20, covariance=CovarianceModel("ar", 20, 0.3), reps=10000,
                 seed=103, eta=20.0),
        4, "fcw_symmetric", 0.05,
        {"method": "fcw_symmetric", "k": 4, "alpha": 0.05, "reps": 10000, "seed": 103,
         "sos_misses": 192, "lower_events": 115, "upper_events": 77,
         "missed_intervals": 195, "sos_rate": 0.0192, "fcr_rate": 0.004875,
         "lower_miss_rate": 0.0115, "upper_miss_rate": 0.0077,
         "se": 0.0013722740251130602}),
    "abs_max": (
        Scenario(m=2, covariance=CovarianceModel("block", 2, 0.0, block_size=1),
                 reps=10000, seed=104, theta=(0.5, -1.0)),
        1, "abs_max", 0.1,
        {"method": "abs_max", "k": 1, "alpha": 0.1, "reps": 10000, "seed": 104,
         "sos_misses": 956, "lower_events": 468, "upper_events": 488,
         "missed_intervals": 956, "sos_rate": 0.0956, "fcr_rate": 0.0956,
         "lower_miss_rate": 0.0468, "upper_miss_rate": 0.0488,
         "se": 0.0029404190177592035}),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_CASES))
def test_run_coverage_frozen_counts(name):
    # exact counts pin the draw order, block layout, offsets and tuned delta:
    # 10000 reps span two full blocks and one partial block
    scenario, k, method, alpha, expected = _FROZEN_CASES[name]
    assert run_coverage(scenario, k, method, alpha).to_dict() == expected


def test_mixed_panel_marginals():
    # first half: standard normal; second half: t5 (unit block covariance)
    cov = CovarianceModel("block", 10, 0.0, block_size=1)
    scn = Scenario(m=10, covariance=cov, reps=30000, seed=88,
                   panel="half_normal_half_t5")
    sigma = build_covariance(cov, scn.seed)
    half = scn.m // 2
    # the engine's block 0: normal half, then t half, on one generator
    rng = seeded_rng(scn.seed, 3, 0)
    y = np.hstack([
        draw_replicates(rng, np.zeros(half), cholesky(sigma[:half, :half]), 30000, None),
        draw_replicates(rng, np.zeros(half), cholesky(sigma[half:, half:]), 30000, mc._T5_DF),
    ])
    assert stats.kstest(y[:, 0], "norm").statistic < 0.01
    assert stats.kstest(y[:, 9], "t", args=(5,)).statistic < 0.01
    assert stats.kstest(y[:, 9], "norm").statistic > 0.02  # tails are heavier


@pytest.mark.parametrize("size", [1, 1808, 4096])
def test_draw_replicates_into_buffers_matches_allocating_call(size):
    # the engine's mixed-panel block: a normal half, then a t half, each drawn
    # into a column slice of one block from flat normals longer than needed
    # (1808 is the remainder block of 10000 reps)
    half = 6
    lower = cholesky(build_covariance(CovarianceModel("ar", half, 0.6), seed=0))
    theta = np.linspace(-1.0, 1.0, half)
    y = np.full((size, 2 * half), np.nan)
    normals = np.full(4096 * 2 * half, np.nan)[:size * half].reshape(size, half)
    rng_alloc, rng_into = seeded_rng(3, 3, size), seeded_rng(3, 3, size)
    for cols, df in ((slice(None, half), None), (slice(half, None), 5)):
        expected = draw_replicates(rng_alloc, theta, lower, size, df)
        got = draw_replicates(rng_into, theta, lower, size, df, out=y[:, cols],
                              normals=normals)
        assert np.shares_memory(got, y)
        assert got.tobytes() == expected.tobytes()
    assert not np.isnan(y).any()


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_run_coverage_repeats_after_the_block_buffers_grow(n_jobs):
    # a block drawn into buffers another thread is using would move a count;
    # a short switch interval makes the threads interleave often
    scenario, k, methods = _LIST_CASES["mixed_panel"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        first = [r.to_dict() for r in run_coverage(scenario, k, methods, n_jobs=n_jobs)]
        again = [r.to_dict() for r in run_coverage(scenario, k, methods, n_jobs=n_jobs)]
        run_coverage(iid_scenario(m=300, reps=5000, seed=8, eta=1.0), 5, "sidak",
                     n_jobs=n_jobs)
        grown = [r.to_dict() for r in run_coverage(scenario, k, methods, n_jobs=n_jobs)]
    finally:
        sys.setswitchinterval(interval)
    assert first == again == grown


def test_run_coverage_drops_block_buffers_above_the_cap(monkeypatch):
    scn = iid_scenario(m=20, reps=5000, seed=9, eta=2.0)
    first = run_coverage(scn, 3, "sidak").to_dict()
    kept = mc._BUFFERS.y.nbytes + mc._BUFFERS.z.nbytes
    assert kept >= 2 * 4096 * 20 * 8  # this thread kept its block buffers
    monkeypatch.setattr(mc, "_KEEP_BYTES", kept - 1)
    assert run_coverage(scn, 3, "sidak").to_dict() == first
    assert mc._BUFFERS.y.size == mc._BUFFERS.z.size == 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_run_coverage_reuses_block_memory():
    # a 4096 x 100 block whose arrays are allocated afresh takes about 2,400
    # minor faults on every call; once warm, the kept buffers take none.  A
    # fresh interpreter keeps earlier tests' heap from hiding the faults.
    code = ("import resource\n"
            "from sosci import CovarianceModel, Scenario, run_coverage\n"
            "scn = Scenario(m=100, covariance=CovarianceModel('ar', 100, 0.3), reps=4096,\n"
            "               seed=5, eta=10.0)\n"
            "methods = ['sos_symmetric', 'sos_shortest']\n"
            "for _ in range(2):  # warm the buffers and the allocator's heap\n"
            "    run_coverage(scn, 10, methods)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_coverage(scn, 10, methods)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


def test_estimate_b_probability():
    assert estimate_b_probability((1.0, 2.0), 0.0, 100, 1) == 0.0
    p = estimate_b_probability((0.0, 0.0), 2.2364766, 10**6, seed=3)
    se = np.sqrt(0.95 * 0.05 / 10**6)
    assert p == pytest.approx(0.95, abs=3 * se)
    assert p == estimate_b_probability((0.0, 0.0), 2.2364766, 10**6, seed=3)
    with pytest.raises(ValueError):
        estimate_b_probability((1.0,), 1.0, 10, 1)
    with pytest.raises(ValueError):
        estimate_b_probability((1.0, 2.0), -1.0, 10, 1)
    with pytest.raises(ValueError):
        estimate_b_probability((1.0, 2.0), 1.0, 0, 1)


def test_estimate_b_probability_frozen():
    # exact hit counts pin the draw order, the abs-max tie rule and the
    # hit comparison (20000 reps span four full blocks and one partial)
    assert estimate_b_probability((0.3, -1.1), 1.7, 20000, seed=11) == 0.8529
    assert estimate_b_probability((2.0, -2.0), 0.5, 5000, seed=7) == 0.3848


def test_estimate_b_probability_non_finite():
    with pytest.raises(ValueError, match="c must"):
        estimate_b_probability((1.0, 2.0), np.nan, 10, 1)
    for mu in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 1.0)):
        with pytest.raises(ValueError, match="mu"):
            estimate_b_probability(mu, 1.0, 10, 1)
    assert estimate_b_probability((1.0, 2.0), np.inf, 10, 1) == 1.0


def test_scenario_from_dict_round_trip():
    cfg = {
        "m": 12,
        "covariance": {"kind": "block", "rho": 0.2, "block_size": 4},
        "reps": 500,
        "seed": 9,
        "eta": 5.0,
        "panel": "half_normal_half_t5",
    }
    scn = scenario_from_dict(cfg)
    assert scn.m == 12
    assert scn.covariance == CovarianceModel("block", 12, 0.2, block_size=4)
    assert scn.eta == 5.0 and scn.panel == "half_normal_half_t5"


def test_scenario_from_dict_fixed_theta():
    cfg = {"m": 2, "covariance": {"kind": "ar"}, "reps": 10, "seed": 0,
           "theta": [1, 2]}
    scn = scenario_from_dict(cfg)
    assert scn.theta == (1.0, 2.0)
    assert scn.covariance.dimension == 2  # defaults to m


def test_scenario_from_dict_errors():
    base = {"m": 4, "covariance": {"kind": "ar"}, "reps": 10, "seed": 0}
    with pytest.raises(ValueError):
        scenario_from_dict({**base, "repz": 10})
    with pytest.raises(ValueError):
        scenario_from_dict({"m": 4, "reps": 10, "seed": 0})
    with pytest.raises(ValueError):
        scenario_from_dict({**base, "covariance": "ar"})
    with pytest.raises(ValueError):
        scenario_from_dict({**base, "covariance": {"kind": "ar", "row": 0.1}})
    with pytest.raises(ValueError):
        scenario_from_dict([1, 2, 3])
    # integer fields are never truncated or coerced
    for key, value in [("m", 10.7), ("m", "10"), ("m", True), ("reps", True),
                       ("reps", 5.5), ("seed", "1"), ("seed", False)]:
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            scenario_from_dict({**base, key: value})
    for key, value in [("block_size", 5.5), ("block_size", True), ("dimension", 4.5),
                       ("dimension", "4")]:
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            scenario_from_dict({**base, "covariance": {"kind": "block", key: value}})
    # real fields take JSON numbers only, and theta is a list of them
    for key, value in [("eta", None), ("eta", "2"), ("eta", True), ("theta", 5),
                       ("theta", [0.0, "1", 0.0, 0.0]), ("theta", [0.0, None, 0.0, 0.0])]:
        with pytest.raises(ValueError, match=key):
            scenario_from_dict({**base, key: value})
    for value in (None, "0.1", False):
        with pytest.raises(ValueError, match="rho"):
            scenario_from_dict({**base, "covariance": {"kind": "ar", "rho": value}})
    # integral floats are exact and accepted, and so are integer reals
    assert scenario_from_dict({**base, "m": 4.0, "reps": 10.0}).m == 4
    scn = scenario_from_dict({**base, "eta": 2, "covariance": {"kind": "ar", "rho": 0}})
    assert scn.eta == 2.0 and type(scn.eta) is float
    scn = scenario_from_dict({**base, "theta": [0, 1, 2, 3]})
    assert scn.theta == (0.0, 1.0, 2.0, 3.0)


def test_load_scenario(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"m": 3, "covariance": {"kind": "ar", "rho": 0.5},
                                "reps": 20, "seed": 4}), encoding="utf-8")
    scn = load_scenario(path)
    assert scn.m == 3 and scn.covariance.rho == 0.5 and scn.reps == 20


def test_readme_config_example_loads():
    # the example under README's "Scenario config file" heading is a valid
    # scenario, so the documented schema stays the one scenario_from_dict reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario config file", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    scn = scenario_from_dict(json.loads(example))
    assert scn.covariance == CovarianceModel("block", 100, 0.5, block_size=10)
    assert (scn.m, scn.reps, scn.seed, scn.eta, scn.theta) == (100, 50000, 1, 10.0, None)


def test_load_scenario_takes_only_a_path():
    # open() takes an int, True included, as a file descriptor: load_scenario(True)
    # would close fd 1 under its caller, and load_scenario(0) would read stdin
    code = ("import os\n"
            "from sosci.mc import load_scenario\n"
            "for path in (True, 0, 1, 2.0, b'scenario.json', None):\n"
            "    try:\n"
            "        load_scenario(path)\n"
            "    except ValueError as exc:\n"
            "        assert 'path must be' in str(exc), exc\n"
            "    else:\n"
            "        raise SystemExit(f'{path!r} was read')\n"
            "os.fstat(1)\n"
            "print('fd 1 open')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          stdin=subprocess.DEVNULL, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fd 1 open\n"


def test_abs_max_offsets_are_c_plus_at_each_coordinate():
    # one batch solves both coordinates, each as c_plus solves it alone
    for s, theta in ((1.0, (0.0, 1.3)), (2.0, (-2.5, 40.0)), (0.5, (150.0, -0.2))):
        scn = Scenario(m=2, covariance=CovarianceModel("block", 2, 0.0, block_size=1),
                       reps=10, seed=1)
        sigma = s * s * np.eye(2)
        offsets = mc._abs_max_offsets(scn, sigma, np.array(theta), 1, 0.05)
        assert offsets.tolist() == [s * c_plus(abs(t) / s, 0.05) for t in theta]


_SCENARIO_INTEGERS = {"m": 2, "reps": 10, "seed": 1}


@pytest.mark.parametrize("bad", [1.5, 10.5, True])
@pytest.mark.parametrize("field", sorted(_SCENARIO_INTEGERS))
def test_scenario_integer_fields(field, bad):
    fields = {"covariance": CovarianceModel("ar", 2, 0.0), **_SCENARIO_INTEGERS}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        Scenario(**{**fields, field: bad})
    numpy_value = np.int64(_SCENARIO_INTEGERS[field])
    assert Scenario(**{**fields, field: numpy_value}) == Scenario(**fields)


def test_estimate_b_probability_integer_reps():
    for bad in (10.5, True):
        with pytest.raises(ValueError, match="reps must be an integer"):
            estimate_b_probability((1.0, 2.0), 1.0, bad, 1)
    assert estimate_b_probability((1.0, 2.0), 1.0, np.int64(50), 1) == \
        estimate_b_probability((1.0, 2.0), 1.0, 50, 1)
