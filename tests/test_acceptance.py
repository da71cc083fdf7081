"""Acceptance gate: one test per shipping criterion.

Each test asserts exactly the stated tolerance and runtime budget.  The
conftest terminal hook prints a per-criterion PASS/FAIL summary after the
run.  SOSCI_ACCEPT_REPS overrides the Monte-Carlo replicate count (default
50000; set 5000 for the smoke-grid budget); statistical bounds always use
the replicate count actually run.
"""

import math
import os
import time

import numpy as np
import pytest

from sosci import (
    CovarianceModel,
    MethodLabel,
    Scenario,
    b_region_probability,
    cli,
    cplus_curve,
    abs_max_interval,
    fcw_constants,
    interval_length,
    method_offsets,
    method_tail_levels,
    optimize_delta,
    run_coverage,
    sidak_halfwidth,
)

from _oracles import estimate_b_probability

SEED = 20260814
REPS = max(1, int(os.environ.get("SOSCI_ACCEPT_REPS", "50000")))

Z975 = 1.959963985
SIDAK2 = 2.236476645


def mc_bound(p: float, reps: int) -> float:
    return p + 3.0 * math.sqrt(p * (1.0 - p) / reps)


def test_c01_table_marginal_row_via_cli(capsys):
    start = time.perf_counter()
    code = cli.main(["intervals", "--y", "2.9,2.5", "--k", "1",
                     "--method", "larger-of-two", "--alpha", "0.05"])
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = capsys.readouterr().out.split("\r\n")
    index, estimate, lo, hi, method = lines[1].split(",")
    assert (index, method) == ("1", "larger_of_two")
    lo, hi = float(lo), float(hi)
    assert abs(lo - 0.940) <= 0.002
    assert abs(hi - 4.860) <= 0.002
    assert abs(hi - 4.859) <= 0.002  # published rounding of the same endpoint
    assert elapsed < 1.0


def test_c02_larger_of_two_coverage():
    start = time.perf_counter()
    cell = 0
    for rho in (-0.5, 0.0, 0.5, 0.9):
        for theta in ((0.0, 0.0), (0.0, 2.0), (1.0, 1.0)):
            cell += 1
            scn = Scenario(m=2, covariance=CovarianceModel("ar", rho),
                           reps=REPS, seed=SEED + cell,
                           theta=theta)
            report = run_coverage(scn, k=1, method="unadjusted")
            assert report.sos_rate <= mc_bound(0.05, REPS), (rho, theta)
    assert time.perf_counter() - start < 60.0


def test_c03_cplus_curve_shape():
    start = time.perf_counter()
    curve = cplus_curve(0.05)  # default grid: a in [0, 8], step 0.01
    assert curve.step == 0.01
    at_3 = int(round(3.0 / curve.step))
    assert curve.grid_a[0] == 0.0 and curve.grid_a[at_3] == pytest.approx(3.0)
    assert abs(curve.grid_c[0] - SIDAK2) <= 1e-3
    assert abs(curve.grid_c[at_3] - 1.960) <= 0.02
    assert np.all(np.diff(curve.grid_c) <= 1e-9)
    assert time.perf_counter() - start < 30.0


def test_c04_abs_max_width_profile():
    start = time.perf_counter()
    curve = cplus_curve(0.05)
    base = 2.0 * sidak_halfwidth(2, 0.05)
    w_grid = np.arange(0.0, 6.0 + 1e-12, 0.01)
    widths = np.array([abs_max_interval([w, 0.0], 0.05, curve=curve).length
                       for w in w_grid])
    w_star = float(w_grid[int(np.argmax(widths))])
    assert abs(w_star - 2.23) <= 0.1
    assert abs(widths.max() / base - 0.936) <= 0.005
    width_10 = abs_max_interval([10.0, 0.0], 0.05, curve=curve).length
    assert abs(width_10 / base - 0.88) <= 0.005
    assert time.perf_counter() - start < 60.0


def test_c05_acceptance_region_bound():
    start = time.perf_counter()
    quad_cache = {}
    cell = 0
    for mu1 in range(5):
        for mu2 in range(5):
            a = float(max(abs(mu1), abs(mu2)))
            for c in (1.8, 2.0, 2.2):
                cell += 1
                key = (a, c)
                if key not in quad_cache:
                    quad_cache[key] = b_region_probability((a, 0.0), c)
                p_hat = estimate_b_probability((float(mu1), float(mu2)), c,
                                               10**6, seed=SEED + cell)
                se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / 10**6)
                assert quad_cache[key] <= p_hat + 3.0 * se, (mu1, mu2, c)
    assert time.perf_counter() - start < 300.0


def test_c06_k_of_m_coverage_and_tail_split():
    start = time.perf_counter()
    m = 100
    cov = CovarianceModel("block", 0.0, block_size=1)  # independent normals
    theta_settings = [
        {"theta": (1.0,) * m},  # all equal
        {"eta": 0.0},
        {"eta": 40.0},
    ]
    cell = 0
    for k in (1, 10, 50, 100):
        for setting in theta_settings:
            for method in (MethodLabel.SOS_SYMMETRIC, MethodLabel.SOS_SHORTEST):
                cell += 1
                scn = Scenario(m=m, covariance=cov, reps=REPS,
                               seed=SEED + 100 + cell, **setting)
                report = run_coverage(scn, k=k, method=method.value)
                assert report.sos_rate <= mc_bound(0.05, REPS), (k, setting, method)
                lam_lo, lam_up = method_tail_levels(method, m, k, 0.05)
                assert report.lower_miss_rate <= mc_bound(m * lam_lo, REPS)
                assert report.upper_miss_rate <= mc_bound(k * lam_up, REPS)
    assert time.perf_counter() - start < 300.0


def test_c07_length_ordering():
    start = time.perf_counter()
    m, alpha = 100, 0.05

    # reductions stated alongside the ordering
    sos_sym_at_m = sum(method_offsets(MethodLabel.SOS_SYMMETRIC, m, m, alpha))
    assert sos_sym_at_m == pytest.approx(2 * method_offsets("bonferroni", m, 1, alpha)[0],
                                         abs=1e-12)
    c_fcw, _ = fcw_constants(2, 1, alpha, mode="symmetric")
    assert abs(c_fcw - Z975) <= 1e-6
    # at k=1 the selection-aware tail levels (alpha/(2m), alpha/2) are the
    # delta-family member at delta = 1/2, so fcr cannot undercut sos_shortest
    fcr_at_1 = sum(method_offsets(MethodLabel.FCR_SELECTION_AWARE, m, 1, alpha))
    assert fcr_at_1 == pytest.approx(interval_length(m, 1, alpha, 0.5), abs=1e-12)

    # sos_symmetric's tail level alpha/(m+k) is at least Sidak's
    # (1 - (1-alpha)^(1/m))/2, i.e. its interval is no wider, iff
    # k <= k_star = floor(2 alpha / (1 - (1-alpha)^(1/m))) - m
    sidak_level = -math.expm1(math.log1p(-alpha) / m) / 2.0
    k_star = math.floor(alpha / sidak_level) - m
    assert 1 <= k_star < m

    def chain(k):
        # the selection-aware lower level (alpha/2)(k/m) is alpha/2 at k=m
        return (
            (MethodLabel.UNADJUSTED, MethodLabel.FCR_SELECTION_AWARE,
             "<" if k < m else "=="),
            (MethodLabel.FCR_SELECTION_AWARE, MethodLabel.FCW_SHORTEST,
             "<" if k >= 2 else ">"),
            (MethodLabel.FCW_SHORTEST, MethodLabel.SOS_SHORTEST, "<="),
            (MethodLabel.SOS_SHORTEST, MethodLabel.SOS_SYMMETRIC, "<="),
            (MethodLabel.SOS_SYMMETRIC, MethodLabel.SIDAK,
             "<=" if k <= k_star else ">"),
            (MethodLabel.SIDAK, MethodLabel.BONFERRONI, "<"),
        )

    holds = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b + 1e-9,
        ">": lambda a, b: a > b,
        "==": lambda a, b: abs(a - b) <= 1e-12,
    }
    violations = []
    for k in range(1, m + 1):
        lengths = {lbl: sum(method_offsets(lbl, m, k, alpha)) for lbl in MethodLabel}
        for first, second, relation in chain(k):
            a, b = lengths[first], lengths[second]
            if not holds[relation](a, b):
                violations.append(
                    f"k={k}: {first.value}={a:.6f} !{relation} {second.value}={b:.6f}")
    assert not violations, "ordering violations:\n" + "\n".join(violations)
    assert time.perf_counter() - start < 30.0


def test_c08_minimizing_delta():
    start = time.perf_counter()
    for m, k in ((2, 1), (100, 10)):
        d_star, len_star = optimize_delta(m, k, 0.05)
        assert abs(d_star - 0.45) <= 0.05 + 1e-9, (m, k, d_star)
        grid = np.linspace(1e-6, 1 - 1e-6, 10**4)
        grid_best = min(interval_length(m, k, 0.05, float(d)) for d in grid)
        assert len_star <= grid_best + 1e-4
    assert time.perf_counter() - start < 30.0


def test_c09_dependence_grid_coverage():
    start = time.perf_counter()
    m, k = 100, 10
    models = ([CovarianceModel("ar", rho) for rho in (0.3, 0.7)]
              + [CovarianceModel("time_decay")]
              + [CovarianceModel("block", rho, block_size=10)
                 for rho in (0.0, 0.2, 0.5, 0.75, 0.9)])
    cell = 0
    for panel in ("all_normal", "half_normal_half_t5"):
        for model in models:
            for eta in (0.0, 5.0, 10.0, 20.0, 40.0):
                cell += 1
                scn = Scenario(m=m, covariance=model, reps=REPS,
                               seed=SEED + 1000 + cell, eta=eta, panel=panel)
                reports = run_coverage(scn, k=k, method=["sos_symmetric", "sos_shortest"])
                for report in reports:
                    assert report.sos_rate <= mc_bound(0.05, REPS), (
                        panel, model.kind, model.rho, eta, report.method)
    elapsed = time.perf_counter() - start
    assert elapsed < (120.0 if REPS <= 5000 else 1800.0)


def test_c10_byte_identical_replay(capsys, tmp_path):
    reps = 5000  # determinism is exact at any size; keep the run quick
    argv = ["simulate", "--sigma-model", "block", "--rho", "0.5", "--m", "50",
            "--k", "5", "--eta", "0,20", "--reps", str(reps),
            "--seed", str(SEED), "--methods", "sos_symmetric,sidak"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert cli.main(argv + ["--n-jobs", "4"]) == 0
    assert capsys.readouterr().out == first

    out = tmp_path / "replay.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes().decode("utf-8") == first

    scn = Scenario(m=50, covariance=CovarianceModel("ar", 0.6), reps=reps,
                   seed=SEED, eta=3.0)
    seq = run_coverage(scn, k=5, method="sos_symmetric")
    par = run_coverage(scn, k=5, method="sos_symmetric", n_jobs=8)
    assert seq.to_dict() == par.to_dict()
