import numpy as np
import pytest

from sosci import (
    MethodLabel,
    bonferroni_halfwidth,
    fcr_selection_aware_offsets,
    fcw_constants,
    interval_length,
    method_length,
    method_offsets,
    method_tail_levels,
    optimize_delta,
    sidak_halfwidth,
    spec_from_delta,
    symmetric_delta,
)
from sosci.baselines import _fcw_coverage
from sosci.dist import normal_family, student_t_family

from _oracles import grid_argmin

Z975 = 1.959963985


def test_method_label_values():
    assert str(MethodLabel.SOS_SYMMETRIC) == "sos_symmetric"
    assert MethodLabel("fcw_shortest") is MethodLabel.FCW_SHORTEST
    assert len(MethodLabel) == 8


@pytest.mark.parametrize("m,expected", [
    # oracle: bisection quantiles at 1 - 0.025/m
    (1, 1.959963985),
    (2, 2.241402728),
    (3, 2.393979800),
    (100, 3.480756404),
])
def test_bonferroni_frozen(m, expected):
    assert bonferroni_halfwidth(m, 0.05) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("m,expected", [
    (1, 1.959963985),
    (2, 2.236476645),
    (100, 3.473978869),
])
def test_sidak_frozen(m, expected):
    assert sidak_halfwidth(m, 0.05) == pytest.approx(expected, abs=1e-8)


def test_sidak_below_bonferroni():
    for m in (2, 3, 10, 100, 1000):
        assert sidak_halfwidth(m, 0.05) < bonferroni_halfwidth(m, 0.05)
    assert sidak_halfwidth(1, 0.05) == pytest.approx(
        bonferroni_halfwidth(1, 0.05), abs=1e-12)


def test_halfwidths_monotone():
    for fn in (bonferroni_halfwidth, sidak_halfwidth):
        assert fn(2, 0.05) < fn(5, 0.05) < fn(50, 0.05)
        assert fn(10, 0.10) < fn(10, 0.05) < fn(10, 0.01)


def test_fcw_symmetric_single_selection_of_two():
    c, d = fcw_constants(2, 1, 0.05, mode="symmetric")
    # oracle: the k=1, m=2 constraint collapses to the plain two-sided level
    assert c == pytest.approx(Z975, abs=1e-6)
    assert d == pytest.approx(c, abs=1e-12)


def test_fcw_symmetric_full_selection_is_sidak():
    for m in (2, 5, 100):
        c, d = fcw_constants(m, m, 0.05, mode="symmetric")
        assert c == pytest.approx(sidak_halfwidth(m, 0.05), abs=1e-8)
        assert d == pytest.approx(c, abs=1e-12)


def test_fcw_symmetric_frozen_mid_case():
    c, d = fcw_constants(100, 10, 0.05, mode="symmetric")
    assert c == pytest.approx(3.307626106, abs=1e-8)
    assert d == c


def test_fcw_constraint_binds():
    for m, k in ((2, 1), (100, 10), (100, 1), (50, 50)):
        for mode in ("symmetric", "shortest"):
            c, d = fcw_constants(m, k, 0.05, mode=mode)
            assert _fcw_coverage(c, d, m, k) == pytest.approx(0.95, abs=1e-7)


def test_fcw_shortest_frozen():
    c, d = fcw_constants(100, 10, 0.05, mode="shortest")
    assert c == pytest.approx(3.503701014, abs=1e-6)
    assert d == pytest.approx(2.732354379, abs=1e-6)


def test_fcw_shortest_boundary_case():
    # with a single selected coordinate the lower arm degenerates to zero
    c, d = fcw_constants(100, 1, 0.05, mode="shortest")
    assert d == pytest.approx(0.0, abs=1e-6)
    assert c == pytest.approx(3.283407535, abs=1e-6)


@pytest.mark.parametrize("alpha", [1e-5, 1e-6, 1e-7, 1e-8])
def test_fcw_shortest_tiny_alpha(alpha):
    # the feasibility margin must stay below alpha itself
    c, d = fcw_constants(100, 10, alpha, mode="shortest")
    assert np.isfinite(c) and np.isfinite(d) and d >= 0.0
    assert _fcw_coverage(c, d, 100, 10) == pytest.approx(1.0 - alpha, abs=1e-13)
    c_sym, d_sym = fcw_constants(100, 10, alpha, mode="symmetric")
    assert c + d <= c_sym + d_sym + 1e-9


def test_fcw_shortest_beats_symmetric_and_grid():
    for m, k in ((100, 10), (100, 1), (20, 5)):
        c_sym, d_sym = fcw_constants(m, k, 0.05, mode="symmetric")
        c_opt, d_opt = fcw_constants(m, k, 0.05, mode="shortest")
        assert c_opt + d_opt <= c_sym + d_sym + 1e-9

        def width_at(d):
            from sosci.baselines import _fcw_solve_c
            c = _fcw_solve_c(d, m, k, 0.05)
            return np.inf if c is None else c + d

        _, grid_best = grid_argmin(width_at, 0.0, c_sym + 0.5, 4000)
        assert c_opt + d_opt <= grid_best + 1e-6


def test_fcw_mode_and_domain_errors():
    with pytest.raises(ValueError):
        fcw_constants(100, 10, 0.05, mode="widest")
    with pytest.raises(ValueError):
        fcw_constants(10, 11, 0.05)
    with pytest.raises(ValueError):
        fcw_constants(10, 0, 0.05)


def test_fcr_offsets_frozen():
    lo, hi = fcr_selection_aware_offsets(100, 10, 0.05)
    # oracle: quantiles at 1 - 0.025 * k/m and 1 - 0.025
    assert lo == pytest.approx(2.807033768, abs=1e-8)
    assert hi == pytest.approx(Z975, abs=1e-8)


def test_fcr_full_selection_is_unadjusted():
    lo, hi = fcr_selection_aware_offsets(7, 7, 0.05)
    assert lo == pytest.approx(Z975, abs=1e-8)
    assert hi == pytest.approx(Z975, abs=1e-8)


def test_fcr_shorter_than_sos_shortest_mid_k():
    for m, k in ((100, 10), (100, 50)):
        lo, hi = fcr_selection_aware_offsets(m, k, 0.05)
        _, sos_len = optimize_delta(m, k, 0.05)
        assert lo + hi < sos_len


def test_method_tail_levels_budget():
    for label in (MethodLabel.SOS_SYMMETRIC, MethodLabel.SOS_SHORTEST):
        lam_lo, lam_hi = method_tail_levels(label, 100, 10, 0.05)
        assert 100 * lam_lo + 10 * lam_hi == pytest.approx(0.05, abs=1e-12)
    lam_lo, lam_hi = method_tail_levels(MethodLabel.UNADJUSTED, 100, 10, 0.05)
    assert lam_lo == lam_hi == pytest.approx(0.025)
    lam_lo, lam_hi = method_tail_levels(MethodLabel.BONFERRONI, 100, 10, 0.05)
    assert lam_lo == lam_hi == pytest.approx(0.025 / 100)


def test_method_tail_levels_fcw_rejected():
    with pytest.raises(ValueError):
        method_tail_levels(MethodLabel.FCW_SYMMETRIC, 100, 10, 0.05)
    with pytest.raises(ValueError):
        method_tail_levels("not_a_method", 100, 10, 0.05)


def test_method_offsets_normal_consistency():
    for label in MethodLabel:
        lo, hi = method_offsets(label, 100, 10, 0.05)
        assert lo > 0 and hi > 0
        assert np.isfinite(lo) and np.isfinite(hi)
    lo, hi = method_offsets(MethodLabel.SIDAK, 100, 10, 0.05)
    assert lo == hi == pytest.approx(sidak_halfwidth(100, 0.05), abs=1e-12)


def test_method_offsets_t_family():
    t5 = student_t_family(5)
    lo, hi = method_offsets(MethodLabel.UNADJUSTED, 100, 10, 0.05, family=t5)
    assert lo == pytest.approx(2.570581836, abs=1e-6)
    with pytest.raises(ValueError):
        method_offsets(MethodLabel.FCW_SYMMETRIC, 100, 10, 0.05, family=t5)


def test_method_length_orders_mid_k():
    # strict width ordering for interior k; the selection-aware baseline and
    # the symmetric plug-in swap places near the extremes, exercised below
    m = 100
    for k in (2, 10, 40, 80, 95):
        length = {lbl: method_length(lbl, m, k, 0.05) for lbl in MethodLabel}
        assert length[MethodLabel.UNADJUSTED] < length[MethodLabel.FCR_SELECTION_AWARE]
        assert (length[MethodLabel.FCR_SELECTION_AWARE]
                < length[MethodLabel.FCW_SHORTEST] + 1e-9)
        assert (length[MethodLabel.FCW_SHORTEST]
                <= length[MethodLabel.SOS_SHORTEST] + 1e-9)
        assert (length[MethodLabel.SOS_SHORTEST]
                <= length[MethodLabel.SOS_SYMMETRIC] + 1e-9)
        assert (length[MethodLabel.SOS_SYMMETRIC]
                <= length[MethodLabel.SIDAK] + 1e-9)
        assert length[MethodLabel.SIDAK] < length[MethodLabel.BONFERRONI]


def test_method_length_edge_k_behavior():
    m = 100
    # k = 1: the selection-aware baseline pays both tails of the full
    # correction on one side and overtakes the width-optimized band
    len_k1 = {lbl: method_length(lbl, m, 1, 0.05) for lbl in MethodLabel}
    assert (len_k1[MethodLabel.FCR_SELECTION_AWARE]
            > len_k1[MethodLabel.FCW_SHORTEST])
    # k = m: the symmetric split equals Bonferroni, which sits above Sidak
    len_km = {lbl: method_length(lbl, m, m, 0.05) for lbl in MethodLabel}
    assert len_km[MethodLabel.SOS_SYMMETRIC] == pytest.approx(
        2 * bonferroni_halfwidth(m, 0.05), abs=1e-12)
    assert len_km[MethodLabel.SOS_SYMMETRIC] > len_km[MethodLabel.SIDAK]


def test_sos_symmetric_length_identity():
    delta = symmetric_delta(100, 10)
    spec = spec_from_delta(100, 10, 0.05, delta)
    assert interval_length(100, 10, 0.05, delta) == pytest.approx(
        spec.c_lower + spec.c_upper, abs=1e-15)
    assert method_length(MethodLabel.SOS_SYMMETRIC, 100, 10, 0.05) == pytest.approx(
        interval_length(100, 10, 0.05, delta), abs=1e-12)
