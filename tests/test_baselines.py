import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq  # the reference for _brent; sosci never imports it

from sosci import (
    MethodLabel,
    OptimizationError,
    fcw_constants,
    interval_length,
    k_of_m_intervals,
    method_offsets,
    method_tail_levels,
    optimize_delta,
    sidak_halfwidth,
)
from sosci.baselines import _brent, _fcw_coverage, _fcw_solve_c
from sosci.dist import NORMAL, std_normal_cdf, std_normal_quantile, student_t_family
from sosci.sos import _delta_offsets

from _oracles import grid_argmin

Z975 = 1.959963985

_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_QUANTILE_METHODS = st.sampled_from([MethodLabel.UNADJUSTED, MethodLabel.BONFERRONI,
                                     MethodLabel.SIDAK, MethodLabel.SOS_SYMMETRIC,
                                     MethodLabel.FCR_SELECTION_AWARE])
_M = st.integers(1, 10**15)
_ALPHA = st.floats(1e-8, 0.999)


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
    assert method_offsets("bonferroni", m, 1, 0.05)[0] == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("m,expected", [
    (1, 1.959963985),
    (2, 2.236476645),
    (100, 3.473978869),
])
def test_sidak_frozen(m, expected):
    assert sidak_halfwidth(m, 0.05) == pytest.approx(expected, abs=1e-8)


def test_sidak_below_bonferroni():
    for m in (2, 3, 10, 100, 1000):
        assert sidak_halfwidth(m, 0.05) < method_offsets("bonferroni", m, 1, 0.05)[0]
    assert sidak_halfwidth(1, 0.05) == pytest.approx(
        method_offsets("bonferroni", 1, 1, 0.05)[0], abs=1e-12)


def test_halfwidths_monotone():
    for method in ("bonferroni", "sidak"):
        by_m = [method_offsets(method, m, 1, 0.05)[0] for m in (2, 5, 50)]
        by_alpha = [method_offsets(method, 10, 1, alpha)[0] for alpha in (0.10, 0.05, 0.01)]
        assert by_m[0] < by_m[1] < by_m[2]
        assert by_alpha[0] < by_alpha[1] < by_alpha[2]


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


def _fcw_miss(c, d, m, k):
    # 1 - coverage formed from the tails Phi(-c) and Phi(-d), so it keeps its
    # digits where the solver's Phi(c) near 1 has lost them
    t, b = std_normal_cdf(-c), std_normal_cdf(-d)
    n = m - k + 1
    return -math.expm1((k - 1) * math.log1p(-(t + b)) + n * math.log1p(-t)
                       + math.log1p(-(b / (1.0 - t)) ** n))


@pytest.mark.parametrize("m, k, alpha", [
    *(pytest.param(100, 10, alpha, id=repr(alpha)) for alpha in (1e-5, 1e-6, 1e-7, 1e-8)),
    # below 1e-9, where an absolute feasibility margin of 1e-9 would exceed alpha
    (100, 10, 1e-10), (3, 2, 1e-10), (5, 5, 1e-12), (35, 1, 1e-10),
])
def test_fcw_shortest_tiny_alpha(m, k, alpha):
    # the feasibility margin must stay below alpha itself
    c, d = fcw_constants(m, k, alpha, mode="shortest")
    assert np.isfinite(c) and np.isfinite(d) and d >= 0.0
    assert _fcw_coverage(c, d, m, k) == pytest.approx(1.0 - alpha, abs=min(1e-13, alpha * 1e-3))
    # the miss is alpha to 4 significant digits
    assert _fcw_miss(c, d, m, k) == pytest.approx(alpha, rel=5e-4, abs=0)
    c_sym, d_sym = fcw_constants(m, k, alpha, mode="symmetric")
    assert _fcw_miss(c_sym, d_sym, m, k) == pytest.approx(alpha, rel=5e-4, abs=0)
    assert c + d <= c_sym + d_sym + 1e-9


# float.hex of (c_sym, c_shortest, d_shortest), recorded from scipy.optimize.brentq
# solves; the first row is the benchmark's seed-1 `intervals --method fcw-shortest` op
_FCW_HEX = [
    (340, 7, 0.0979, "0x1.b782ace169ef6p+1", "0x1.d5473526706d8p+1", "0x1.2915d70dd4d2cp+1"),
    (100, 10, 0.05, "0x1.a7604ad040069p+1", "0x1.c079465ba6de5p+1", "0x1.5dbdc9cd92e5ep+1"),
    (100, 1, 0.05, "0x1.a446b2b7b87c4p+1", "0x1.a446b2b7b881ap+1", "0x0.0p+0"),
    (2, 1, 0.05, "0x1.f5c0331eeff88p+0", "0x1.19b81b96176a2p+1", "0x1.09813282b935ap+0"),
    (50, 50, 0.01, "0x1.dbdffeb513bddp+1", "0x1.dbdfff012b13ap+1", "0x1.dbdffe68fc7aap+1"),
    (612, 451, 0.1957, "0x1.c44a7f3133371p+1", "0x1.c9700d0d3cecep+1", "0x1.be4a84dfdba2cp+1"),
    (1000, 3, 1e-06, "0x1.7fe162cca483ep+2", "0x1.8700931c03dfap+2", "0x1.41af1beecc882p+2"),
    (20, 5, 0.5, "0x1.e7ea52dd8d0e0p+0", "0x1.17ef03aca525fp+1", "0x1.501c8c1af0a62p+0"),
    (3, 2, 1e-08, "0x1.7638118170c70p+2", "0x1.7a838a43f6f4cp+2", "0x1.6ec44301aba55p+2"),
]


@pytest.mark.parametrize("m, k, alpha, c_sym, c, d", _FCW_HEX)
def test_fcw_constants_frozen_bits(m, k, alpha, c_sym, c, d):
    assert [x.hex() for x in fcw_constants(m, k, alpha, "symmetric")] == [c_sym, c_sym]
    assert [x.hex() for x in fcw_constants(m, k, alpha, "shortest")] == [c, d]


@pytest.mark.parametrize("m, k, alpha, c, d", [
    (330086570680, 295683716418, 0.058147250146795566, "0x1.d7318e11263e2p+2",
     "0x1.d62a3d5db0dc1p+2"),
    (147392017632, 147392017632, 0.16163229579950358, "0x1.c6cb5555a975fp+2",
     "0x1.c6bffe4da9d92p+2"),
    (798365562621, 253388861588, 0.49691514393746167, "0x1.c9dac21764b6cp+2",
     "0x1.bf4d381c0f7dap+2"),
])
def test_fcw_shortest_at_huge_k_skips_an_infeasible_d_lo(m, k, alpha, c, d):
    # the steps of (1 - Phi(-d))^(k-1) outgrow d_lo's 1e-6 margin here, and its
    # root stops on a flat step below 1 - alpha; the other candidates still give
    # the pair recorded from scipy.optimize.brentq solves, with a miss of alpha
    pair = fcw_constants(m, k, alpha, "shortest")
    assert [x.hex() for x in pair] == [c, d]
    assert _fcw_miss(*pair, m, k) == pytest.approx(alpha, rel=1e-3, abs=0)


def _same_root(f, lo, hi, xtol=1e-12):
    # the same iterates, so the same root or the same step-cap failure
    flo, fhi = f(lo), f(hi)
    assert flo < 0.0 < fhi
    seen = []

    def logged(x):
        seen.append(x)
        return f(x)

    try:
        expected = brentq(logged, lo, hi, xtol=xtol).hex()
    except RuntimeError:
        expected = None
    scipy_iterates, seen[:] = seen[2:], []
    if expected is None:
        with pytest.raises(OptimizationError, match="100 steps"):
            _brent(logged, lo, hi, flo, fhi, xtol)
    else:
        assert _brent(logged, lo, hi, flo, fhi, xtol).hex() == expected
    assert [x.hex() for x in seen] == [x.hex() for x in scipy_iterates]


@_PROPERTY
@given(m=st.integers(1, 1000), k_frac=st.floats(0.0, 1.0), alpha=st.floats(1e-8, 0.9),
       d=st.floats(0.0, 8.0))
def test_brent_matches_scipy_on_fcw_objectives(m, k_frac, alpha, d):
    k = max(1, round(k_frac * m))
    target = 1.0 - alpha
    objectives = [
        (lambda c: _fcw_coverage(c, c, m, k) - target, 1e-12, 12.0),
        (lambda c: _fcw_coverage(c, d, m, k) - target, 1e-12, 10.0 + d),
        (lambda x: _fcw_coverage(math.inf, x, m, k) - (target + min(1e-6, alpha / 2.0)),
         0.0, 20.0),
    ]
    for f, lo, hi in objectives:
        if f(lo) < 0.0 < f(hi):
            _same_root(f, lo, hi)
    # _fcw_solve_c's own objective has _fcw_coverage's bits; where its bracket
    # holds no sign change (c -> 0 already covers, or even c -> infinity leaves
    # the coverage at or below 1 - alpha), it is a named failure
    f, lo, hi = objectives[1]
    if f(lo) < 0.0 < f(hi):
        assert _fcw_solve_c(d, m, k, alpha).hex() == brentq(f, lo, hi, xtol=1e-12).hex()
    else:
        with pytest.raises(OptimizationError, match=re.escape(f"m={m}, k={k}, alpha={alpha!r}")):
            _fcw_solve_c(d, m, k, alpha)


# increasing test functions: smooth ones take interpolation and extrapolation
# steps, the kinked, flat and stepped ones force bisection
_SHAPES = {
    "linear": lambda x: x,
    "cubic": lambda x: x ** 3,
    "exp": lambda x: math.expm1(x),
    "atan": lambda x: math.atan(50.0 * x),
    "root": lambda x: math.copysign(abs(x) ** 0.1, x),
    "flat": lambda x: math.copysign(x * x * x * x * x * x * x, x),
    "step": lambda x: 1.0 if x >= 0.0 else -1.0,
}


@_PROPERTY
# an extrapolation step within delta of 3 |sbis|, where the step test's "- delta" decides
@example(shape="exp", root=2.5382221045492583, left=25.466497220980283,
         right=19.55521981443354, scale=1.0, xtol=1.0)
# so every branch of _brent runs whatever hypothesis draws: a bisection that
# lands on the root (fcur == 0.0); interpolation, accepted steps and a -delta
# minimum step; the same with a +delta minimum step; extrapolation with a
# rejected step that bisects; and extrapolation whose denom underflows to 0
@example(shape="linear", root=0.0, left=1.0, right=1.0, scale=1.0, xtol=1e-12)
@example(shape="atan", root=0.0, left=1.0, right=2.0, scale=1.0, xtol=1e-12)
@example(shape="atan", root=0.0, left=1.0, right=2.0, scale=1.0, xtol=1e-3)
@example(shape="cubic", root=0.0, left=1.0, right=2.0, scale=1.0, xtol=1e-12)
@example(shape="cubic", root=0.0, left=1.0, right=2.0, scale=1e-160, xtol=1e-12)
@given(shape=st.sampled_from(sorted(_SHAPES)), root=st.floats(-3.0, 3.0),
       left=st.floats(1e-3, 50.0), right=st.floats(1e-3, 50.0),
       scale=st.sampled_from([1.0, 1e-160, 1e160]), xtol=st.sampled_from([1e-12, 1e-3, 0.3, 1.0]))
def test_brent_matches_scipy_on_monotone_functions(shape, root, left, right, scale, xtol):
    # a coarse xtol widens the step tests' margins, so their edges get hit too
    g = _SHAPES[shape]
    _same_root(lambda x: scale * g(x - root), root - left, root + right, xtol)


def test_brent_nan_is_a_named_failure():
    with pytest.raises(OptimizationError, match="NaN"):
        _brent(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0, 1e-12)


def test_brent_step_cap_is_a_named_failure():
    # bisection from a 1e300-wide bracket needs about 1000 halvings
    with pytest.raises(OptimizationError, match="100 steps"):
        _brent(_SHAPES["step"], -1e300, 1e300, -1.0, 1.0, 1e-12)


def test_fcw_shortest_beats_symmetric_and_grid():
    for m, k in ((100, 10), (100, 1), (20, 5)):
        c_sym, d_sym = fcw_constants(m, k, 0.05, mode="symmetric")
        c_opt, d_opt = fcw_constants(m, k, 0.05, mode="shortest")
        assert c_opt + d_opt <= c_sym + d_sym + 1e-9

        def width_at(d):
            try:
                return _fcw_solve_c(d, m, k, 0.05) + d
            except OptimizationError:  # no c attains the coverage at this d
                return np.inf

        _, grid_best = grid_argmin(width_at, 0.0, c_sym + 0.5, 4000)
        assert c_opt + d_opt <= grid_best + 1e-6


def test_fcw_mode_and_domain_errors():
    with pytest.raises(ValueError):
        fcw_constants(100, 10, 0.05, mode="widest")
    with pytest.raises(ValueError):
        fcw_constants(10, 11, 0.05)
    with pytest.raises(ValueError):
        fcw_constants(10, 0, 0.05)


@pytest.mark.parametrize("m, k, alpha, mode", [
    (100, 10, 1e-20, "symmetric"),    # 1 - alpha rounds to 1
    (3, 2, 1e-300, "symmetric"),
    (3, 1, 0.9999999999, "shortest"),  # c -> 0 already covers
    (3, 2, 1e-300, "shortest"),
    # Phi(c) near 1 cannot resolve 1 - alpha to 1e-3 of alpha: the solve
    # would return constants whose exact miss is 1.1 to 6 times alpha
    (1000, 10, 1e-14, "shortest"),
    (2, 1, 1e-15, "shortest"),
    (10, 3, 1e-14, "shortest"),
    (1000, 1000, 1e-12, "shortest"),
    (1000, 10, 1e-14, "symmetric"),
    (100, 10, 1e-15, "symmetric"),
    (1000, 1000, 1e-13, "symmetric"),
    (1000, 500, 1e-12, "symmetric"),
    (10**15, 10, 0.05, "symmetric"),
    (10**15, 10, 0.05, "shortest"),
    # at m = 1 the rounding of Phi(c) itself is as large as the m units the
    # powers add: the solve returned a miss of 0.99875 alpha
    (1, 1, 1.146287684495901e-13, "symmetric"),
    (1, 1, 1.146287684495901e-13, "shortest"),
])
def test_fcw_unattainable_coverage_is_named_failure(m, k, alpha, mode):
    with pytest.raises(OptimizationError, match=re.escape(f"m={m}, k={k}, alpha={alpha!r}")):
        fcw_constants(m, k, alpha, mode)


@_PROPERTY
@given(m_exp=st.floats(0.0, 15.0), k_frac=st.floats(0.0, 1.0),
       alpha_exp=st.floats(-15.0, math.log10(0.9)))
def test_fcw_returns_only_a_miss_of_alpha(m_exp, k_frac, alpha_exp):
    # m and alpha log-uniform: wherever the resolvability guard lets a solve
    # through, in either mode, the exact miss is alpha to 1e-3 of alpha
    m, alpha = int(10.0 ** m_exp), 10.0 ** alpha_exp
    k = max(1, round(k_frac * m))
    for mode in ("symmetric", "shortest"):
        try:
            c, d = fcw_constants(m, k, alpha, mode)
        except OptimizationError:
            continue
        assert (m + 1) * 2.0 ** -53 <= alpha / 1000.0
        assert _fcw_miss(c, d, m, k) == pytest.approx(alpha, rel=1e-3, abs=0), mode


def test_fcr_offsets_frozen():
    lo, hi = method_offsets("fcr_selection_aware", 100, 10, 0.05)
    # oracle: quantiles at 1 - 0.025 * k/m and 1 - 0.025
    assert lo == pytest.approx(2.807033768, abs=1e-8)
    assert hi == pytest.approx(Z975, abs=1e-8)


def test_fcr_full_selection_is_unadjusted():
    lo, hi = method_offsets("fcr_selection_aware", 7, 7, 0.05)
    assert lo == pytest.approx(Z975, abs=1e-8)
    assert hi == pytest.approx(Z975, abs=1e-8)


def test_fcr_shorter_than_sos_shortest_mid_k():
    for m, k in ((100, 10), (100, 50)):
        lo, hi = method_offsets("fcr_selection_aware", m, k, 0.05)
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


@pytest.mark.parametrize("m", [2, 100])
@pytest.mark.parametrize("alpha", [1e-9, 1e-13])
def test_method_tail_levels_sidak_small_alpha(m, alpha):
    # (1 - (1 - alpha)^(1/m)) / 2 cancels in double precision at small alpha;
    # the reference is the same closed form evaluated to 50 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        one = decimal.Decimal(1)
        exact = float((one - (one - decimal.Decimal(alpha)) ** (one / m)) / 2)
    closed = -math.expm1(math.log1p(-alpha) / m) / 2
    assert closed == pytest.approx(exact, rel=1e-12, abs=0)
    lo, hi = method_tail_levels(MethodLabel.SIDAK, m, 1, alpha)
    assert lo == hi == pytest.approx(closed, rel=1e-12, abs=0)


def test_method_tail_levels_fcw_rejected():
    with pytest.raises(ValueError):
        method_tail_levels(MethodLabel.FCW_SYMMETRIC, 100, 10, 0.05)
    with pytest.raises(ValueError):
        method_tail_levels("not_a_method", 100, 10, 0.05)


def test_method_tail_levels_underflow_is_a_numerical_failure():
    # alpha / 2 rounds to 0: no quantile exists at that level
    with pytest.raises(OptimizationError,
                       match="bonferroni tail levels underflow to 0 at m=1, k=1, alpha=5e-324"):
        method_tail_levels("bonferroni", 1, 1, 5e-324)


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
        length = {lbl: sum(method_offsets(lbl, m, k, 0.05)) for lbl in MethodLabel}
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
    len_k1 = {lbl: sum(method_offsets(lbl, m, 1, 0.05)) for lbl in MethodLabel}
    assert (len_k1[MethodLabel.FCR_SELECTION_AWARE]
            > len_k1[MethodLabel.FCW_SHORTEST])
    # k = m: the symmetric split equals Bonferroni, which sits above Sidak
    len_km = {lbl: sum(method_offsets(lbl, m, m, 0.05)) for lbl in MethodLabel}
    assert len_km[MethodLabel.SOS_SYMMETRIC] == pytest.approx(
        2 * method_offsets("bonferroni", m, 1, 0.05)[0], abs=1e-12)
    assert len_km[MethodLabel.SOS_SYMMETRIC] > len_km[MethodLabel.SIDAK]


def test_sos_symmetric_length_identity():
    delta = 100 / (100 + 10)
    assert interval_length(100, 10, 0.05, delta) == pytest.approx(
        sum(_delta_offsets(100, 10, 0.05, delta, NORMAL)), abs=1e-15)
    assert sum(method_offsets(MethodLabel.SOS_SYMMETRIC, 100, 10, 0.05)) == pytest.approx(
        interval_length(100, 10, 0.05, delta), abs=1e-12)


@pytest.mark.parametrize("family", [None, "normal", [None] * 10, [NORMAL] * 10])
def test_method_offsets_rejects_non_families(family):
    with pytest.raises(ValueError, match="family"):
        method_offsets(MethodLabel.SIDAK, 10, 2, 0.05, family)


_SPLIT_M = st.integers(1, 10**6)
_SPLIT_ALPHA = st.floats(1e-8, 0.5)


@_PROPERTY
@given(_SPLIT_M, _SPLIT_ALPHA, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.data())
def test_fixed_policy_spans_interval_length(m, alpha, delta, data):
    # every estimate is 0, so -lo and hi are the two offsets, bit for bit
    k = data.draw(st.integers(1, min(m, 100)))
    y = np.zeros(m)
    try:
        length = interval_length(m, k, alpha, delta)
    except OptimizationError:  # 1 - delta*alpha/m rounds to 1: both routes refuse it
        with pytest.raises(OptimizationError, match="rounds 1 - level to 1"):
            k_of_m_intervals(y, k, alpha, "fixed", delta=delta)
        return
    intervals = k_of_m_intervals(y, k, alpha, "fixed", delta=delta)
    assert len(intervals) == k
    for iv in intervals:
        lower, upper = -iv.lo, iv.hi
        assert lower + upper == length


@_PROPERTY
@given(_SPLIT_M, _SPLIT_ALPHA, st.data())
def test_sos_shortest_levels_are_the_delta_split(m, alpha, data):
    k = data.draw(st.integers(1, m))
    delta, _ = optimize_delta(m, k, alpha)
    assert method_tail_levels("sos_shortest", m, k, alpha) == (
        delta * alpha / m, (1.0 - delta) * alpha / k)


@_PROPERTY
@given(_QUANTILE_METHODS, _M, _ALPHA, st.data())
def test_table_offsets_are_exact_quantiles(method, m, alpha, data):
    # an offset is minus the quantile at its tail level, with no 1 - p rounded first
    k = data.draw(st.integers(1, m))
    levels = method_tail_levels(method, m, k, alpha)
    offsets = method_offsets(method, m, k, alpha)
    assert all(math.isfinite(c) for c in offsets)
    assert offsets == tuple(-std_normal_quantile(p) for p in levels)


@_PROPERTY
@given(_QUANTILE_METHODS, _M, _M, _ALPHA, st.data())
def test_table_offsets_non_decreasing_in_m(method, m1, m2, alpha, data):
    m1, m2 = sorted((m1, m2))
    k = data.draw(st.integers(1, m1))
    levels1 = method_tail_levels(method, m1, k, alpha)
    levels2 = method_tail_levels(method, m2, k, alpha)
    assert all(p2 <= p1 for p1, p2 in zip(levels1, levels2))
    # std_normal_quantile is within 4 ulp of the true quantile, not monotone to
    # the ulp: between adjacent levels it can step back by a few ulp
    offsets1 = method_offsets(method, m1, k, alpha)
    offsets2 = method_offsets(method, m2, k, alpha)
    assert all(c2 >= c1 - 4.0 * np.spacing(c1) for c1, c2 in zip(offsets1, offsets2))


@_PROPERTY
@given(_M, _ALPHA)
@example(1, 0.46932566237350243)  # expm1(log1p(-alpha)) rounds below alpha here
def test_sidak_never_wider_than_bonferroni(m, alpha):
    assert sidak_halfwidth(m, alpha) <= method_offsets("bonferroni", m, 1, alpha)[0]


@_PROPERTY
@given(arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6)),
       st.sampled_from(["symmetric", "shortest"]), _ALPHA, st.data())
def test_k_of_m_endpoints_are_table_offsets(y, policy, alpha, data):
    k = data.draw(st.integers(1, y.size))
    label = f"sos_{policy}"
    lower, upper = method_offsets(label, y.size, k, alpha)
    intervals = k_of_m_intervals(y, k, alpha, policy)
    assert [(iv.lo, iv.hi, iv.method) for iv in intervals] == [
        (float(y[iv.index]) - lower, float(y[iv.index]) + upper, label) for iv in intervals]
