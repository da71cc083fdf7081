import math

import numpy as np
import pytest

from sosci import (
    ConfidenceInterval,
    OptimizationError,
    interval_length,
    k_of_m_intervals,
    method_offsets,
    optimize_delta,
)
from sosci.dist import NORMAL, ShiftFamily, student_t_family
from sosci.sos import _delta_levels, _delta_offsets, _golden_section_min

from _oracles import grid_argmin


def test_confidence_interval_contract():
    ci = ConfidenceInterval(2, -1.0, 3.5, "sos_symmetric")
    assert ci.length == 4.5
    assert ci.contains(0.0) and ci.contains(-1.0) and ci.contains(3.5)
    assert not ci.contains(3.6)
    with pytest.raises(ValueError):
        ConfidenceInterval(0, 1.0, 0.0, "x")
    with pytest.raises(ValueError):
        ConfidenceInterval(0, math.nan, 0.0, "x")


# the fixed-delta split, once the public spec_from_delta: its tail levels
# (_delta_levels), its offsets (_delta_offsets) and, at interval_length, its
# argument checks

def test_spec_from_delta_splits_alpha():
    lam_lo, lam_up = _delta_levels(100, 10, 0.05, 0.4)
    assert lam_lo == pytest.approx(0.4 * 0.05 / 100)
    assert lam_up == pytest.approx(0.6 * 0.05 / 10)
    assert 100 * lam_lo + 10 * lam_up == pytest.approx(0.05)


def test_spec_from_delta_symmetric_frozen():
    # oracle: independent bisection quantiles for the (m, k) = (100, 10) split
    c_lower, c_upper = _delta_offsets(100, 10, 0.05, 100 / (100 + 10), NORMAL)
    assert c_lower == pytest.approx(3.317247362, abs=1e-8)
    assert c_upper == pytest.approx(3.317247362, abs=1e-8)


def test_spec_from_delta_half_frozen():
    c_lower, c_upper = _delta_offsets(100, 10, 0.05, 0.5, NORMAL)
    assert c_lower == pytest.approx(3.480756404, abs=1e-8)
    assert c_upper == pytest.approx(2.807033768, abs=1e-8)


def test_spec_from_delta_k_equals_m_symmetric_is_bonferroni():
    for m in (2, 5, 100):
        c_lower, c_upper = _delta_offsets(m, m, 0.05, 0.5, NORMAL)
        assert c_lower == pytest.approx(method_offsets("bonferroni", m, 1, 0.05)[0],
                                        abs=1e-12)
        assert c_upper == pytest.approx(c_lower, abs=1e-12)


def test_spec_from_delta_domain():
    with pytest.raises(ValueError):
        interval_length(100, 10, 0.05, 0.0)
    with pytest.raises(ValueError):
        interval_length(100, 10, 0.05, 1.0)
    with pytest.raises(ValueError):
        interval_length(100, 10, 1.5, 0.5)
    with pytest.raises(ValueError):
        interval_length(10, 11, 0.05, 0.5)
    with pytest.raises(ValueError):
        interval_length(0, 0, 0.05, 0.5)


def test_k_of_m_symmetric_two_of_two():
    # oracle: c = z(1 - 0.025/1.5...) computed by bisection = 2.128045234
    res = k_of_m_intervals([2.9, 2.5], 1, 0.05)
    (ci,) = res
    assert ci.index == 0
    assert ci.method == "sos_symmetric"
    assert ci.lo == pytest.approx(2.9 - 2.128045234, abs=1e-8)
    assert ci.hi == pytest.approx(2.9 + 2.128045234, abs=1e-8)


def test_k_of_m_interval_count_and_order():
    y = np.array([0.1, 4.0, -2.0, 3.0, 1.0])
    out = k_of_m_intervals(y, 3, 0.05)
    assert [ci.index for ci in out] == [1, 3, 4]
    lengths = {ci.length for ci in out}
    assert max(lengths) - min(lengths) <= 1e-12


def test_k_of_m_shift_equivariance():
    y = np.array([0.5, -1.0, 2.2, 0.9])
    base = k_of_m_intervals(y, 2, 0.05)
    moved = k_of_m_intervals(y + 10.0, 2, 0.05)
    for a, b in zip(base, moved):
        assert b.lo == pytest.approx(a.lo + 10.0, abs=1e-12)
        assert b.hi == pytest.approx(a.hi + 10.0, abs=1e-12)


def test_k_of_m_policies_and_labels():
    y = np.linspace(-1, 1, 20)
    sym = k_of_m_intervals(y, 4, 0.05, delta_policy="symmetric")
    sho = k_of_m_intervals(y, 4, 0.05, delta_policy="shortest")
    fix = k_of_m_intervals(y, 4, 0.05, delta_policy="fixed", delta=0.3)
    assert {ci.method for ci in sym} == {"sos_symmetric"}
    assert {ci.method for ci in sho} == {"sos_shortest"}
    assert {ci.method for ci in fix} == {"sos_fixed"}
    assert sho[0].length <= sym[0].length + 1e-9


def test_k_of_m_fixed_requires_delta_and_rejects_otherwise():
    y = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        k_of_m_intervals(y, 1, 0.05, delta_policy="fixed")
    with pytest.raises(ValueError):
        k_of_m_intervals(y, 1, 0.05, delta_policy="symmetric", delta=0.4)
    with pytest.raises(ValueError):
        k_of_m_intervals(y, 1, 0.05, delta_policy="nope")


def test_k_of_m_heterogeneous_families():
    # one family serves every coordinate; per-coordinate families are a
    # method_offsets case (the mixed panel)
    fams = [NORMAL] * 3 + [student_t_family(5)] * 3
    y = [3.0, 0.1, 0.2, 2.5, 0.0, -0.3]
    for policy in ("symmetric", "shortest"):
        with pytest.raises(ValueError):
            k_of_m_intervals(y, 2, 0.05, delta_policy=policy, family=fams)


def test_k_of_m_length_grows_with_k():
    y = np.arange(30.0)
    lengths = [k_of_m_intervals(y, k, 0.05)[0].length for k in (1, 5, 15, 30)]
    assert all(a < b for a, b in zip(lengths, lengths[1:]))


def test_interval_length_helper():
    assert interval_length(10, 2, 0.05, 0.5) == pytest.approx(
        sum(_delta_offsets(10, 2, 0.05, 0.5, NORMAL)), abs=1e-15)


def test_golden_section_on_quadratic():
    x = _golden_section_min(lambda t: (t - 0.3) ** 2 + 1.0, -2.0, 2.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    with pytest.raises(ValueError):
        _golden_section_min(lambda t: t, 1.0, 1.0)


@pytest.mark.parametrize("m,k,expected_delta,expected_length", [
    # oracle: 10^4-point grid scan of the interval length in delta
    (100, 1, 0.371431, 5.419795),
    (100, 10, 0.449977, 6.285069),
    (2, 1, 0.470138, 4.200128),
])
def test_optimize_delta_frozen(m, k, expected_delta, expected_length):
    d, length = optimize_delta(m, k, 0.05)
    assert d == pytest.approx(expected_delta, abs=1e-4)
    assert length == pytest.approx(expected_length, abs=1e-6)


def test_optimize_delta_matches_grid():
    for m, k in ((100, 10), (10, 1), (50, 25)):
        d_star, len_star = optimize_delta(m, k, 0.05)

        def length_at(d):
            return interval_length(m, k, 0.05, d)

        _, grid_best = grid_argmin(length_at, 1e-6, 1 - 1e-6, 10000)
        assert len_star <= grid_best + 1e-4


def test_optimize_delta_k_equals_m_is_half():
    d, length = optimize_delta(100, 100, 0.05)
    assert d == pytest.approx(0.5, abs=1e-4)
    assert length == pytest.approx(2 * method_offsets("bonferroni", 100, 1, 0.05)[0], abs=1e-6)


def test_optimize_delta_bounded_by_symmetric():
    for m, k in ((100, 1), (100, 10), (20, 5)):
        _, len_star = optimize_delta(m, k, 0.05)
        sym_len = interval_length(m, k, 0.05, m / (m + k))
        assert len_star <= sym_len + 1e-9


def test_optimize_delta_failure_is_typed():
    with pytest.raises(OptimizationError):
        optimize_delta(100, 10, 1e-300)


@pytest.mark.parametrize("call", [
    lambda: method_offsets("sos_shortest", 10**15, 10, 0.05),
    lambda: interval_length(10**15, 10, 0.05, 0.5),
    lambda: k_of_m_intervals([3.0, 1.0, 2.0], 1, 0.05, "fixed", delta=1e-300),
], ids=["shortest-huge-m", "length-huge-m", "fixed-tiny-delta"])
def test_lost_lower_tail_level_names_m_k_and_alpha(call):
    # delta * alpha / m at or below 2^-54 leaves 1 - level at 1: the failure
    # names the level's inputs, and m rather than alpha is the cause here
    with pytest.raises(OptimizationError, match=r"lower tail level .* rounds 1 - level to 1 "
                                                r"at delta=.*, m=\d+, k=\d+, alpha=0\.05$"):
        call()


_BROKEN = ShiftFamily("broken", lambda p: math.inf)


@pytest.mark.parametrize("call", [
    lambda: method_offsets("bonferroni", 10, 2, 0.05, _BROKEN),
    lambda: interval_length(10, 2, 0.05, 0.5, _BROKEN),
    lambda: optimize_delta(10, 2, 0.05, _BROKEN),
    lambda: k_of_m_intervals(np.arange(10.0), 2, 0.05, "fixed", delta=0.5, family=_BROKEN),
], ids=["method_offsets", "interval_length", "optimize_delta", "fixed-delta"])
def test_non_finite_family_quantile_names_the_family(call):
    # the failure is the family's, where its quantile becomes an offset, and
    # names the tail level and the inputs that set it, not alpha alone
    with pytest.raises(OptimizationError, match=r"family 'broken' gives the non-finite offset "
                                                r".* at tail level [0-9.e-]+, m=10, k=2, "
                                                r"alpha=0\.05$"):
        call()


def test_k_of_m_rejects_non_family():
    with pytest.raises(ValueError, match="family"):
        k_of_m_intervals([1.0, 2.0, 3.0], 2, 0.05, family=None)
