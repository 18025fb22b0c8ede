"""The equal-size two-sample KS test against scipy.stats.ks_2samp and against
the exact rational null probability.

`harness.ks_2samp_equal` evaluates the p-value as scipy 1.17 does for equal
sizes (`_compute_prob_outside_square`), in the same operation order, so its
statistic and p-value equal scipy's bit for bit wherever scipy stays exact.
It departs from scipy in two places:
  (a) where the alternating sum overshoots 1 (small h: up to 3 at n = 256,
      8 at 2048, 23 at 8192), scipy falls back to its asymptotic law, which
      can read as low as 0.99996 (n = 7, h = 1); the port returns 1.0, the
      true value to double precision;
  (b) above 10,000 members scipy's 'auto' method turns asymptotic; the port
      stays exact.
scipy is an oracle here only, imported inside the tests: the library never
loads it (see test_imports.py).
"""

import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from gibbsdyn.harness import ks_2samp_equal

SIZES = (2, 7, 64, 256, 2048, 8192)


def exact_pvalue(n: int, h: int) -> Fraction:
    """P(D_{n,n} >= h/n) under the null, as the rational alternating sum
    2 * sum_{k>=1} (-1)^(k+1) binom(2n, n - kh) / binom(2n, n)."""
    if h == 0:
        return Fraction(1)
    alternating = sum((-1) ** (k + 1) * comb(2 * n, n - k * h) for k in range(1, n // h + 1))
    return Fraction(2 * alternating, comb(2 * n, n))


def scipy_ks(a, b):
    """scipy's (statistic, pvalue), and whether its exact sum fell outside
    [0, 1] so that it fell back to the asymptotic distribution."""
    from scipy.stats import ks_2samp

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = ks_2samp(a, b)
    fell_back = any("Exact calculation unsuccessful" in str(w.message) for w in caught)
    return float(res.statistic), float(res.pvalue), fell_back


def sample_pairs(n: int, rng):
    """Random, tied, shifted, identical (h = 0) and disjoint (h = n) pairs."""
    a = rng.standard_normal(n)
    yield "random", a, rng.standard_normal(n)
    yield "scaled", a, 1.3 * rng.standard_normal(n)
    yield "shifted", a, rng.standard_normal(n) + 0.2
    yield "tied", np.round(a), np.round(rng.standard_normal(n))
    yield "tied_coarse", np.floor(2 * rng.random(n)), np.floor(3 * rng.random(n))
    yield "identical", a, a[::-1].copy()
    yield "disjoint", a, a + (a.max() - a.min()) + 1.0


@pytest.mark.parametrize("n", SIZES)
def test_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    seen_h = set()
    for kind, a, b in sample_pairs(n, rng):
        stat, p = ks_2samp_equal(a, b)
        want_stat, want_p, fell_back = scipy_ks(a, b)
        h = round(stat * n)
        seen_h.add(h)
        assert stat == want_stat, (kind, stat, want_stat)
        if fell_back:
            assert p == 1.0, (kind, p)
        else:
            assert p == want_p, (kind, p, want_p)
        if kind == "identical":
            assert (stat, p) == (0.0, 1.0)
        if kind == "disjoint":
            assert stat == 1.0 and h == n
    assert {0, n} <= seen_h


@pytest.mark.parametrize("n", range(1, 121))
def test_every_h_at_small_n(n):
    # b is a shifted by h places, so the counts differ by exactly h
    a = np.arange(n, dtype=float)
    for h in range(n + 1):
        stat, p = ks_2samp_equal(a, a + h)
        want_stat, want_p, fell_back = scipy_ks(a, a + h)
        true_p = exact_pvalue(n, h)
        assert stat == want_stat == h / n
        assert p == pytest.approx(float(true_p), rel=1e-12, abs=0)
        if fell_back:
            # scipy's exact sum overshot 1; the true value is 1 to double precision
            assert p == 1.0
            assert 1 - true_p <= Fraction(1, 10**9)
        else:
            assert p == want_p, (n, h, p, want_p)


def test_overshoot_returns_one():
    # at n = 8192 the sum overshoots 1 for h up to 23; scipy then reports its
    # asymptotic value, which sits within 1e-9 of 1 at this size
    n = 8192
    a = np.arange(n, dtype=float)
    overshoots = 0
    for h in range(1, 32):
        _, p = ks_2samp_equal(a, a + h)
        _, want_p, fell_back = scipy_ks(a, a + h)
        if fell_back:
            overshoots += 1
            assert p == 1.0
            assert abs(p - want_p) <= 1e-9
        else:
            assert p == want_p
    assert overshoots > 0


def test_stays_exact_above_scipy_auto_limit():
    # scipy's 'auto' method turns asymptotic above 10,000 members; the exact
    # sum still agrees with the rational value there
    n, h = 10_240, 160
    a = np.arange(n, dtype=float)
    stat, p = ks_2samp_equal(a, a + h)
    assert stat == h / n
    assert p == pytest.approx(float(exact_pvalue(n, h)), rel=1e-10)


@pytest.mark.parametrize("a, b", [
    (np.zeros(5), np.zeros(6)),
    (np.zeros(0), np.zeros(0)),
    (np.zeros((2, 3)), np.zeros((2, 3))),
    (np.array([0.0, np.nan]), np.zeros(2)),
])
def test_rejects_bad_samples(a, b):
    with pytest.raises(ValueError):
        ks_2samp_equal(a, b)
