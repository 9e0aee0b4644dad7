"""The exact excesses of tests/exact.py agree with rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

import exact
from troplp import EPSILON, TropMatrix, certificates

RULES = ("primal", "dual", "arcs", "lower", "potential", "cycle", "fixed_point")


def _rational(*terms) -> float:
    """The exact sum, correctly rounded; nan where an absent arc enters,
    which Fraction cannot take."""
    if not np.isfinite(terms).all():
        return np.nan
    return float(sum(Fraction(t) for t in terms))


def _star_rule(a, s, i, j) -> float:
    """max(A S, I)_ij - S_ij from Fraction sums of the present terms; nan
    where an epsilon S_ij is subtracted."""
    if s[i, j] == EPSILON:
        return np.nan
    sums = [_rational(a[i, k], s[k, j], -s[i, j]) for k in range(len(s))
            if a[i, k] > EPSILON and s[k, j] > EPSILON]
    return max(sums + ([-s[i, i]] if i == j else []), default=EPSILON)


def _draw(rng, shape):
    """Entries of random sign and of magnitudes 10^0 to 10^300."""
    sign = rng.choice([-1.0, 1.0], shape)
    return sign * rng.random(shape) * 10.0 ** rng.integers(0, 301, shape)


@pytest.mark.parametrize("rule", RULES)
def test_agrees_with_fractions(rule):
    # 10 draws of 25 cases per rule (5 x 5, or 25 cycles), 1750 cases in
    # all; half the witnesses sit at the rounded difference that the rule's
    # float test compares with, where only the exact sign decides
    rng = np.random.default_rng(RULES.index(rule))
    for _ in range(10):
        a, u, v = _draw(rng, (5, 5)), _draw(rng, 5), _draw(rng, 5)
        a[rng.random((5, 5)) < 0.1] = EPSILON
        at_rule = rng.random(5) < 0.5
        if rule == "primal":
            lightest = np.min(np.where(a > EPSILON, v[:, None] - a, np.inf), axis=0)
            x = np.where(at_rule & (lightest < np.inf), lightest, u)
            got, want = exact.primal(a, x, v), [[_rational(a[i, j], x[j], -v[i])
                                                 for j in range(5)] for i in range(5)]
        elif rule == "dual":
            heaviest = np.max(np.where(a > EPSILON, u[None, :] - a, EPSILON), axis=1)
            pi = np.where(at_rule & (heaviest > EPSILON), heaviest, v)
            got, want = exact.dual(a, pi, u), [[_rational(u[j], -a[i, j], -pi[i])
                                                for j in range(5)] for i in range(5)]
        elif rule == "arcs":
            got, want = exact.arcs(a, u), [[_rational(a[i, j], u[j], -u[i])
                                            for j in range(5)] for i in range(5)]
        elif rule == "lower":
            d, y = v, _draw(rng, (5, 5))
            y[:, 0] = np.where(at_rule, d, y[:, 0])
            got = np.stack([exact.lower(d, y[:, k]) for k in range(5)], axis=1)
            want = [[_rational(d[i], -y[i, k]) for k in range(5)] for i in range(5)]
        elif rule == "potential":
            # x_v where fl(lam + x_v) meets the heaviest fl(x_u + a_uv)
            lam = float(u[0])
            heaviest = np.max(v[:, None] + a, axis=0)
            x = np.where(at_rule & (heaviest > EPSILON), heaviest - lam, v)
            got, want = exact.potential(a, lam, x), [[_rational(x[i], a[i, j], -lam, -x[j])
                                                      for j in range(5)] for i in range(5)]
        elif rule == "cycle":
            # lam is the cycle's mean as certificates._cycle_mean sums it
            cycles = [rng.permutation(5)[:rng.integers(1, 6)].tolist() for _ in range(25)]
            lams = [certificates._cycle_mean(TropMatrix(a), c) if rng.random() < 0.5
                    else float(u[0]) for c in cycles]
            lams = [lam if lam > EPSILON else float(u[0]) for lam in lams]
            got = np.array([exact.cycle(a, c, lam) for c, lam in zip(cycles, lams)])
            want = [_rational(*(a[p, q] for p, q in zip(c, [*c[1:], c[0]])), *[-lam] * len(c))
                    for c, lam in zip(cycles, lams)]
        else:
            # S_ij at the float max(A S, I)_ij it is compared with
            s = _draw(rng, (5, 5))
            s[rng.random((5, 5)) < 0.1] = EPSILON
            fixed = (a[:, :, None] + s[None, :, :]).max(axis=1)
            np.fill_diagonal(fixed, np.maximum(fixed.diagonal(), 0.0))
            s = np.where(rng.random((5, 5)) < 0.5, fixed, s)
            got, want = exact.fixed_point(a, s), [[_star_rule(a, s, i, j) for j in range(5)]
                                                  for i in range(5)]
        want = np.array(want)
        absent = np.isnan(want)
        assert np.array_equal(got[~absent], want[~absent])
        # an absent arc adds -inf, and subtracted it is +inf
        assert (np.abs(got[absent]) == np.inf).all()


def test_absent_arcs_keep_their_sign():
    a = np.array([[EPSILON, 1.0]])
    assert exact.primal(a, np.array([0.0, 0.0]), np.array([0.0])).tolist() == [[EPSILON, 1.0]]
    assert exact.dual(a, np.array([0.0]), np.array([0.0, 0.0])).tolist() == [[np.inf, -1.0]]
    assert exact.arcs(np.array([[EPSILON]]), np.array([1e300])).tolist() == [[EPSILON]]
    square = np.array([[EPSILON, 1.0], [EPSILON, EPSILON]])
    assert exact.potential(square, 0.0, np.array([0.0, 0.0])).tolist() == [[EPSILON, 1.0],
                                                                            [EPSILON, EPSILON]]
    assert exact.cycle(square, [0, 1], 0.0) == EPSILON
    # no present term and an epsilon S: -inf off the diagonal, and +inf
    # where 0 - S_ii is the term
    assert exact.fixed_point(square, np.full((2, 2), EPSILON)).tolist() == [
        [np.inf, EPSILON], [EPSILON, np.inf]]
