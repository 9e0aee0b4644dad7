"""The exact excesses of tests/exact.py agree with rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

import exact
from troplp import EPSILON

RULES = ("primal", "dual", "arcs", "lower")


def _rational(*terms) -> float:
    """The exact sum, correctly rounded; nan where an absent arc enters,
    which Fraction cannot take."""
    if not np.isfinite(terms).all():
        return np.nan
    return float(sum(Fraction(t) for t in terms))


def _draw(rng, shape):
    """Entries of random sign and of magnitudes 10^0 to 10^300."""
    sign = rng.choice([-1.0, 1.0], shape)
    return sign * rng.random(shape) * 10.0 ** rng.integers(0, 301, shape)


@pytest.mark.parametrize("rule", RULES)
def test_agrees_with_fractions(rule):
    # 10 draws of 5 x 5 per rule, 1000 cases in all; half the witnesses sit
    # at the rounded difference that the rule's float test compares with,
    # where only the exact sign decides
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
        else:
            d, y = v, _draw(rng, (5, 5))
            y[:, 0] = np.where(at_rule, d, y[:, 0])
            got = np.stack([exact.lower(d, y[:, k]) for k in range(5)], axis=1)
            want = [[_rational(d[i], -y[i, k]) for k in range(5)] for i in range(5)]
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
