"""Oracle for the fused regret pass: each family's closed forms written out
separately, as three calls that each recompute the anchor (nested np.where) or
the target (np.clip), and the regret max(best - current, 0) built from them."""

import numpy as np


def plateau_regrets(lam, a, e, cap):
    def best_response():
        anchor = lam * e
        lo = np.where(anchor + 1.0 < 0.0, 0.0,
                      np.where(cap < anchor, cap, np.maximum(anchor, 0.0)))
        hi = np.where(anchor + 1.0 < 0.0, 0.0,
                      np.where(cap < anchor, cap, np.minimum(anchor + 1.0, cap)))
        return lo, hi

    def best_value():
        anchor = lam * e
        return np.where(anchor + 1.0 < 0.0, -0.5 - anchor,
                        np.where(anchor <= cap, 0.5 * anchor ** 2,
                                 cap * (anchor - 0.5 * cap)))

    def evaluate():
        anchor = lam * e
        below = -0.5 * a ** 2 + anchor * a
        flat = 0.5 * anchor ** 2
        above = -0.5 * (a - 1.0) ** 2 + anchor * (a - 1.0)
        return np.where(a < anchor, below, np.where(a <= anchor + 1.0, flat, above))

    return best_response(), np.maximum(best_value() - evaluate(), 0.0)


def quadratic_regrets(beta, delta, a, e, cap):
    def target():
        return beta + delta * e

    point = np.clip(target(), 0.0, cap)
    best = -0.5 * (np.clip(target(), 0.0, cap) - target()) ** 2
    current = -0.5 * (a - target()) ** 2
    return (point, point), np.maximum(best - current, 0.0)


def oracle_regrets(utilities, a, e, cap):
    """((lo, hi), h) of a PlateauUtility or QuadraticUtility, by the oracle."""
    p = {name: prof.values for name, prof in utilities.params.items()}
    a, e = np.asarray(a, float), np.asarray(e, float)
    if utilities.family == "plateau_lq":
        return plateau_regrets(p["lam"], a, e, cap)
    return quadratic_regrets(p["beta"], p["delta"], a, e, cap)


def assert_same_bits(actual, expected):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))
