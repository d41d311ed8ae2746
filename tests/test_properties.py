"""Property tests of the decomposition and the ranking.

Examples are derandomized and n <= 12, so the suite is deterministic and fast.
Weights run from the identity (cond 1) to condition number 1e6.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pcortho import SkewMatrix, WeightMatrix, decompose, inconsistency_ratio, ranking
from conftest import ill_conditioned_pd

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None)


@st.composite
def problems(draw):
    """A skew B with log-scale entries in [-3, 3] and an SPD weight of the same order."""
    n = draw(st.integers(2, 12))
    upper = draw(arrays(np.float64, n * (n - 1) // 2,
                        elements=st.floats(-3.0, 3.0, allow_subnormal=False)))
    seed = draw(st.integers(0, 2**32 - 1))
    cond = draw(st.sampled_from([1.0, 1e3, 1e6]))
    W = ill_conditioned_pd(np.random.default_rng(seed), n, cond)
    return SkewMatrix(n, upper), WeightMatrix.from_rows(W)


def assert_close(got, want):
    # cond(W) up to 1e6 times float64 rounding, with room to spare
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))


def log_ranking(B, W):
    return ranking(decompose(B, W).B_l).logvalues


@DETERMINISTIC
@given(problems(), st.data())
def test_ranking_is_permutation_equivariant(problem, data):
    B, W = problem
    p = np.array(data.draw(st.permutations(range(B.n))))
    Bp = SkewMatrix.from_dense(B.dense()[np.ix_(p, p)])
    Wp = WeightMatrix.from_rows(W.entries[np.ix_(p, p)])
    assert_close(log_ranking(Bp, Wp), log_ranking(B, W)[p])


@DETERMINISTIC
@given(problems(), st.floats(0.1, 10.0))
def test_power_scales_log_ranking_and_keeps_ratio(problem, t):
    # A^t has log-matrix t B
    B, W = problem
    assert_close(log_ranking(t * B, W), t * log_ranking(B, W))
    assume(B.max_abs() > 1e-3)
    assert_close(inconsistency_ratio(t * B, W), inconsistency_ratio(B, W))


@DETERMINISTIC
@given(problems(), st.floats(1e-3, 1e3))
def test_scaled_weight_gives_same_decomposition(problem, c):
    B, W = problem
    D, Dc = decompose(B, W), decompose(B, WeightMatrix(W.n, c * W.entries))
    assert_close(Dc.B_l.upper, D.B_l.upper)
    assert_close(Dc.B_h.upper, D.B_h.upper)


@DETERMINISTIC
@given(problems())
def test_decompose_is_idempotent_on_consistent_part(problem):
    B, W = problem
    B_l = decompose(B, W).B_l
    again = decompose(B_l, W)
    assert_close(again.B_l.upper, B_l.upper)
    assert_close(again.B_h.upper, np.zeros_like(B_l.upper))
