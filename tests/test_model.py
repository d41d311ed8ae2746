import math

import numpy as np
import pytest

from pcortho import (
    HalfVector,
    LengthMismatch,
    NonPositiveWeight,
    NotReciprocal,
    PCMatrix,
    SkewMatrix,
    consistent_from_weights,
    f_n,
    half_to_skew,
    is_additively_consistent,
    is_consistent,
    mu,
    phi,
    skew_to_half,
    symmetrize,
)
from pcortho.model import additive_defect, consistency_defect
from conftest import random_reciprocal, random_skew

LN2 = math.log(2.0)

# h_3-spanning matrix with upper triangle (1, -1, 1)
N3 = SkewMatrix(3, [1.0, -1.0, 1.0])


def test_mu_all_ones_is_zero():
    A = PCMatrix.from_rows(np.ones((3, 3)))
    assert np.array_equal(mu(A).upper, np.zeros(3))


def test_mu_elementwise_log():
    A = PCMatrix.from_rows([[1, 2, 0.5], [0.5, 1, 4], [2, 0.25, 1]])
    assert np.allclose(mu(A).upper, [LN2, -LN2, 2 * LN2], rtol=0, atol=1e-15)


def test_mu_rejects_non_reciprocal():
    A = PCMatrix.from_rows([[1, 2], [3, 1]])
    with pytest.raises(NotReciprocal):
        mu(A)


def test_phi_zero_is_all_ones():
    assert np.array_equal(phi(SkewMatrix.zeros(3)).entries, np.ones((3, 3)))


def test_phi_elementwise_exp():
    B = SkewMatrix(3, [LN2, -LN2, 2 * LN2])
    expected = [[1, 2, 0.5], [0.5, 1, 4], [2, 0.25, 1]]
    assert np.allclose(phi(B).entries, expected, rtol=1e-15)


def test_phi_of_cycle_matrix():
    e = math.e
    expected = [[1, e, 1 / e], [1 / e, 1, e], [e, 1 / e, 1]]
    assert np.allclose(phi(N3).entries, expected, rtol=1e-15)


def test_phi_mu_roundtrip(rng):
    for n in (2, 3, 5, 9):
        A = random_reciprocal(rng, n, scale=2.0)
        assert np.allclose(phi(mu(A)).entries, A.entries, rtol=1e-12)


def test_f_n_constant_is_zero():
    assert np.array_equal(f_n(2.5 * np.ones(4)).upper, np.zeros(6))


def test_f_n_entries():
    assert np.array_equal(f_n([1.0, -1.0, 0.0]).dense(),
                          [[0, 2, 1], [-2, 0, -1], [-1, 1, 0]])


def test_f_n_gives_e1():
    E1 = f_n([2 / 3, -1 / 3, -1 / 3])
    assert np.allclose(E1.dense(), [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]], atol=1e-15)


def test_f_n_kernel(rng):
    # f(v) = 0 only for constant v
    for _ in range(50):
        v = rng.normal(size=5)
        B = f_n(v)
        if B.max_abs() == 0.0:
            assert np.max(np.abs(v - v.mean())) <= 1e-12 * np.linalg.norm(v)
        else:
            assert not np.allclose(v, v.mean())


def test_f_n_is_additively_consistent(rng):
    for n in (2, 3, 6):
        assert is_additively_consistent(f_n(rng.normal(size=n)), 1e-12)


def test_half_vector_roundtrip_bitwise(rng):
    B = random_skew(rng, 5)
    again = half_to_skew(skew_to_half(B))
    assert np.array_equal(again.upper, B.upper)
    assert np.array_equal(half_to_skew(skew_to_half(B)).dense(), B.dense())


def test_half_vector_of_cycle_matrix():
    assert np.array_equal(skew_to_half(N3).coords, [1.0, -1.0, 1.0])


def test_half_vector_length_mismatch():
    with pytest.raises(LengthMismatch):
        HalfVector(4, [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        SkewMatrix(3, [1.0, 2.0])


def test_h4_first_basis_matrix_from_half_vector():
    B = half_to_skew(HalfVector(4, [1, -1, 0, 1, 0, 0]))
    expected = [[0, 1, -1, 0], [-1, 0, 1, 0], [1, -1, 0, 0], [0, 0, 0, 0]]
    assert np.array_equal(B.dense(), expected)


def test_is_consistent_from_weights():
    assert is_consistent(consistent_from_weights([1, 2, 4]))


def test_phi_cycle_not_consistent():
    assert not is_consistent(phi(N3))
    assert not is_additively_consistent(N3, 1e-9)


def test_2x2_always_consistent(rng):
    for _ in range(10):
        a = rng.uniform(0.1, 10)
        assert is_consistent(PCMatrix.from_rows([[1, a], [1 / a, 1]]))


def test_consistent_from_weights_values():
    A = consistent_from_weights([1, 2, 4])
    assert np.allclose(A.entries, [[1, 0.5, 0.25], [2, 1, 0.5], [4, 2, 1]], rtol=1e-15)
    assert np.array_equal(consistent_from_weights([1, 1, 1]).entries, np.ones((3, 3)))
    with pytest.raises(NonPositiveWeight):
        consistent_from_weights([1, 0, 2])


def test_consistent_from_weights_log_is_f_n(rng):
    w = rng.uniform(0.5, 3.0, size=5)
    assert np.allclose(mu(consistent_from_weights(w)).upper,
                       f_n(np.log(w)).upper, atol=1e-12)


def test_consistency_equivalence_mult_additive(rng):
    # reciprocal A: multiplicative consistency <=> additive consistency of mu(A)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        if rng.random() < 0.5:
            A = consistent_from_weights(rng.uniform(0.5, 2.0, size=n))
        else:
            A = random_reciprocal(rng, n)
        assert is_consistent(A, 1e-9) == is_additively_consistent(mu(A), 1e-9)


def test_symmetrize_repairs_reciprocity():
    A = PCMatrix.from_rows([[1, 2], [3, 1]])
    S = symmetrize(A)
    assert S.is_reciprocal(1e-12)
    assert np.isclose(S.entries[0, 1], math.sqrt(2 / 3))


def test_skew_arithmetic(rng):
    B, C = random_skew(rng, 4), random_skew(rng, 4)
    assert np.allclose((B + C).dense(), B.dense() + C.dense())
    assert np.allclose((B - C).dense(), B.dense() - C.dense())
    assert np.allclose((2.0 * B).dense(), 2.0 * B.dense())
    assert np.allclose((-B).dense(), -B.dense())


def test_skew_storage_is_structural(rng):
    # dense view is exactly skew, entry by entry
    B = random_skew(rng, 6)
    d = B.dense()
    assert np.array_equal(d, -d.T)
    assert np.array_equal(np.diag(d), np.zeros(6))


def broadcast_consistency_defect(A):
    # reference: the whole n x n x n triple tensor at once
    e = A.entries
    t = e[:, :, None] * e[None, :, :] / e[:, None, :]
    return float(np.max(np.abs(t - 1.0)))


def broadcast_additive_defect(B):
    d = B.dense()
    t = d[:, :, None] + d[None, :, :] + d.T[:, None, :]
    return float(np.max(np.abs(t)))


def test_defects_match_broadcast_formula_exactly(rng):
    for n in range(2, 13):
        for scale in (1e-9, 1.0, 4.0):
            B = random_skew(rng, n, scale)
            consistent = f_n(rng.normal(scale=scale, size=n))
            raw = PCMatrix(n, np.exp(rng.uniform(-scale, scale, size=(n, n))))
            assert not raw.is_reciprocal() or scale < 1e-6
            for C in (B, consistent):
                assert additive_defect(C) == broadcast_additive_defect(C)
            for A in (phi(B), phi(consistent), raw):
                assert consistency_defect(A) == broadcast_consistency_defect(A)
