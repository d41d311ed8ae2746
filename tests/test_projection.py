import tracemalloc

import numpy as np
import pytest

from pcortho import (
    FrobeniusInner,
    NotConsistent,
    SingularGram,
    SkewMatrix,
    WeightedFrobeniusInner,
    WeightMatrix,
    ZeroMatrix,
    consistent_from_weights,
    corollary_checks,
    decompose,
    f_n,
    factor_pc,
    hn_membership,
    inconsistency_ratio,
    is_additively_consistent,
    is_consistent,
    ln_basis,
    mu,
    oracle_project,
    phi,
    project_ln_closed,
    project_ln_w,
    ranking,
)
import pcortho.projection as projection
from pcortho.bases import BasisSet, complement_vectors, ln_w_basis
from pcortho.model import additive_defect, consistency_defect
from conftest import ill_conditioned_pd, random_pd, random_reciprocal, random_skew

N3 = SkewMatrix(3, [1.0, -1.0, 1.0])
I3 = WeightMatrix.identity(3)


def eq18_upper(x, y, z):
    return np.array([(2 * x + y - z) / 3, (x + 2 * y + z) / 3, (-x + y + 2 * z) / 3])


def raw_ln_basis(n):
    """Non-orthogonalized spanning set of l_n from the staircase vectors."""
    return BasisSet("l_n", n, [f_n(y) for y in complement_vectors(n)])


def test_closed_form_fixes_consistent_matrices():
    B = f_n([1.0, 2.0, 3.0])
    assert np.max(np.abs(project_ln_closed(B).upper - B.upper)) <= 1e-13


def test_closed_form_kills_cycle_matrix():
    assert project_ln_closed(N3).max_abs() == 0.0


def test_closed_form_123_fixture():
    B = SkewMatrix(3, [1.0, 2.0, 3.0])
    assert np.allclose(project_ln_closed(B).upper, [1 / 3, 8 / 3, 7 / 3], atol=1e-14)
    assert np.allclose(project_ln_closed(B).upper, eq18_upper(1, 2, 3), atol=1e-14)


def test_project_w_identity_matches_closed(rng):
    for n in range(3, 13):
        W = WeightMatrix.identity(n)
        bs = ln_w_basis(n, W)
        for _ in range(100):
            B = random_skew(rng, n)
            a = project_ln_closed(B)
            b = project_ln_w(B, W, basis=bs)
            assert np.max(np.abs(a.upper - b.upper)) <= 1e-10


def test_project_w_fixes_subspace(rng):
    for _ in range(10):
        n = int(rng.integers(3, 7))
        W = WeightMatrix.from_rows(random_pd(rng, n))
        B = f_n(rng.normal(size=n))
        assert np.max(np.abs(project_ln_w(B, W).upper - B.upper)) <= 1e-11


def test_project_w_idempotent_and_linear(rng):
    n = 5
    W = WeightMatrix.from_rows(random_pd(rng, n))
    bs = ln_w_basis(n, W)
    B, C = random_skew(rng, n), random_skew(rng, n)
    P = lambda X: project_ln_w(X, W, basis=bs)
    assert np.max(np.abs(P(P(B)).upper - P(B).upper)) <= 1e-11
    lhs = P(2.5 * B + C)
    rhs = 2.5 * P(B) + P(C)
    assert np.max(np.abs(lhs.upper - rhs.upper)) <= 1e-10


def test_project_w_matches_oracle_diag3(rng):
    W = WeightMatrix.from_rows(np.diag([1.0, 2.0, 3.0]))
    ip = WeightedFrobeniusInner(W.entries)
    for _ in range(50):
        B = random_skew(rng, 3)
        a = project_ln_w(B, W)
        b = oracle_project(B, raw_ln_basis(3), ip)
        assert np.max(np.abs(a.upper - b.upper)) <= 1e-9


def test_decompose_123_fixture():
    D = decompose(SkewMatrix(3, [1.0, 2.0, 3.0]), I3)
    assert np.allclose(D.B_h.upper, (2 / 3) * N3.upper, atol=1e-14)
    assert D.residual_check <= 1e-12
    assert is_additively_consistent(D.B_l, 1e-9)


def test_decompose_invariants(rng):
    for _ in range(10):
        n = int(rng.integers(3, 8))
        W = WeightMatrix.from_rows(random_pd(rng, n))
        B = random_skew(rng, n)
        D = decompose(B, W)
        assert np.max(np.abs(B.upper - D.B_l.upper - D.B_h.upper)) <= 1e-12
        assert is_additively_consistent(D.B_l, 1e-9)
        from pcortho import hn_membership, w_frobenius

        assert hn_membership(D.B_h, W)
        nl = np.sqrt(w_frobenius(D.B_l.dense(), D.B_l.dense(), W.entries))
        nh = np.sqrt(w_frobenius(D.B_h.dense(), D.B_h.dense(), W.entries))
        cross = w_frobenius(D.B_l.dense(), D.B_h.dense(), W.entries)
        assert abs(cross) <= 1e-9 * max(1.0, nl * nh)


def test_decompose_h_matrix_passthrough():
    D = decompose(N3, I3)
    assert D.B_l.max_abs() <= 1e-14
    assert np.allclose(D.B_h.upper, N3.upper, atol=1e-14)
    Dz = decompose(SkewMatrix.zeros(4), WeightMatrix.identity(4))
    assert Dz.B_l.max_abs() == 0.0 and Dz.B_h.max_abs() == 0.0


def test_pythagoras(rng):
    from pcortho import w_frobenius

    for n in range(3, 13):
        W = WeightMatrix.from_rows(random_pd(rng, n))
        B = random_skew(rng, n)
        D = decompose(B, W)
        total = w_frobenius(B.dense(), B.dense(), W.entries)
        parts = (w_frobenius(D.B_l.dense(), D.B_l.dense(), W.entries)
                 + w_frobenius(D.B_h.dense(), D.B_h.dense(), W.entries))
        assert np.isclose(total, parts, rtol=1e-9)


def test_minimality(rng):
    from pcortho import w_frobenius

    n = 4
    W = WeightMatrix.from_rows(random_pd(rng, n))
    B = random_skew(rng, n)
    D = decompose(B, W)
    dist = lambda X: w_frobenius((B - X).dense(), (B - X).dense(), W.entries)
    best = dist(D.B_l)
    for _ in range(50):
        C = f_n(rng.normal(size=n))
        if np.max(np.abs(C.upper - D.B_l.upper)) < 1e-12:
            continue
        assert best < dist(C)


def test_factor_consistent_input(rng):
    A = consistent_from_weights([1.0, 2.0, 4.0])
    Fh, Fl = factor_pc(A, I3)
    assert np.allclose(Fh.entries, np.ones((3, 3)), atol=1e-12)
    assert np.allclose(Fl.entries, A.entries, rtol=1e-12)


def test_factor_pure_h_input():
    A = phi(N3)
    Fh, Fl = factor_pc(A, I3)
    assert np.allclose(Fh.entries, A.entries, rtol=1e-12)
    assert np.allclose(Fl.entries, np.ones((3, 3)), atol=1e-12)


def test_factor_123_fixture():
    A = phi(SkewMatrix(3, [1.0, 2.0, 3.0]))
    _, Fl = factor_pc(A, I3)
    expected = np.exp(np.array([1 / 3, 8 / 3, 7 / 3]))
    assert np.allclose([Fl.entries[0, 1], Fl.entries[0, 2], Fl.entries[1, 2]],
                       expected, rtol=1e-12)


def test_factor_reconstruction(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        W = WeightMatrix.from_rows(random_pd(rng, n))
        A = random_reciprocal(rng, n)
        Fh, Fl = factor_pc(A, W)
        assert np.allclose(Fh.hadamard(Fl).entries, A.entries, rtol=1e-11)
        assert is_consistent(Fl, 1e-9)
        assert Fh.is_reciprocal(1e-12) and Fl.is_reciprocal(1e-12)


def test_ranking_zero_is_uniform():
    rv = ranking(SkewMatrix.zeros(4))
    assert np.allclose(rv.weights, 0.25 * np.ones(4), atol=1e-15)
    assert np.array_equal(rv.logvalues, np.zeros(4))


def test_ranking_fixture():
    rv = ranking(f_n([1.0, 2.0, 3.0]))
    assert np.allclose(rv.logvalues, [-1.0, 0.0, 1.0], atol=1e-12)
    w = np.exp([-1.0, 0.0, 1.0])
    assert np.allclose(rv.weights, w / w.sum(), rtol=1e-12)


def test_ranking_of_projected_part():
    D = decompose(SkewMatrix(3, [1.0, 2.0, 3.0]), I3)
    rv = ranking(D.B_l)
    assert np.allclose(rv.logvalues, [1.0, 2 / 3, -5 / 3], atol=1e-12)


def test_ranking_round_trip(rng):
    for _ in range(20):
        n = int(rng.integers(3, 9))
        B = f_n(rng.normal(size=n))
        rv = ranking(B)
        assert abs(rv.logvalues.sum()) <= 1e-10
        assert np.isclose(rv.weights.sum(), 1.0, rtol=1e-12)
        assert np.max(np.abs(f_n(rv.logvalues).upper - B.upper)) <= 1e-10


def test_ranking_rejects_inconsistent():
    with pytest.raises(NotConsistent):
        ranking(N3)
    with pytest.raises(NotConsistent):
        ranking(SkewMatrix(4, [0.0, 0.0, 0.0, 0.0, 0.0, np.nan]))


def test_ranking_residual_brackets_worst_triple(rng):
    # R = B - f(B1/n) is the mean of the triple sums over the third index
    for _ in range(200):
        n = int(rng.integers(2, 13))
        B = random_skew(rng, n, 10.0 ** rng.uniform(-10, 1)) + f_n(rng.normal(size=n))
        r = float(np.max(np.abs(B.upper - f_n(B.row_sums() / n).upper)))
        worst = additive_defect(B)
        assert r <= worst + 1e-12 and worst <= 3 * r + 1e-12
        ranking(B, tol=r)
        with pytest.raises(NotConsistent):
            ranking(B, tol=np.nextafter(r, -1.0))


def test_defects_and_ranking_memory_is_quadratic(rng):
    n = 200  # one n x n x n float64 array would be 64 MB
    B = random_skew(rng, n)
    for fn, arg in ((consistency_defect, phi(B)), (additive_defect, B), (ranking, f_n(B.row_sums()))):
        tracemalloc.start()
        try:
            fn(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (fn.__name__, peak)


def test_inconsistency_ratio_extremes():
    assert inconsistency_ratio(f_n([1.0, 2.0, 3.0]), I3) <= 1e-7
    assert np.isclose(inconsistency_ratio(N3, I3), 1.0, rtol=1e-12)
    with pytest.raises(ZeroMatrix):
        inconsistency_ratio(SkewMatrix.zeros(3), I3)


def test_inconsistency_ratio_fixture():
    r = inconsistency_ratio(SkewMatrix(3, [1.0, 2.0, 3.0]), I3)
    assert np.isclose(r, np.sqrt(2 / 21), rtol=1e-12)


def test_oracle_orthogonal_basis_gives_fourier(rng):
    bs = ln_basis(4)
    B = random_skew(rng, 4)
    a = oracle_project(B, bs, FrobeniusInner())
    b = project_ln_closed(B)
    assert np.max(np.abs(a.upper - b.upper)) <= 1e-10


def test_oracle_fixes_span(rng):
    bs = raw_ln_basis(5)
    B = f_n(rng.normal(size=5))
    out = oracle_project(B, bs, FrobeniusInner())
    assert np.max(np.abs(out.upper - B.upper)) <= 1e-10


def test_oracle_matches_projection_random_w(rng):
    weights = [random_pd(rng, 4) for _ in range(20)]
    # ill-conditioned W, as in the benchmark's range
    weights += [ill_conditioned_pd(rng, n) for n in range(3, 11) for _ in range(3)]
    for Wd in weights:
        n = Wd.shape[0]
        W = WeightMatrix.from_rows(Wd)
        B = random_skew(rng, n)
        a = project_ln_w(B, W)
        b = oracle_project(B, raw_ln_basis(n), WeightedFrobeniusInner(W.entries))
        assert np.max(np.abs(a.upper - b.upper)) <= 1e-9
        assert hn_membership(B - a, W, tol=1e-9)


def test_residual_check_is_orthogonality_residual(rng, monkeypatch):
    exact = projection.project_ln_w
    for n in range(3, 11):
        for Wd in (random_pd(rng, n), ill_conditioned_pd(rng, n)):
            W = WeightMatrix.from_rows(Wd)
            B = random_skew(rng, n)
            # a consistent shift of B_l makes the residual nonzero
            for shift in (np.zeros(n), 1e-3 * rng.normal(size=n)):
                monkeypatch.setattr(projection, "project_ln_w",
                                    lambda B, W, s=shift: exact(B, W) + f_n(s))
                D = decompose(B, W)
                Bh = D.B_h.dense()
                expected = 0.5 * np.max(np.abs((Bh @ Wd + Wd @ Bh).sum(axis=1)))
                scale = 1.0 + np.max(np.abs(Bh)) * np.max(np.abs(Wd))
                assert abs(D.residual_check - expected) <= 1e-12 * scale + 1e-9 * expected
                assert hn_membership(D.B_h, W, tol=1e-9) == (not shift.any())


def test_oracle_singular_gram(rng):
    e = f_n([1.0, -1.0, 0.0])
    bs = BasisSet("l_n", 3, [e, e])
    with pytest.raises(SingularGram):
        oracle_project(random_skew(rng, 3), bs, FrobeniusInner())


def test_corollary_checks_identity(rng):
    B = SkewMatrix(3, [1.0, 2.0, 3.0])
    D = decompose(B, I3)
    rep = corollary_checks(D)
    assert rep.h_row_sum_max <= 1e-12
    assert rep.h_col_sum_max <= 1e-12
    assert rep.l_row_sum_match_max <= 1e-12
    assert rep.h_row_product_max is not None and rep.h_row_product_max <= 1e-12
    assert rep.l_row_product_match_max is not None and rep.l_row_product_match_max <= 1e-12
    # row sums of B_l match row sums of B: (3, 2, -5) both
    assert np.allclose(D.B_l.row_sums(), [3.0, 2.0, -5.0], atol=1e-12)
    assert np.allclose(B.row_sums(), [3.0, 2.0, -5.0], atol=1e-12)


def test_corollary_checks_weighted(rng):
    n = 5
    W = WeightMatrix.from_rows(random_pd(rng, n))
    D = decompose(random_skew(rng, n), W)
    rep = corollary_checks(D)
    assert rep.h_row_sum_max <= 1e-9
    assert rep.h_col_sum_max <= 1e-9
    assert rep.l_row_sum_match_max <= 1e-9
    assert rep.h_row_product_max is None
    assert rep.l_row_product_match_max is None
