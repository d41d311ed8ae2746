"""Orthogonal decomposition of skew matrices and the induced factorization.

Every skew-symmetric B splits uniquely as B = B_h + B_l with B_l in the
consistent subspace and B_h in its W-orthogonal complement. B_l = f(v) for
the v solving one n x n normal-equation system; for W = I this is the
row-average closed form (1/n) f(B 1), the gradient part of HodgeRank on the
complete graph. Exponentiating gives the multiplicative factorization
A = phi(B_h) . phi(B_l) (Hadamard product) of a reciprocal comparison matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisSet, sym_row_sums
from .errors import NotConsistent, ShapeMismatch, SingularGram, ZeroMatrix
from .inner import FrobeniusInner, WeightedFrobeniusInner, metric_matrix, w_frobenius
from .model import (
    PCMatrix,
    RankingVector,
    SkewMatrix,
    WeightMatrix,
    f_n,
    mu,
    phi,
)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """B = B_l + B_h with B_l consistent and B_h totally inconsistent (wrt W)."""

    B: SkewMatrix
    B_l: SkewMatrix
    B_h: SkewMatrix
    W: WeightMatrix
    residual_check: float


@dataclass(frozen=True, eq=False)
class CorollaryReport:
    """Max deviations for the row-sum / row-product conservation laws.

    The multiplicative items are only defined for the identity weight and
    are None otherwise.
    """

    h_row_sum_max: float
    h_col_sum_max: float
    l_row_sum_match_max: float
    h_row_product_max: float | None
    l_row_product_match_max: float | None

    def as_dict(self) -> dict:
        return {
            "h_row_sum_max": self.h_row_sum_max,
            "h_col_sum_max": self.h_col_sum_max,
            "l_row_sum_match_max": self.l_row_sum_match_max,
            "h_row_product_max": self.h_row_product_max,
            "l_row_product_match_max": self.l_row_product_match_max,
        }


def project_ln_closed(B: SkewMatrix) -> SkewMatrix:
    """Row-average closed form of the Frobenius projection onto l_n:

    B_l = (1/n) f(B 1).
    """
    return f_n(B.row_sums() * (1.0 / B.n))


def project_ln_w(B: SkewMatrix, W: WeightMatrix, basis: BasisSet | None = None) -> SkewMatrix:
    """W-orthogonal projection of B onto the consistent subspace, B_l = f(v).

    For sum-zero u, v: tr(f(v) W f(u)^T) = u^T K v with K = metric_matrix(W)
    - W1 1^T - 1 (W1)^T, and tr(B W f(u)^T) = u^T (BW + WB) 1. So v solves
    (K + 1 1^T) v = (BW + WB) 1, and K 1 = 0 makes v sum-zero. The paper's
    Fourier expansion (ln_w_basis) and oracle_project are reference routes;
    ``basis`` is ignored. Raises SingularGram when the solve fails.
    """
    if W.n != B.n:
        raise ShapeMismatch(f"orders {B.n} and {W.n} differ")
    Wd = W.entries
    W1 = Wd.sum(axis=1)
    K = metric_matrix(Wd) - W1[:, None] - W1[None, :] + 1.0  # K + 1 1^T
    try:
        v = np.linalg.solve(K, sym_row_sums(B, Wd))
    except np.linalg.LinAlgError as exc:
        raise SingularGram("normal equations of the projection are singular") from exc
    return f_n(v)


def decompose(B: SkewMatrix, W: WeightMatrix, basis: BasisSet | None = None) -> Decomposition:
    """Split B into consistent and totally inconsistent parts under W.

    ``residual_check`` is the orthogonality residual 0.5 max|(B_h W + W B_h) 1|
    that hn_membership bounds. ``basis`` is ignored.
    """
    B_l = project_ln_w(B, W)
    B_h = B - B_l
    residual = 0.5 * float(np.max(np.abs(sym_row_sums(B_h, W.entries))))
    return Decomposition(B, B_l, B_h, W, residual)


def factor_pc(A: PCMatrix, W: WeightMatrix, reciprocity_tol: float = 1e-9) -> tuple[PCMatrix, PCMatrix]:
    """Factor a reciprocal comparison matrix as A = phi(B_h) . phi(B_l).

    Returns (phi(B_h), phi(B_l)); their Hadamard product reproduces A and
    the second factor is consistent.
    """
    D = decompose(mu(A, tol=reciprocity_tol), W)
    return phi(D.B_h), phi(D.B_l)


def ranking(B_l: SkewMatrix, tol: float = 1e-8) -> RankingVector:
    """Priority vector of a consistent log-matrix.

    The unique sum-zero v with f(v) = B_l is the row-mean vector
    (1/n) B_l 1; weights are its normalized exponentials. Raises
    NotConsistent unless the reconstruction residual R = B_l - f(v) has
    max|R| <= tol (a NaN entry raises too). R_ij is the mean over k of
    the triple sums b_ij + b_jk + b_ki, and each triple sum is
    R_ij + R_jk + R_ki, so max|R| <= worst triple <= 3 max|R|.
    """
    v = B_l.row_sums() / B_l.n
    if not np.max(np.abs(B_l.upper - f_n(v).upper)) <= tol:
        raise NotConsistent(f"input is not additively consistent at tol {tol:.1e}")
    return RankingVector.from_logvalues(v)


def inconsistency_ratio(B: SkewMatrix, W: WeightMatrix, basis: BasisSet | None = None) -> float:
    """Share of B in the totally inconsistent subspace, ||B_h||_W / ||B||_W.

    ``basis`` is ignored.
    """
    if B.max_abs() == 0.0:
        raise ZeroMatrix("inconsistency ratio undefined for the zero matrix")
    return decomposition_ratio(decompose(B, W))


def decomposition_ratio(D: Decomposition) -> float:
    """||B_h||_W / ||B||_W of a decomposition of a nonzero B, clipped to 1."""
    Bh, B = D.B_h.dense(), D.B.dense()
    num = w_frobenius(Bh, Bh, D.W.entries)
    den = w_frobenius(B, B, D.W.entries)
    return float(min(1.0, np.sqrt(max(num, 0.0) / den)))


def oracle_project(B: SkewMatrix, basis: BasisSet, ip) -> SkewMatrix:
    """Projection via the Gram normal equations G c = b, no orthogonalization.

    Independent of project_ln_w: works for any (possibly
    non-orthogonal) spanning set. Raises SingularGram when the Gram matrix
    is numerically singular, which signals a dependent basis.
    """
    if basis.n != B.n:
        raise ShapeMismatch(f"orders {B.n} and {basis.n} differ")
    E = basis.dense_stack()
    k = E.shape[0]
    Ef = E.reshape(k, -1)
    if isinstance(ip, WeightedFrobeniusInner):
        Wd = ip.weight
        G = (E @ Wd).reshape(k, -1) @ Ef.T
        b = Ef @ (B.dense() @ Wd).reshape(-1)
    elif isinstance(ip, FrobeniusInner):
        G = Ef @ Ef.T
        b = Ef @ B.dense().reshape(-1)
    else:
        G = np.array([[ip(E[i], E[j]) for j in range(k)] for i in range(k)])
        b = np.array([ip(B.dense(), E[i]) for i in range(k)])
    try:
        if np.linalg.cond(G) > 1e14:
            raise SingularGram("Gram matrix is numerically singular")
        c = np.linalg.solve(G, b)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("Gram matrix is numerically singular") from exc
    return SkewMatrix.from_dense(np.tensordot(c, E, axes=1))


def corollary_checks(D: Decomposition) -> CorollaryReport:
    """Verify the conservation laws of a decomposition.

    Additive: row and column sums of the symmetrized product
    (B_h W + W B_h)/2 vanish, and the corresponding sums for B_l match
    those for B, all from matrix-vector products. For W = I these are the
    row/column sums of B_h and B_l. Multiplicative (identity weight only):
    row products of phi(B_h) equal 1 and row products of phi(B_l) match
    those of phi(B).
    """
    Wd = D.W.entries
    Bh = D.B_h.dense()
    h_col = 0.5 * float(np.max(np.abs(Bh.sum(axis=0) @ Wd + Wd.sum(axis=0) @ Bh)))
    l_match = 0.5 * float(np.max(np.abs(sym_row_sums(D.B_l, Wd) - sym_row_sums(D.B, Wd))))
    h_prod = l_prod = None
    if D.W.is_identity():
        ph = phi(D.B_h).entries.prod(axis=1)
        pl = phi(D.B_l).entries.prod(axis=1)
        pb = phi(D.B).entries.prod(axis=1)
        h_prod = float(np.max(np.abs(ph - 1.0)))
        l_prod = float(np.max(np.abs(pl / pb - 1.0)))
    return CorollaryReport(D.residual_check, h_col, l_match, h_prod, l_prod)
