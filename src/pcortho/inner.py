"""Inner products on matrices and vectors, plus a generic Gram-Schmidt engine.

Three inner product kinds are supported:

* the Frobenius product sum_ij a_ij b_ij on same-shape matrices,
* its weighted generalization tr(A W B^T) with W symmetric positive definite,
* the vector form v^T M w for a symmetric positive definite metric M.

All functions accept plain ndarrays; wrapper objects exposing an ``entries``
attribute (e.g. WeightMatrix) are unwrapped transparently.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateElement, NotSymmetric, ShapeMismatch


def _arr(x) -> np.ndarray:
    """Unwrap domain objects carrying an ``entries`` ndarray."""
    if hasattr(x, "entries"):
        x = x.entries
    return np.asarray(x, dtype=float)


def frobenius(a, b) -> float:
    """Frobenius inner product sum_ij a_ij * b_ij (row-major accumulation)."""
    a, b = _arr(a), _arr(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    return float(np.sum(a * b))


def w_frobenius(a, b, W) -> float:
    """Weighted Frobenius inner product tr(A W B^T)."""
    a, b, Wm = _arr(a), _arr(b), _arr(W)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    if Wm.shape != (a.shape[1], a.shape[1]):
        raise ShapeMismatch(f"weight shape {Wm.shape} incompatible with {a.shape}")
    return float(np.sum((a @ Wm) * b))


def f_pair_w(v, w, W) -> float:
    """Closed form of tr(f(v) W f(w)^T) for f(v) = v 1^T - 1 v^T.

    Expands to
    (1^T W 1) w^T v - (1^T W w)(1^T v) - (v^T W 1)(w^T 1) + n (v^T W w),
    avoiding the construction of the two n x n difference matrices.
    """
    v, w, Wm = _arr(v), _arr(w), _arr(W)
    n = v.size
    ones = np.ones(n)
    W1 = Wm @ ones
    return float(
        (ones @ W1) * (w @ v)
        - (ones @ (Wm @ w)) * np.sum(v)
        - (v @ W1) * np.sum(w)
        + n * (v @ Wm @ w)
    )


def metric_matrix(W) -> np.ndarray:
    """Vector-space metric (1^T W 1) I + n W induced by the weighted product.

    For vectors orthogonal to the all-ones vector, v^T M w equals
    tr(f(v) W f(w)^T); for W = I it reduces to 2n I.
    """
    Wm = _arr(W)
    n = Wm.shape[0]
    return float(np.ones(n) @ Wm @ np.ones(n)) * np.eye(n) + n * Wm


def induced_vector_ip(x, y, base) -> float:
    """Inner product on R^n induced by a matrix inner product ``base``:

    (x | y) = (x^T 1)(y^T 1) + base(f(x), f(y)).
    """
    x, y = _arr(x), _arr(y)
    fx = np.subtract.outer(x, x)
    fy = np.subtract.outer(y, y)
    return float(np.sum(x) * np.sum(y)) + float(base(fx, fy))


def check_positive_definite(W, sym_tol: float = 1e-10) -> bool:
    """True iff W is numerically positive definite.

    Attempts a Cholesky factorization and requires every pivot (squared
    factor diagonal) to exceed 1e-12 times the largest diagonal entry.
    Raises NotSymmetric if W is not square symmetric within ``sym_tol``
    (relative to the largest magnitude entry).
    """
    Wm = _arr(W)
    if Wm.ndim != 2 or Wm.shape[0] != Wm.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {Wm.shape}")
    scale = max(1.0, float(np.max(np.abs(Wm))))
    if np.max(np.abs(Wm - Wm.T)) > sym_tol * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        L = np.linalg.cholesky(Wm)
    except np.linalg.LinAlgError:
        return False
    pivots = np.diag(L) ** 2
    return bool(np.min(pivots) > 1e-12 * np.max(np.diag(Wm)))


class FrobeniusInner:
    """Frobenius inner product on matrices."""

    def __call__(self, a, b) -> float:
        return frobenius(a, b)

    def __repr__(self):
        return "FrobeniusInner()"


class WeightedFrobeniusInner:
    """tr(A W B^T) for a fixed symmetric positive definite W."""

    def __init__(self, W):
        self.weight = _arr(W)

    def __call__(self, a, b) -> float:
        return w_frobenius(a, b, self.weight)

    def __repr__(self):
        return f"WeightedFrobeniusInner(n={self.weight.shape[0]})"


class VectorMetricInner:
    """v^T M w for a fixed symmetric positive definite metric M."""

    def __init__(self, M):
        self.metric = _arr(M)

    def __call__(self, a, b) -> float:
        a, b = _arr(a), _arr(b)
        if a.shape != b.shape or a.shape != (self.metric.shape[0],):
            raise ShapeMismatch(f"vector shapes {a.shape}, {b.shape} incompatible with metric")
        return float(a @ self.metric @ b)

    def __repr__(self):
        return f"VectorMetricInner(n={self.metric.shape[0]})"


def gram_schmidt(elements, ip, dependence_tol: float = 1e-12) -> list[np.ndarray]:
    """Modified Gram-Schmidt under an arbitrary inner product.

    Works on any ndarray elements (vectors or matrices) for which ``ip``
    is defined. Residuals are not normalized. Raises DegenerateElement
    when a residual norm drops below ``dependence_tol`` times the norm of
    the corresponding input, which signals linear dependence.
    """
    out: list[np.ndarray] = []
    norms: list[float] = []
    for k, e in enumerate(elements):
        v = np.array(_arr(e), dtype=float)
        base_norm = np.sqrt(max(ip(v, v), 0.0))
        for u, uu in zip(out, norms):
            v = v - (ip(v, u) / uu) * u
        res = ip(v, v)
        if base_norm == 0.0 or np.sqrt(max(res, 0.0)) < dependence_tol * base_norm:
            raise DegenerateElement(f"element {k} is linearly dependent on its predecessors")
        out.append(v)
        norms.append(res)
    return out
