"""Bases of the consistent subspace l_n and its complement h_n.

l_n is spanned by difference matrices f(y) with y orthogonal to the
all-ones vector; the staircase vectors [1,...,1,-k,0,...,0] give an
orthogonal basis for the Frobenius geometry, and Gram-Schmidt under the
induced metric gives a W-orthogonal one. h_n is realized as the cycle
space of the complete comparison graph: each triangle 1 -> i -> j -> 1
contributes one basis matrix, no computation required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderTooSmall, ShapeMismatch
from .inner import (
    FrobeniusInner,
    VectorMetricInner,
    WeightedFrobeniusInner,
    gram_schmidt,
    metric_matrix,
)
from .model import SkewMatrix, WeightMatrix, f_n, pair_count


@dataclass(eq=False)
class BasisSet:
    """Ordered basis of l_n or h_n, with the geometry it was built under."""

    subspace: str  # "l_n" or "h_n"
    n: int
    elements: list[SkewMatrix]
    inner_product: object | None = None
    orthogonal: bool = False

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def dense_stack(self) -> np.ndarray:
        """All elements as a (k, n, n) dense array."""
        if not self.elements:
            return np.zeros((0, self.n, self.n))
        return np.stack([e.dense() for e in self.elements])

    def half_stack(self) -> np.ndarray:
        """All elements as rows of upper-triangle coordinates, (k, n(n-1)/2)."""
        if not self.elements:
            return np.zeros((0, pair_count(self.n)))
        return np.stack([e.upper for e in self.elements])

    def to_json_dict(self) -> dict:
        return {
            "subspace": self.subspace,
            "n": self.n,
            "elements": [list(map(float, e.upper)) for e in self.elements],
        }


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Vertex-by-edge incidence matrix of the oriented complete graph.

    Edges are the lexicographic pairs (i, j), i < j, oriented i -> j:
    +1 at the tail row, -1 at the head row.
    """

    n: int
    m: int
    entries: np.ndarray

    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self.entries))


def complement_vectors(n: int) -> list[np.ndarray]:
    """Staircase vectors y_k = [1,...,1, -k, 0,...,0] (k ones), k = 1..n-1.

    They are pairwise orthogonal and orthogonal to the all-ones vector,
    exactly, in integer arithmetic.
    """
    if n < 2:
        raise OrderTooSmall(f"order {n} < 2")
    out = []
    for k in range(1, n):
        y = np.zeros(n)
        y[:k] = 1.0
        y[k] = -float(k)
        out.append(y)
    return out


def ln_basis(n: int) -> BasisSet:
    """Frobenius-orthogonal basis of l_n: f(y_k) over the staircase vectors."""
    elems = [f_n(y) for y in complement_vectors(n)]
    return BasisSet("l_n", n, elems, inner_product=FrobeniusInner(), orthogonal=True)


def ln_w_basis(n: int, W: WeightMatrix) -> BasisSet:
    """W-orthogonal basis of l_n.

    The staircase vectors are orthogonalized under the metric
    M = (1^T W 1) I + n W; their images under f are then pairwise
    orthogonal for tr(A W B^T). Each orthogonalized vector stays in the
    hyperplane orthogonal to the all-ones vector.
    """
    if W.n != n:
        raise ShapeMismatch(f"weight order {W.n} does not match n={n}")
    M = metric_matrix(W.entries)
    ys = gram_schmidt(complement_vectors(n), VectorMetricInner(M))
    elems = [f_n(y) for y in ys]
    return BasisSet(
        "l_n", n, elems, inner_product=WeightedFrobeniusInner(W.entries), orthogonal=True
    )


def incidence_matrix(n: int) -> IncidenceMatrix:
    if n < 2:
        raise OrderTooSmall(f"order {n} < 2")
    m = pair_count(n)
    iu, ju = np.triu_indices(n, 1)
    P = np.zeros((n, m))
    P[iu, np.arange(m)] = 1.0
    P[ju, np.arange(m)] = -1.0
    return IncidenceMatrix(n, m, P)


def hn_cycle_basis(n: int, orthogonalize: bool = False) -> BasisSet:
    """Cycle basis of h_n from the triangles 1 -> i -> j -> 1.

    For each edge (i, j) of the graph with vertex 1 removed (2 <= i < j <= n,
    lexicographic), the basis matrix has +1 at (1, i) and (i, j) and -1 at
    (1, j), skew counterparts implied, zeros elsewhere. Row sums vanish by
    construction. Pass ``orthogonalize=True`` to run Gram-Schmidt under the
    Frobenius product on the result.
    """
    if n < 2:
        raise OrderTooSmall(f"order {n} < 2")
    elems = []
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            N = np.zeros((n, n))
            N[0, i - 1] = 1.0
            N[i - 1, 0] = -1.0
            N[i - 1, j - 1] = 1.0
            N[j - 1, i - 1] = -1.0
            N[0, j - 1] = -1.0
            N[j - 1, 0] = 1.0
            elems.append(SkewMatrix.from_dense(N))
    if orthogonalize and elems:
        ip = FrobeniusInner()
        dense = gram_schmidt([e.dense() for e in elems], ip)
        return BasisSet("h_n", n, [SkewMatrix.from_dense(d) for d in dense], ip, True)
    return BasisSet("h_n", n, elems, inner_product=None, orthogonal=False)


def hn_membership(B: SkewMatrix, W: WeightMatrix | None = None, tol: float = 1e-10) -> bool:
    """Membership test for the W-orthogonal complement of the consistent subspace.

    A skew B is W-orthogonal to every difference matrix f(v) exactly when
    (B W + W B) 1 = 0: expanding tr(B W f(v)^T) gives v^T (BW + WB) 1.
    Checked as 0.5 * ||(BW + WB) 1||_inf <= tol * (1 + ||B||_inf * ||W||_inf).
    With W = I this is exactly the row-balance condition ||B 1||_inf <= bound.
    """
    if W is None:
        Wd = np.eye(B.n)
    else:
        if W.n != B.n:
            raise ShapeMismatch(f"orders {B.n} and {W.n} differ")
        Wd = W.entries
    r = 0.5 * sym_row_sums(B, Wd)
    bound = tol * (1.0 + B.max_abs() * float(np.max(np.abs(Wd))))
    return bool(np.max(np.abs(r)) <= bound)


def sym_row_sums(B: SkewMatrix, Wd: np.ndarray) -> np.ndarray:
    """(B W + W B) 1 from two matrix-vector products."""
    Bd = B.dense()
    return Bd @ Wd.sum(axis=1) + Wd @ Bd.sum(axis=1)


def basis_from_json_dict(d: dict) -> BasisSet:
    """Rebuild a BasisSet from the CLI's JSON serialization."""
    n = int(d["n"])
    elems = [SkewMatrix(n, np.asarray(coords, dtype=float)) for coords in d["elements"]]
    return BasisSet(str(d["subspace"]), n, elems)


__all__ = [
    "BasisSet",
    "IncidenceMatrix",
    "basis_from_json_dict",
    "complement_vectors",
    "hn_cycle_basis",
    "hn_membership",
    "incidence_matrix",
    "ln_basis",
    "ln_w_basis",
    "sym_row_sums",
]
