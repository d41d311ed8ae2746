"""Domain types for pairwise comparison matrices and their log-domain images.

A multiplicative comparison matrix (PCMatrix) holds positive ratio
judgments; its elementwise logarithm is a skew-symmetric matrix
(SkewMatrix) whenever the input is reciprocal. SkewMatrix stores only the
strict upper triangle in lexicographic order (1,2), (1,3), ..., (n-1,n),
so skew-symmetry is structural and cannot be broken by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LengthMismatch,
    NonPositiveWeight,
    NotPositiveDefinite,
    NotReciprocal,
    OrderTooSmall,
    ShapeMismatch,
)
from .inner import check_positive_definite

RECIPROCITY_TOL = 1e-9
CONSISTENCY_TOL = 1e-9
SYMMETRY_TOL = 1e-10


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SkewMatrix:
    """Skew-symmetric n x n matrix stored as its strict upper triangle."""

    n: int
    upper: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise OrderTooSmall(f"order {self.n} < 2")
        up = np.asarray(self.upper, dtype=float).reshape(-1)
        if up.size != pair_count(self.n):
            raise LengthMismatch(
                f"expected {pair_count(self.n)} upper entries for n={self.n}, got {up.size}"
            )
        object.__setattr__(self, "upper", _freeze(up))

    @classmethod
    def zeros(cls, n: int) -> "SkewMatrix":
        return cls(n, np.zeros(pair_count(n)))

    @classmethod
    def from_dense(cls, a) -> "SkewMatrix":
        """Build from a dense array, reading only the strict upper triangle."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeMismatch(f"expected a square array, got shape {a.shape}")
        n = a.shape[0]
        return cls(n, a[np.triu_indices(n, 1)])

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        iu, ju = np.triu_indices(self.n, 1)
        out[iu, ju] = self.upper
        out[ju, iu] = -self.upper
        return out

    def row_sums(self) -> np.ndarray:
        return self.dense().sum(axis=1)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.upper))) if self.upper.size else 0.0

    def __add__(self, other: "SkewMatrix") -> "SkewMatrix":
        self._check_order(other)
        return SkewMatrix(self.n, self.upper + other.upper)

    def __sub__(self, other: "SkewMatrix") -> "SkewMatrix":
        self._check_order(other)
        return SkewMatrix(self.n, self.upper - other.upper)

    def __neg__(self) -> "SkewMatrix":
        return SkewMatrix(self.n, -self.upper)

    def __mul__(self, s: float) -> "SkewMatrix":
        return SkewMatrix(self.n, self.upper * float(s))

    __rmul__ = __mul__

    def _check_order(self, other: "SkewMatrix"):
        if self.n != other.n:
            raise ShapeMismatch(f"orders {self.n} and {other.n} differ")


@dataclass(frozen=True, eq=False)
class PCMatrix:
    """Positive n x n matrix of multiplicative pairwise comparisons."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape != (self.n, self.n):
            raise ShapeMismatch(f"expected a {self.n}x{self.n} array, got shape {e.shape}")
        if self.n < 2:
            raise OrderTooSmall(f"order {self.n} < 2")
        if not np.all(np.isfinite(e)) or np.any(e <= 0):
            raise NonPositiveWeight("all comparison entries must be finite and > 0")
        object.__setattr__(self, "entries", _freeze(e))

    @classmethod
    def from_rows(cls, rows) -> "PCMatrix":
        e = np.asarray(rows, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ShapeMismatch(f"expected square data, got shape {e.shape}")
        return cls(e.shape[0], e)

    def reciprocity_defect(self) -> tuple[float, tuple[int, int]]:
        """Worst |m_ij * m_ji - 1| and the (0-based) pair attaining it."""
        d = np.abs(self.entries * self.entries.T - 1.0)
        i, j = np.unravel_index(int(np.argmax(d)), d.shape)
        return float(d[i, j]), (int(i), int(j))

    def is_reciprocal(self, tol: float = RECIPROCITY_TOL) -> bool:
        return self.reciprocity_defect()[0] <= tol

    def hadamard(self, other: "PCMatrix") -> "PCMatrix":
        if self.n != other.n:
            raise ShapeMismatch(f"orders {self.n} and {other.n} differ")
        return PCMatrix(self.n, self.entries * other.entries)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Symmetric positive definite matrix defining the weighted inner product."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape != (self.n, self.n):
            raise ShapeMismatch(f"expected a {self.n}x{self.n} array, got shape {e.shape}")
        # raises NotSymmetric on asymmetric input
        if not check_positive_definite(e, sym_tol=SYMMETRY_TOL):
            raise NotPositiveDefinite("weight matrix is not positive definite")
        object.__setattr__(self, "entries", _freeze(e))

    @classmethod
    def identity(cls, n: int) -> "WeightMatrix":
        return cls(n, np.eye(n))

    @classmethod
    def from_rows(cls, rows) -> "WeightMatrix":
        e = np.asarray(rows, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ShapeMismatch(f"expected square data, got shape {e.shape}")
        return cls(e.shape[0], e)

    def is_identity(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.entries - np.eye(self.n))) <= tol)


@dataclass(frozen=True, eq=False)
class HalfVector:
    """Coordinates of a skew matrix under the upper-triangle bijection."""

    n: int
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float).reshape(-1)
        if c.size != pair_count(self.n):
            raise LengthMismatch(
                f"expected {pair_count(self.n)} coordinates for n={self.n}, got {c.size}"
            )
        object.__setattr__(self, "coords", _freeze(c))


@dataclass(frozen=True, eq=False)
class RankingVector:
    """Priority vector: sum-zero log form plus normalized positive weights."""

    n: int
    logvalues: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_logvalues(cls, v) -> "RankingVector":
        v = np.asarray(v, dtype=float).reshape(-1)
        v = v - v.mean()
        # max-shift before exponentiation for numerical safety
        e = np.exp(v - v.max())
        w = e / e.sum()
        return cls(v.size, _freeze(v), _freeze(w))


def mu(A: PCMatrix, tol: float = RECIPROCITY_TOL) -> SkewMatrix:
    """Elementwise natural log of a reciprocal comparison matrix.

    The result is built from the upper triangle only, so it is skew by
    construction. Raises NotReciprocal (reporting the worst pair, 1-based)
    when |m_ij * m_ji - 1| exceeds ``tol`` anywhere.
    """
    defect, (i, j) = A.reciprocity_defect()
    if defect > tol:
        raise NotReciprocal(
            f"|m_ij*m_ji - 1| = {defect:.3e} at pair ({i + 1}, {j + 1}) exceeds {tol:.1e}"
        )
    iu, ju = np.triu_indices(A.n, 1)
    return SkewMatrix(A.n, np.log(A.entries[iu, ju]))


def phi(B: SkewMatrix) -> PCMatrix:
    """Elementwise exponential; always reciprocal with unit diagonal."""
    return PCMatrix(B.n, np.exp(B.dense()))


def symmetrize(A: PCMatrix) -> PCMatrix:
    """Geometric repair m_ij <- sqrt(m_ij / m_ji) for near-reciprocal input."""
    e = np.sqrt(A.entries / A.entries.T)
    return PCMatrix(A.n, e)


def f_n(v) -> SkewMatrix:
    """Difference map v -> [v_i - v_j]; image is the consistent subspace."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size < 2:
        raise OrderTooSmall(f"order {v.size} < 2")
    iu, ju = np.triu_indices(v.size, 1)
    return SkewMatrix(v.size, v[iu] - v[ju])


def skew_to_half(B: SkewMatrix) -> HalfVector:
    return HalfVector(B.n, B.upper)


def half_to_skew(x: HalfVector) -> SkewMatrix:
    return SkewMatrix(x.n, x.coords)


def is_consistent(A: PCMatrix, tol: float = CONSISTENCY_TOL) -> bool:
    """True iff |m_ij * m_jk / m_ik - 1| <= tol for all triples."""
    return consistency_defect(A) <= tol


def consistency_defect(A: PCMatrix) -> float:
    """Worst triple violation |m_ij * m_jk / m_ik - 1|, one row i at a time in O(n^2) memory."""
    e = A.entries
    return float(np.max([np.max(np.abs(e[i][:, None] * e / e[i] - 1.0)) for i in range(A.n)]))


def is_additively_consistent(B: SkewMatrix, tol: float = CONSISTENCY_TOL) -> bool:
    """True iff |b_ij + b_jk + b_ki| <= tol for all triples."""
    return additive_defect(B) <= tol


def additive_defect(B: SkewMatrix) -> float:
    """Worst triple violation |b_ij + b_jk + b_ki|, one row i at a time in O(n^2) memory."""
    d = B.dense()
    return float(np.max([np.max(np.abs(d[i][:, None] + d + d[:, i])) for i in range(B.n)]))


def consistent_from_weights(w) -> PCMatrix:
    """Comparison matrix [w_i / w_j] from a positive weight vector."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise NonPositiveWeight("all weights must be finite and > 0")
    if w.size < 2:
        raise OrderTooSmall(f"order {w.size} < 2")
    return PCMatrix(w.size, w[:, None] / w[None, :])
