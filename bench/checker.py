"""Output checks for the benchmark, built on the benchmark's own numpy reference.

Nothing here calls into pcortho: the reference decomposition solves the
normal equations (K + 11^T) v = (BW + WB) 1 with
K = (1^T W 1) I - W1 1^T - 1 (W1)^T + nW, and B_l = f(v) = [v_i - v_j].
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json

import numpy as np

# Relative tolerances. The seed agrees with the reference to about 1e-12 at
# cond(W) = 1e6 and n = 100, so these leave a wide margin while any corruption
# a user could notice (1e-6 and up) still fails.
TOL_EXACT = 1e-12  # identities that hold up to rounding: B_l + B_h = B, A = phi(B_h) . phi(B_l)
TOL = 1e-9  # agreement with the reference solve and the subspace conditions
RECIPROCITY_TOL = 1e-9  # the CLI defaults for the check verdicts
CONSISTENCY_TOL = 1e-9


def dense_skew(upper, n: int) -> np.ndarray:
    """Skew n x n matrix from its strict upper triangle (row-major)."""
    iu, ju = np.triu_indices(n, 1)
    out = np.zeros((n, n))
    out[iu, ju] = upper
    out[ju, iu] = -np.asarray(upper, dtype=float)
    return out


def log_skew(A: np.ndarray, symmetrize: bool) -> tuple[np.ndarray, np.ndarray]:
    """(matrix the program decomposes, its log image) for the raw input A."""
    if symmetrize:
        A = np.sqrt(A / A.T)
    n = A.shape[0]
    return A, dense_skew(np.log(A[np.triu_indices(n, 1)]), n)


class Reference:
    """Reference decomposition of the skew matrix B under the weight W."""

    def __init__(self, B: np.ndarray, W: np.ndarray):
        n = B.shape[0]
        one = np.ones(n)
        w1 = W @ one
        K = (one @ w1) * np.eye(n) - np.outer(w1, one) - np.outer(one, w1) + n * W
        v = np.linalg.solve(K + np.outer(one, one), B @ w1 + W @ (B @ one))
        self.B, self.W, self.n = B, W, n
        self.v = v - v.mean()
        self.B_l = np.subtract.outer(self.v, self.v)
        self.B_h = B - self.B_l
        self.scale = 1.0 + float(np.max(np.abs(B)))

    def weights(self) -> np.ndarray:
        e = np.exp(self.v - self.v.max())
        return e / e.sum()

    def ratio(self) -> float:
        def sq(X):
            return float(np.sum((X @ self.W) * X))

        den = sq(self.B)
        return float(np.sqrt(sq(self.B_h) / den)) if den > 0 else 0.0


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def check_decomposition(ref: Reference, B_l, B_h) -> list[str]:
    """B_l + B_h = B, B_l consistent, (B_h W + W B_h) 1 = 0, B_l = reference."""
    B_l, B_h = np.asarray(B_l, dtype=float), np.asarray(B_h, dtype=float)
    if B_l.shape != ref.B.shape or B_h.shape != ref.B.shape:
        return [f"parts have shapes {B_l.shape}, {B_h.shape}, expected {ref.B.shape}"]
    problems = []
    d = _max_dev(B_l + B_h, ref.B)
    if d > TOL_EXACT * ref.scale:
        problems.append(f"B_l + B_h differs from log A by {d:.3e}")
    # O(n^2) pivot test: B_l is consistent iff b_ij + b_j1 + b_1i = 0 for all i, j
    pivot = B_l + B_l[:, 0][None, :] + B_l[0, :][:, None]
    d = float(np.max(np.abs(pivot)))
    if d > TOL * ref.scale:
        problems.append(f"B_l is not consistent: worst pivot triple {d:.3e}")
    one = np.ones(ref.n)
    comp = (B_h @ ref.W + ref.W @ B_h) @ one
    d = float(np.max(np.abs(comp)))
    if d > TOL * ref.scale * ref.n * float(np.max(np.abs(ref.W))):
        problems.append(f"(B_h W + W B_h) 1 is {d:.3e}, not 0")
    d = _max_dev(B_l, ref.B_l)
    if d > TOL * ref.scale:
        problems.append(f"B_l differs from the reference projection by {d:.3e}")
    return problems


def check_ranking(ref: Reference, logvalues=None, weights=None) -> list[str]:
    problems = []
    if logvalues is not None:
        d = _max_dev(logvalues, ref.v) if len(logvalues) == ref.n else np.inf
        if d > TOL * ref.scale:
            problems.append(f"log-ranking differs from the reference solve by {d:.3e}")
    if weights is not None:
        d = _max_dev(weights, ref.weights()) if len(weights) == ref.n else np.inf
        if d > TOL:
            problems.append(f"ranking weights differ from the reference by {d:.3e}")
    return problems


def check_ratio(ref: Reference, ratio) -> list[str]:
    ratio = float(ratio)
    if not 0.0 <= ratio <= 1.0:
        return [f"inconsistency ratio {ratio!r} outside [0, 1]"]
    d = abs(ratio - ref.ratio())
    if d > TOL:
        return [f"inconsistency ratio differs from ||B_h||_W / ||B||_W by {d:.3e}"]
    return []


def check_verdicts(A: np.ndarray, report: dict) -> list[str]:
    """Verdicts of `check` on the matrix A as the program sees it."""
    problems = []
    rec = np.abs(A * A.T - 1.0)
    worst = float(np.max(rec))
    if abs(report["worst_reciprocity_defect"] - worst) > TOL_EXACT:
        problems.append(f"reciprocity defect {report['worst_reciprocity_defect']!r}, expected {worst!r}")
    i, j = (int(k) - 1 for k in report["worst_pair"])
    if not (0 <= i < A.shape[0] and 0 <= j < A.shape[0]) or abs(rec[i, j] - worst) > TOL_EXACT:
        problems.append(f"worst pair {report['worst_pair']} does not attain the worst defect")
    if report["reciprocal"] != (worst <= RECIPROCITY_TOL):
        problems.append(f"reciprocal verdict {report['reciprocal']!r} is wrong")
    # The pivot triples (i, j, 1) bound the worst triple from both sides:
    # max|r| <= max|t| <= 3 max|r| in the log domain.
    L = np.log(A)
    r = L + L[:, 0][None, :] - L[:, 0][:, None]
    lo = float(np.max(np.abs(np.expm1(r))))
    hi = float(np.expm1(3.0 * np.max(np.abs(r))))
    got = report["worst_consistency_defect"]
    if not lo - TOL_EXACT * (1 + lo) <= got <= hi + TOL_EXACT * (1 + hi):
        problems.append(f"consistency defect {got!r} outside the pivot bounds [{lo!r}, {hi!r}]")
    if report["consistent"] != (got <= CONSISTENCY_TOL):
        problems.append(f"consistent verdict {report['consistent']!r} disagrees with defect {got!r}")
    if lo > CONSISTENCY_TOL and report["consistent"]:
        problems.append("consistent verdict is true, but a pivot triple is inconsistent")
    if hi <= CONSISTENCY_TOL and not report["consistent"]:
        problems.append("consistent verdict is false, but every triple is consistent")
    return problems


def check_cli(command: str, code: int, stdout: str, A: np.ndarray, W: np.ndarray | None,
              symmetrize: bool) -> list[str]:
    """Check one `pcortho <command> --output json` run on raw input A and weight W."""
    if code != 0:
        return [f"{command}: exit code {code}"]
    try:
        report = json.loads(stdout)
        problems = _check_report(command, report, A, W, symmetrize)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"malformed report ({type(exc).__name__}: {exc})"]
    return [f"{command}: {p}" for p in problems]


def _check_report(command, report, A, W, symmetrize) -> list[str]:
    A, B = log_skew(A, symmetrize)
    n = A.shape[0]
    if report["command"] != command or report["n"] != n:
        return [f"report names command {report['command']!r} of order {report['n']!r}"]
    if command == "check":
        return check_verdicts(A, report)
    ref = Reference(B, np.eye(n) if W is None else W)
    if command == "project":
        problems = check_decomposition(ref, report["b_l"], report["b_h"])
        if _max_dev(report["input"], A) > TOL_EXACT * float(np.max(A)):
            problems.append("reported input differs from the matrix given")
        problems += check_ranking(ref, weights=report["ranking_weights"])
        return problems + check_ratio(ref, report["inconsistency_ratio"])
    if command == "rank":
        return check_ranking(ref, report["logvalues"], report["weights"])
    if command == "factor":
        Fh = np.asarray(report["phi_b_h"], dtype=float)
        Fl = np.asarray(report["phi_b_l"], dtype=float)
        if Fh.shape != A.shape or Fl.shape != A.shape or np.any(Fh <= 0) or np.any(Fl <= 0):
            return ["factors are not positive n x n matrices"]
        problems = []
        d = float(np.max(np.abs(Fh * Fl / A - 1.0)))
        if d > TOL_EXACT * 10:
            problems.append(f"phi(B_h) . phi(B_l) differs from A by {d:.3e} (relative)")
        return problems + check_decomposition(ref, np.log(Fl), np.log(Fh))
    return [f"unknown command {command!r}"]


def check_panel(A: np.ndarray, W: np.ndarray, B_l_upper, B_h_upper, logvalues, weights,
                ratio) -> list[str]:
    """Check one panel op: decompose(mu(A), W), ranking(B_l), inconsistency_ratio(B, W)."""
    _, B = log_skew(A, symmetrize=False)
    n = B.shape[0]
    ref = Reference(B, W)
    problems = check_decomposition(ref, dense_skew(B_l_upper, n), dense_skew(B_h_upper, n))
    problems += check_ranking(ref, logvalues, weights)
    return problems + check_ratio(ref, ratio)
