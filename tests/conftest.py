import numpy as np
import pytest

from pcortho import PCMatrix, SkewMatrix, WeightMatrix, phi


def random_pd(rng, n, spread=1.0):
    """Well-conditioned random symmetric positive definite matrix."""
    A = rng.normal(size=(n, n)) * spread
    return A @ A.T / n + np.eye(n)


def ill_conditioned_pd(rng, n, cond=1e6):
    """Random symmetric positive definite matrix with condition number ``cond``."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = (q * np.logspace(0.0, np.log10(cond), n)) @ q.T
    return (w + w.T) / 2


def random_skew(rng, n, scale=1.0):
    return SkewMatrix(n, rng.uniform(-scale, scale, size=n * (n - 1) // 2))


def random_reciprocal(rng, n, scale=1.0):
    return phi(random_skew(rng, n, scale))


@pytest.fixture
def rng():
    return np.random.default_rng(20240127)
