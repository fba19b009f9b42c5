"""Classical compressed-sensing baselines to benchmark against.

Dense Gaussian and random one-hot sampling matrices, the K*log(N/K)
measurement bound, an orthogonal-matching-pursuit decoder, and an
empirical restricted-isometry check on random sparse vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, QcsError, check_counts, seeded_rng

_COND_LIMIT = 1e12


def _matrix(name: str, value) -> np.ndarray:
    mat = np.asarray(value, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise InvalidArgument(f"{name} must be a nonempty M x N matrix")
    if not np.isfinite(mat).all():
        raise InvalidArgument(f"{name} must be finite")
    return mat


def gaussian_matrix(m: int, n: int, seed=None) -> np.ndarray:
    """M x N matrix of i.i.d. N(0, 1/M) entries, the standard dense CS ensemble."""
    check_counts(m=m, n=n)
    rng = seeded_rng(seed)
    return rng.standard_normal((m, n)) / np.sqrt(m)


def one_hot_matrix(m: int, n: int, seed=None) -> np.ndarray:
    """M x N matrix whose rows are one-hot at uniformly random columns."""
    check_counts(m=m, n=n)
    columns = seeded_rng(seed).integers(0, n, size=m)
    entries = np.zeros((m, n))
    entries[np.arange(m), columns] = 1.0
    return entries


def classical_bound(k: int, n: int, c: float = 1.0) -> int:
    """Non-adaptive measurement count M >= C * K * ln(N/K), floored at K.

    The log base is a convention; natural log with C exposed covers the
    family of published constants.
    """
    check_counts(k=k, n=n)
    if k > n:
        raise InvalidArgument("need 1 <= K <= N")
    if not 0 < c < np.inf:
        raise InvalidArgument("the bound constant must be positive and finite")
    return int(max(k, np.ceil(c * k * np.log(n / k))))


def omp_solve(theta, y, k: int) -> np.ndarray:
    """Orthogonal matching pursuit: K greedy atom picks with a full
    least-squares refit (normal equations) after each pick.

    Returns the K-sparse coefficient vector.  A rank-deficient selected
    submatrix raises ``QcsError``.
    """
    mat = _matrix("theta", theta)
    y = np.asarray(y, dtype=float)
    m, n = mat.shape
    check_counts(k=k)
    if k > n:
        raise InvalidArgument("sparsity must be in [1, N]")
    if y.shape != (m,):
        raise InvalidArgument("measurement vector length must match the row count")
    if not np.isfinite(y).all():
        raise InvalidArgument("y must be finite")
    residual = y.copy()
    selected: list[int] = []
    coef = np.zeros(0)
    for _ in range(k):
        if np.linalg.norm(residual) == 0.0:
            break
        scores = np.abs(mat.T @ residual)
        if selected:
            scores[selected] = -np.inf
        selected.append(int(np.argmax(scores)))
        sub = mat[:, selected]
        gram = sub.T @ sub
        if np.linalg.cond(gram) > _COND_LIMIT:
            raise QcsError("selected atoms are numerically dependent")
        coef = np.linalg.solve(gram, sub.T @ y)
        residual = y - sub @ coef
    x = np.zeros(n)
    x[selected] = coef
    return x


def _sparse_unit_vector(n: int, k: int, rng) -> np.ndarray:
    support = rng.choice(n, size=k, replace=False)
    values = rng.standard_normal(k)
    values /= np.linalg.norm(values)
    x = np.zeros(n)
    x[support] = values
    return x


def rip_check(phi, k: int, delta: float, trials: int, seed=None):
    """Test (1 - delta) * s * ||x||^2 <= ||Phi x||^2 <= (1 + delta) * s * ||x||^2
    on random K-sparse unit vectors, with s = M/N for one-hot samplers and
    s = 1 for any other matrix.  Returns ``(delta_hat, pass_fraction)``:
    the largest distortion seen and the share of trials within ``delta``.

    A matrix whose every row holds a single 1 is a one-hot sampler.  It is
    tested on spectrally sparse vectors, embedded through the unitary DFT,
    as the signals it is meant for are; directly sparse ones would fail, as
    most rows miss the support.  Any other matrix, a Gaussian one say, is
    tested on directly sparse vectors.
    """
    mat = _matrix("phi", phi)
    if not 0 < delta < 1:
        raise InvalidArgument("delta must be in (0, 1)")
    check_counts(k=k, trials=trials)
    m, n = mat.shape
    if k > n:
        raise InvalidArgument("need 1 <= K <= N")
    one_hot = np.all(np.isin(mat, (0.0, 1.0))) and np.all(mat.sum(axis=1) == 1)
    scale = m / n if one_hot else 1.0
    rng = seeded_rng(seed)
    worst = 0.0
    passes = 0
    for _ in range(trials):
        x = _sparse_unit_vector(n, k, rng)
        if one_hot:
            x = np.fft.ifft(x) * np.sqrt(n)  # unitary; preserves the norm
        energy = float(np.sum(np.abs(mat @ x) ** 2))
        distortion = abs(energy / scale - 1.0)
        worst = max(worst, distortion)
        passes += distortion <= delta
    return worst, passes / trials
