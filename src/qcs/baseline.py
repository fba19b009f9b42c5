"""Classical compressed-sensing baselines to benchmark against.

Dense Gaussian and random one-hot sampling matrices, the K*log(N/K)
measurement bound, an orthogonal-matching-pursuit decoder, and an
empirical restricted-isometry check on random sparse vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, QcsError

GAUSSIAN_RANDOM = "gaussian"
ONE_HOT_SAMPLING = "one_hot"

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class SensingMatrix:
    """An M x N measurement matrix of a declared kind."""

    entries: np.ndarray
    kind: str

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise InvalidArgument("entries must form an M x N matrix")
        if self.kind not in (GAUSSIAN_RANDOM, ONE_HOT_SAMPLING):
            raise InvalidArgument(f"unknown matrix kind {self.kind!r}")
        if self.kind == ONE_HOT_SAMPLING:
            ok = np.all(np.isin(entries, (0.0, 1.0))) and np.all(entries.sum(axis=1) == 1)
            if not ok:
                raise InvalidArgument("one-hot rows must contain a single 1")

    @property
    def shape(self):
        return self.entries.shape


def gaussian_matrix(m: int, n: int, seed=None) -> SensingMatrix:
    """i.i.d. N(0, 1/M) entries, the standard dense CS ensemble."""
    if m < 1 or n < 1:
        raise InvalidArgument("matrix dimensions must be positive")
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((m, n)) / np.sqrt(m)
    return SensingMatrix(entries=entries, kind=GAUSSIAN_RANDOM)


def one_hot_matrix(m: int, n: int, seed=None) -> SensingMatrix:
    """Rows one-hot at uniformly random columns."""
    if m < 1 or n < 1:
        raise InvalidArgument("matrix dimensions must be positive")
    columns = np.random.default_rng(seed).integers(0, n, size=m)
    entries = np.zeros((m, n))
    entries[np.arange(m), columns] = 1.0
    return SensingMatrix(entries=entries, kind=ONE_HOT_SAMPLING)


@dataclass(frozen=True)
class RipReport:
    """Outcome of an empirical restricted-isometry check."""

    delta_hat: float
    pass_fraction: float
    trials: int

    def __post_init__(self):
        if self.delta_hat < 0 or not 0 <= self.pass_fraction <= 1:
            raise InvalidArgument("malformed RIP report")


def classical_bound(k: int, n: int, c: float = 1.0) -> int:
    """Non-adaptive measurement count M >= C * K * ln(N/K), floored at K.

    The log base is a convention; natural log with C exposed covers the
    family of published constants.
    """
    k, n = int(k), int(n)
    if k < 1 or k > n:
        raise InvalidArgument("need 1 <= K <= N")
    if c <= 0:
        raise InvalidArgument("the bound constant must be positive")
    return max(k, int(np.ceil(c * k * np.log(n / k))))


def omp_solve(theta, y, k: int) -> np.ndarray:
    """Orthogonal matching pursuit: K greedy atom picks with a full
    least-squares refit (normal equations) after each pick.

    Returns the K-sparse coefficient vector.  A rank-deficient selected
    submatrix raises ``QcsError``.
    """
    mat = theta.entries if isinstance(theta, SensingMatrix) else np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = mat.shape
    k = int(k)
    if k < 1 or k > n:
        raise InvalidArgument("sparsity must be in [1, N]")
    if y.shape != (m,):
        raise InvalidArgument("measurement vector length must match the row count")
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


def rip_check(phi: SensingMatrix, k: int, delta: float, trials: int, seed=None) -> RipReport:
    """Test (1 - delta) * s * ||x||^2 <= ||Phi x||^2 <= (1 + delta) * s * ||x||^2
    on random K-sparse unit vectors, with s = M/N for one-hot samplers and
    s = 1 for Gaussian matrices.

    A one-hot sampler is tested on spectrally sparse vectors, embedded
    through the unitary DFT, as the signals it is meant for are; directly
    sparse ones would fail, as most rows miss the support.  A Gaussian
    matrix is tested on directly sparse vectors.
    """
    if not 0 < delta < 1:
        raise InvalidArgument("delta must be in (0, 1)")
    if trials < 1:
        raise InvalidArgument("need at least one trial")
    m, n = phi.shape
    if not 1 <= k <= n:
        raise InvalidArgument("need 1 <= K <= N")
    one_hot = phi.kind == ONE_HOT_SAMPLING
    scale = m / n if one_hot else 1.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    passes = 0
    for _ in range(int(trials)):
        x = _sparse_unit_vector(n, int(k), rng)
        if one_hot:
            x = np.fft.ifft(x) * np.sqrt(n)  # unitary; preserves the norm
        energy = float(np.sum(np.abs(phi.entries @ x) ** 2))
        distortion = abs(energy / scale - 1.0)
        worst = max(worst, distortion)
        passes += distortion <= delta
    return RipReport(delta_hat=worst, pass_fraction=passes / trials, trials=int(trials))


def fit_line(x, y):
    """Least-squares slope/intercept/r^2 for scaling fits."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InvalidArgument("need at least two points")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)
