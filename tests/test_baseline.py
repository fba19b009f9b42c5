import numpy as np
import pytest

from qcs import (
    InvalidArgument,
    QcsError,
    classical_bound,
    gaussian_matrix,
    omp_solve,
    one_hot_matrix,
    rip_check,
)


class TestClassicalBound:
    def test_k_equals_n_floors_at_k(self):
        assert classical_bound(16, 16) == 16

    def test_reference_values(self):
        assert classical_bound(10, 2**20) == 116
        assert classical_bound(100, 2**20) == 926

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(InvalidArgument):
            classical_bound(10, 5)

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_bound_constant_must_be_finite(self, c):
        # NaN returned K and infinity raised a bare OverflowError
        with pytest.raises(InvalidArgument, match="bound constant"):
            classical_bound(4, 256, c)

    def test_always_at_least_k(self):
        for k in (1, 3, 9, 50):
            assert classical_bound(k, 1024) >= k

    def test_per_k_cost_grows_with_ratio(self):
        r1 = classical_bound(10, 2**10) / 10
        r2 = classical_bound(10, 2**20) / 10
        assert r2 > r1


class TestOmp:
    def test_identity_single_atom(self):
        theta = np.eye(4)
        x = omp_solve(theta, np.array([0.0, 5.0, 0.0, 0.0]), 1)
        assert np.allclose(x, [0, 5, 0, 0])

    def test_zero_measurement_zero_solution(self):
        theta = gaussian_matrix(8, 32, seed=0)
        x = omp_solve(theta, np.zeros(8), 4)
        assert np.allclose(x, 0)

    def test_identity_recovers_any_sparsity(self):
        rng = np.random.default_rng(1)
        for k in (1, 2, 5):
            s = np.zeros(16)
            supp = rng.choice(16, size=k, replace=False)
            s[supp] = rng.uniform(1, 3, k)
            x = omp_solve(np.eye(16), s.copy(), k)
            assert np.allclose(x, s)

    def test_residual_orthogonal_at_exit(self):
        rng = np.random.default_rng(2)
        theta = gaussian_matrix(32, 128, seed=3)
        s = np.zeros(128)
        s[[5, 50, 90]] = rng.standard_normal(3)
        y = theta @ s
        x = omp_solve(theta, y, 3)
        resid = y - theta @ x
        sel = np.nonzero(x)[0]
        assert np.all(np.abs(theta[:, sel].T @ resid) < 1e-8)

    def test_residual_norm_nonincreasing_in_k(self):
        # the greedy picks for K are the first K picks for K + 1, so each
        # extra atom's refit can only shrink the residual
        theta = gaussian_matrix(24, 64, seed=4)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(24)
        norms = [np.linalg.norm(y - theta @ omp_solve(theta, y, k)) for k in range(1, 9)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_duplicate_atoms_singular(self):
        col = np.array([1.0, 2.0, 3.0])
        theta = np.column_stack([col, col])
        y = col * 2 + np.array([0.5, 0.0, -0.5])  # keeps the residual nonzero
        with pytest.raises(QcsError, match="numerically dependent"):
            omp_solve(theta, y, 2)

    def test_gaussian_phase_transition_m56(self):
        # at M = 7K the standard ensemble recovers nearly always; this pins
        # the decoder's health without asserting the location of the edge
        hits = _recovery_count(n=256, k=8, m=56, trials=60, seed=11)
        assert hits >= 54


def _recovery_count(n, k, m, trials, seed):
    root = np.random.SeedSequence(seed)
    hits = 0
    for ss in root.spawn(trials):
        rng = np.random.default_rng(ss)
        theta = gaussian_matrix(m, n, seed=rng)
        supp = np.sort(rng.choice(n, size=k, replace=False))
        s = np.zeros(n)
        s[supp] = rng.standard_normal(k)
        y = theta @ s
        x = omp_solve(theta, y, k)
        hits += np.array_equal(np.sort(np.nonzero(x)[0]), supp)
    return hits


class TestRipCheck:
    # the first 8 of 16 bins: a one-hot sampler; negated, a matrix that is
    # not one-hot but gives every vector the same energy
    HALF = np.eye(16)[:8]

    def test_one_hot_sampler_is_checked_on_spectrally_sparse_vectors(self):
        # a 1-sparse vector in the Fourier basis has energy 1/16 in every bin,
        # so half the bins hold exactly the M/N share; in the identity basis
        # it would hold all or none of it
        delta_hat, pass_fraction = rip_check(self.HALF, 1, delta=0.5, trials=200, seed=6)
        assert delta_hat == pytest.approx(0.0, abs=1e-12)
        assert pass_fraction == 1.0

    def test_gaussian_matrix_is_checked_on_directly_sparse_vectors(self):
        # a 1-sparse vector lands in a kept bin or not: distortion 0 or 1,
        # where the Fourier basis would give 1/2 for every vector
        delta_hat, pass_fraction = rip_check(-self.HALF, 1, delta=0.5, trials=200, seed=7)
        assert delta_hat == 1.0
        assert 0.3 < pass_fraction < 0.7

    def test_uniform_sampler_concentrates_on_spectral_sparsity(self):
        m = classical_bound(4, 256, c=2.0)
        assert m == 34
        phi = one_hot_matrix(m, 256, seed=8)
        _, pass_fraction = rip_check(phi, 4, delta=0.5, trials=1000, seed=9)
        assert pass_fraction >= 0.99

    def test_pass_fraction_monotone_in_m(self):
        fractions = []
        for m in (4, 8, 16, 34):
            phi = one_hot_matrix(m, 256, seed=10)
            fractions.append(rip_check(phi, 4, delta=0.5, trials=400, seed=11)[1])
        assert all(b >= a - 0.02 for a, b in zip(fractions, fractions[1:]))

    def test_gaussian_matrix_near_isometry(self):
        phi = gaussian_matrix(128, 256, seed=12)
        _, pass_fraction = rip_check(phi, 4, delta=0.5, trials=400, seed=13)
        assert pass_fraction > 0.95


class TestArgumentContracts:
    """Every count is refused, and named, unless it is an integer >= 1, and
    every matrix unless it is 2-D and nonempty."""

    @pytest.mark.parametrize(
        "call, name",
        [
            # returned 5: K ran as 2
            (lambda: classical_bound(2.5, 16), "k"),
            (lambda: classical_bound(2, 16.0), "n"),
            # raised a bare TypeError
            (lambda: gaussian_matrix(2.5, 4), "m"),
            (lambda: one_hot_matrix(4, 0), "n"),
            # ran as k = 1
            (lambda: omp_solve(np.eye(4), np.ones(4), k=1.5), "k"),
            (lambda: rip_check(np.eye(4)[:2], 1.5, delta=0.5, trials=10), "k"),
            # ran 10 trials and divided by 10.5
            (lambda: rip_check(np.eye(4)[:2], 1, delta=0.5, trials=10.5), "trials"),
            # ran one trial, since True is an Integral
            (lambda: rip_check(np.eye(4)[:2], 1, delta=0.5, trials=True), "trials"),
            (lambda: omp_solve(np.eye(4), np.ones(4), k=False), "k"),
        ],
        ids=[
            "bound-k",
            "bound-n",
            "gaussian-m",
            "one_hot-n",
            "omp-k",
            "rip-k",
            "rip-trials",
            "rip-trials-bool",
            "omp-k-bool",
        ],
    )
    def test_counts_must_be_positive_integers_and_are_named(self, call, name):
        with pytest.raises(InvalidArgument, match=f"^{name} must be an integer >= 1"):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            # raised a bare ValueError from unpacking the shape
            (lambda: omp_solve(np.ones(4), np.ones(4), 1), "theta"),
            (lambda: rip_check(np.ones(4), 1, delta=0.5, trials=10), "phi"),
            (lambda: rip_check(np.ones((2, 2, 2)), 1, delta=0.5, trials=10), "phi"),
            # raised a bare ZeroDivisionError
            (lambda: rip_check(np.zeros((0, 4)), 1, delta=0.5, trials=10), "phi"),
        ],
        ids=["omp-1d", "rip-1d", "rip-3d", "rip-empty"],
    )
    def test_a_matrix_must_be_2d_and_nonempty_and_is_named(self, call, name):
        with pytest.raises(InvalidArgument, match=f"^{name} must be a nonempty M x N matrix"):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            # ended in a bare LinAlgError: SVD did not converge
            (lambda: omp_solve(np.full((2, 2), np.nan), np.ones(2), 1), "theta"),
            (lambda: omp_solve(np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones(2), 1), "theta"),
            # returned the NaN as a coefficient, [nan, 0]
            (lambda: omp_solve(np.eye(2), [np.nan, 1.0], 1), "y"),
            (lambda: omp_solve(np.eye(2), [1.0, -np.inf], 1), "y"),
            (lambda: rip_check(np.full((2, 4), np.nan), 1, delta=0.5, trials=10), "phi"),
        ],
        ids=["omp-theta-nan", "omp-theta-inf", "omp-y-nan", "omp-y-inf", "rip-phi-nan"],
    )
    def test_a_non_finite_input_is_refused_and_named(self, call, name):
        with pytest.raises(InvalidArgument, match=f"^{name} must be finite"):
            call()
