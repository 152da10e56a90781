import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairprox import linalg
from pairprox.applications import generate_consistent_system
from pairprox.errors import (
    DimensionMismatchError,
    NonSquareError,
    NotSymmetricError,
    SingularMatrixError,
)
from pairprox.rng import SplitMix64

KKT_EXAMPLE = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0]])


def random_spd_spectrum_matrix(n, seed, lo, hi):
    """Symmetric matrix with |eigenvalues| in [lo, hi] via a random rotation."""
    rng = SplitMix64(seed)
    g = rng.normal(n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    lam = rng.uniform(n, lo, hi) * rng.sign(n)
    return (q * lam) @ q.T


class TestLU:
    def test_identity(self):
        fact = linalg.lu_factorize(np.eye(3))
        assert not fact.singular
        assert np.allclose(np.diag(fact.packed), 1.0)

    def test_zero_pivot_flags_singular(self):
        assert linalg.lu_factorize(np.diag([1.0, 0.0])).singular
        assert linalg.lu_factorize(np.zeros((2, 2))).singular

    def test_hand_checked_solve(self):
        # A x = (0, 0, 2) has the hand-verifiable solution (1, 1, -2):
        # row sums 2-2=0, 2-2=0, 1+1=2
        fact = linalg.lu_factorize(KKT_EXAMPLE)
        x = linalg.lu_solve(fact, np.array([0.0, 0.0, 2.0]))
        assert np.allclose(x, [1.0, 1.0, -2.0], atol=1e-12)

    def test_solve_identity_and_diagonal(self):
        b = np.array([3.0, -4.0])
        assert np.array_equal(linalg.lu_solve(linalg.lu_factorize(np.eye(2)), b), b)
        x = linalg.lu_solve(linalg.lu_factorize(np.diag([2.0, 4.0])), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            linalg.lu_factorize(np.ones((2, 3)))

    def test_singular_solve_rejected(self):
        fact = linalg.lu_factorize(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve(fact, np.ones(2))

    def test_dimension_mismatch(self):
        fact = linalg.lu_factorize(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            linalg.lu_solve(fact, np.ones(2))

    def test_blocking_matches_unblocked(self):
        rng = SplitMix64(5)
        a = rng.normal(90 * 90).reshape(90, 90) + 90 * np.eye(90)
        b = rng.normal(90)
        x_small = linalg.lu_solve(linalg.lu_factorize(a, block=7), b)
        x_big = linalg.lu_solve(linalg.lu_factorize(a, block=256), b)
        assert np.allclose(x_small, x_big, atol=1e-12)

    def test_residual_bound_on_seeded_well_conditioned(self):
        # condition number capped at 1e4 through the constructed spectrum
        for trial in range(100):
            n = 2 + trial % 37
            a = random_spd_spectrum_matrix(n, 1000 + trial, 0.01, 100.0)
            rng = SplitMix64(trial)
            b = rng.normal(n)
            x = linalg.lu_solve(linalg.lu_factorize(a), b)
            assert np.linalg.norm(a @ x - b) <= 1e-8 * (1 + np.linalg.norm(b))


BLOCKED_SIZES = (1, 2, 63, 64, 65, 128, 129, 300)
BLOCKS = (1, 7, 64, 256)
EPS = np.finfo(float).eps


def conditioned_system(n, seed):
    """Nonsymmetric A = Q1 diag(lam) Q2^T with lam in [0.1, 10] (condition
    number at most 100) and a Gaussian right-hand side."""
    rng = SplitMix64(seed)
    q1, _ = np.linalg.qr(rng.normal(n * n).reshape(n, n))
    q2, _ = np.linalg.qr(rng.normal(n * n).reshape(n, n))
    lam = rng.uniform(n, 0.1, 10.0)
    return (q1 * lam) @ q2.T, rng.normal(n)


def reference_elimination(a, block):
    """The panel elimination with partial pivoting that lu_factorize ran
    before its solve was blocked: (packed, perm), or None when singular."""
    n = a.shape[0]
    lu = a.copy()
    perm = np.arange(n)
    maxabs = float(np.max(np.abs(a)))
    if maxabs == 0.0:
        return None
    threshold = 1e-12 * maxabs
    for j in range(0, n, block):
        jb = min(block, n - j)
        for k in range(j, j + jb):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if abs(lu[p, k]) < threshold:
                return None
            if p != k:
                lu[[k, p], :] = lu[[p, k], :]
                perm[[k, p]] = perm[[p, k]]
            lu[k + 1 :, k] /= lu[k, k]
            if k + 1 < j + jb:
                lu[k + 1 :, k + 1 : j + jb] -= lu[k + 1 :, k : k + 1] * lu[k : k + 1, k + 1 : j + jb]
        end = j + jb
        if end < n:
            panel = lu[j:end, j:end]
            tail = lu[j:end, end:]
            for r in range(1, jb):
                tail[r] -= panel[r, :r] @ tail[:r]
            lu[end:, end:] -= lu[end:, j:end] @ tail
    return lu, perm


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", BLOCKED_SIZES)
class TestBlockedSolve:
    def test_matches_numpy_solve(self, n, block):
        # backward error n*eps*(||A|| ||x|| + ||b||), forward error that
        # times cond(A) <= 100; both measured below 0.3 of these bounds
        a, b = conditioned_system(n, 1000 * n + block)
        x = linalg.lu_solve(linalg.lu_factorize(a, block=block), b)
        expected = np.linalg.solve(a, b)
        a_norm = np.linalg.norm(a)
        assert np.linalg.norm(a @ x - b) <= n * EPS * (a_norm * np.linalg.norm(x) + np.linalg.norm(b))
        assert np.linalg.norm(x - expected) <= 100.0 * n * EPS * np.linalg.norm(expected)

    def test_rhs_left_unmodified(self, n, block):
        a, b = conditioned_system(n, 7 * n + block)
        original = b.copy()
        linalg.lu_solve(linalg.lu_factorize(a, block=block), b)
        assert np.array_equal(b, original)

    def test_singular_flagged_and_raises(self, n, block):
        a, _ = conditioned_system(n, 3 * n + block)
        if n == 1:
            a[0, 0] = 0.0
        else:
            a[-1] = a[0]  # the duplicate row eliminates to exact zeros
        fact = linalg.lu_factorize(a, block=block)
        assert fact.singular
        assert reference_elimination(a, block) is None
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve(fact, np.ones(n))

    def test_elimination_bitwise_unchanged(self, n, block):
        a, _ = conditioned_system(n, 1000 * n + block)
        fact = linalg.lu_factorize(a, block=block)
        packed, perm = reference_elimination(a, block)
        assert np.array_equal(fact.packed, packed)
        assert np.array_equal(fact.perm, perm)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.floats(-1, 1, allow_nan=False), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_lu_solve_property_diagonally_dominant(data):
    rows, rhs = data
    a = np.array(rows)
    n = a.shape[0]
    a = a + (n + 1) * np.eye(n)  # strict diagonal dominance: nonsingular
    b = np.array(rhs)
    fact = linalg.lu_factorize(a)
    assert not fact.singular
    x = linalg.lu_solve(fact, b)
    assert np.linalg.norm(a @ x - b) <= 1e-8 * (1 + np.linalg.norm(b))


class TestJacobi:
    def test_diagonal_input(self):
        dec = linalg.jacobi_eigendecomposition(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0], atol=1e-12)

    def test_two_by_two_swap(self):
        # characteristic polynomial lambda^2 - 1
        dec = linalg.jacobi_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.values, [-1.0, 1.0], atol=1e-12)

    def test_identity(self):
        dec = linalg.jacobi_eigendecomposition(np.eye(5))
        assert np.allclose(dec.values, 1.0)
        assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(5), atol=1e-12)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            linalg.jacobi_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_seeded_reconstruction_and_orthonormality(self):
        # 100 seeded symmetric matrices, sizes up to 200
        sizes = [2 + (i * 7) % 29 for i in range(98)] + [60, 200]
        for i, n in enumerate(sizes):
            rng = SplitMix64(4000 + i)
            g = rng.normal(n * n).reshape(n, n)
            a = 0.5 * (g + g.T)
            dec = linalg.jacobi_eigendecomposition(a)
            norm_a = np.linalg.norm(a)
            recon = np.linalg.norm(dec.vectors @ np.diag(dec.values) @ dec.vectors.T - a)
            assert recon <= 1e-8 * (1 + norm_a)
            assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(n)) <= 1e-8
            assert np.all(np.diff(dec.values) >= -1e-15)

    def test_diag_constructed_eigenvalues_match(self):
        for seed in range(10):
            rng = SplitMix64(seed)
            diag = rng.uniform(6, -5.0, 5.0)
            dec = linalg.jacobi_eigendecomposition(np.diag(diag))
            assert np.allclose(dec.values, np.sort(diag), atol=1e-10)


class TestSymmetricEigen:
    def test_asymmetry_just_inside_tolerance_uses_symmetric_part(self):
        rng = SplitMix64(77)
        g = rng.normal(36).reshape(6, 6)
        sym = 0.5 * (g + g.T)
        skew = np.zeros((6, 6))
        skew[0, 5], skew[5, 0] = 1.0, -1.0
        # max|A - A^T| = 2 * eps must stay below rtol * (1 + max|A|)
        eps = 0.45 * linalg._SYMMETRY_RTOL * (1.0 + np.max(np.abs(sym)))
        a = sym + eps * skew
        assert 0.0 < linalg.max_asymmetry(a) <= linalg._SYMMETRY_RTOL * (1.0 + np.max(np.abs(a)))
        dec = linalg.jacobi_eigendecomposition(a)
        assert np.allclose(dec.values, np.linalg.eigvalsh(sym), rtol=0.0, atol=1e-12)
        assert np.allclose(dec.vectors @ np.diag(dec.values) @ dec.vectors.T, sym, rtol=0.0, atol=1e-12)
        assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(6), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        a = np.array([[bad, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            linalg.jacobi_eigendecomposition(a)

    def test_overflowing_eigenvalue_is_named(self):
        # finite entries whose eigenvalue 2e308 is beyond the float range
        with pytest.raises(ValueError, match="overflow"):
            linalg.jacobi_eigendecomposition(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("n, seed", [(10, 0), (40, 3), (200, 7)])
    def test_symmetrization_matches_the_plain_average_bitwise(self, n, seed):
        # halving before adding changes nothing away from overflow
        system = generate_consistent_system(n, seed)
        a = system.matrix.copy()
        a[0, -1] += 1e-13
        values, vectors = np.linalg.eigh(0.5 * (a + a.T))
        dec = linalg.jacobi_eigendecomposition(a)
        assert np.array_equal(dec.values, values) and np.array_equal(dec.vectors, vectors)


class TestMatrixTextFormat:
    def test_round_trip(self, tmp_path):
        a = np.array([[1.0 / 3.0, -2.5e-17], [1e300, 4.0]])
        path = tmp_path / "m.mat"
        linalg.write_matrix(path, a)
        back = linalg.read_matrix(path)
        assert np.array_equal(back, a)
        first = path.read_text().splitlines()[0]
        assert first == "2 2"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("garbage\n1 2 3\n")
        with pytest.raises(ValueError, match="rows cols"):
            linalg.read_matrix(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.mat"
        path.write_text("2 2\n1 2 3\n")
        with pytest.raises(ValueError, match="expected 4 entries"):
            linalg.read_matrix(path)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.25, -3.5, 0.1])
        path = tmp_path / "v.txt"
        linalg.write_vector(path, v)
        assert np.array_equal(linalg.read_vector(path), v)
