import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import expidae
from conftest import CountingLU, random_constrained, random_spd
from expidae.errors import DimensionMismatch, SingularSaddle
from expidae.linalg import (
    LIFT_RTOL,
    SaddleFactorization,
    canonical_csr,
    finite_norm,
    kernel_project,
    norm2,
    relative_defect,
    require_spd,
    spmv,
)
from expidae.problems import build_problem


def dense_saddle(S, B):
    n, m = S.shape[0], B.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = S
    if m:
        K[:n, n:] = B.T
        K[n:, :n] = B
    return K


class TestCanonicalCsr:
    def test_duplicates_summed_and_zeros_dropped(self):
        mat = sp.coo_matrix(
            ([1.0, 2.0, -3.0, 3.0], ([0, 0, 1, 1], [1, 1, 0, 0])), shape=(2, 2)
        )
        out = canonical_csr(mat)
        assert out.nnz == 1
        assert out[0, 1] == 3.0

    def test_row_offsets_and_sorted_columns(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.4)
        out = canonical_csr(sp.coo_matrix(dense))
        assert out.indptr[0] == 0
        assert out.indptr[-1] == out.nnz
        assert (np.diff(out.indptr) >= 0).all()
        for i in range(6):
            cols = out.indices[out.indptr[i] : out.indptr[i + 1]]
            assert (np.diff(cols) > 0).all() if cols.size > 1 else True

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            canonical_csr(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "kind", ["canonical", "duplicate", "zero", "nonfinite", "float32", "csc"]
    )
    def test_converts_to_a_new_matrix_without_touching_the_input(self, kind):
        indices, data = [1, 1, 0], [1.0, 2.0, 3.0]
        if kind in ("canonical", "zero"):
            indices, data = [1, 0, 0], [0.0 if kind == "zero" else 1.0, 2.0, 3.0]
        if kind == "nonfinite":
            indices, data = [1, 0, 0], [np.inf, 2.0, 3.0]
        mat = sp.csr_matrix((data, indices, [0, 2, 3]), shape=(2, 2))
        if kind == "float32":
            mat = sp.csr_matrix([[1.0, 2.0], [3.0, 0.0]], dtype=np.float32)
        if kind == "csc":
            mat = sp.csc_matrix([[1.0, 2.0], [3.0, 0.0]])
        if kind == "canonical":
            mat.sort_indices()
            assert mat.has_canonical_format
        before = (mat.data.copy(), mat.indices.copy())
        if kind == "nonfinite":
            with pytest.raises(ValueError):
                canonical_csr(mat)
        else:
            out = canonical_csr(mat)
            assert out is not mat and not np.shares_memory(out.data, mat.data)
            assert out.dtype == np.float64 and out.has_canonical_format and out.data.all()
            np.testing.assert_array_equal(out.toarray(), mat.toarray())
        np.testing.assert_array_equal(mat.data, before[0])
        np.testing.assert_array_equal(mat.indices, before[1])


class TestSpmv:
    """``spmv``: the CSR kernel of ``a @ x`` without SciPy's dispatch."""

    def test_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(spmv(canonical_csr(sp.eye(3)), v), v)

    def test_zero_matrix(self):
        out = spmv(canonical_csr(sp.csr_matrix((2, 2))), np.ones(2))
        assert np.array_equal(out, np.zeros(2))

    def test_hand_computed(self):
        mat = canonical_csr(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(spmv(mat, np.ones(2)), np.array([3.0, 7.0]))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_dimension_mismatch(self, shape):
        # The kernel checks no bounds: a short operand must never reach it.
        mat = canonical_csr(sp.eye(3))
        with pytest.raises(DimensionMismatch):
            spmv(mat, np.ones(shape))

    @pytest.mark.parametrize(
        "name, options", [("toy", {}), ("nonsym", {"n_cells": 64}), ("dynbc", {"n_cells": 32})]
    )
    def test_bitwise_equal_to_matmul(self, name, options):
        system = build_problem(name, **options).system
        rng = np.random.default_rng(1)
        for mat in (system.mass, system.stiffness, system.constraint, -system.stiffness):
            x = rng.standard_normal(mat.shape[1])
            assert np.array_equal(spmv(mat, x), mat @ x)
            column = rng.standard_normal((mat.shape[1], 3))[:, 1]  # strided, as c3's V[:, j]
            assert not column.flags.c_contiguous
            assert np.array_equal(spmv(mat, column), mat @ column)
            assert np.array_equal(spmv(mat, column), mat @ column.copy())


class TestNorm2:
    """``norm2``: the scaled BLAS norm of the finiteness and consistency checks."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quiet_where_the_squares_overflow(self):
        assert norm2(np.full(4, 1e300)) == pytest.approx(2e300, rel=1e-15)
        assert norm2(np.full(128, 1e308)) == np.inf
        assert np.isnan(norm2(np.array([1.0, np.nan])))
        assert norm2(np.array([1.0, -np.inf])) == np.inf

    def test_empty_and_strided_vectors(self):
        assert norm2(np.empty(0)) == 0.0
        assert norm2(np.arange(6.0)[::2]) == pytest.approx(np.sqrt(20.0), rel=1e-15)


def _finiteness_cases():
    """Vectors and matrices with a NaN, an infinite or a 1e308 entry, and empty arrays."""
    cases = {}
    for shape in ((5,), (3, 4)):
        base = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        name = "x".join(map(str, shape))
        cases[f"{name}-finite"] = base
        cases[f"{name}-all-1e308"] = np.full(shape, 1e308)
        for label, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf), ("1e308", 1e308)):
            spoiled = base.copy()
            spoiled.flat[2] = value
            cases[f"{name}-{label}"] = spoiled
    cases["3x4-transposed-nan"] = cases["3x4-nan"].T
    cases["3x4-inf-and-minus-inf"] = np.where(np.eye(3, 4) > 0, np.inf, -np.inf)
    for shape in ((0,), (0, 3), (3, 0)):
        cases["x".join(map(str, shape)) + "-empty"] = np.empty(shape)
    return cases


FINITENESS_CASES = _finiteness_cases()


def _numpy_isfinite_scopes(path):
    """The function around every use of numpy's ``isfinite`` in the module at ``path``.

    ``math.isfinite``, the scalar test, is not counted.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    scopes = []
    for node in ast.walk(tree):
        attribute = isinstance(node, ast.Attribute) and node.attr == "isfinite"
        if attribute and isinstance(node.value, ast.Name) and node.value.id == "math":
            continue
        if attribute or (isinstance(node, ast.Name) and node.id == "isfinite"):
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            scopes.append(getattr(scope, "name", "<module>"))
    return scopes


class TestFiniteNorm:
    """``finite_norm``: the one finiteness test of the package's arrays."""

    @pytest.mark.parametrize("a", FINITENESS_CASES.values(), ids=FINITENESS_CASES.keys())
    def test_is_none_exactly_when_an_entry_is_not_finite(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rejected = finite_norm(a.ravel()) is None
        assert rejected == (not np.isfinite(a).all())

    def test_is_the_only_numpy_isfinite_in_the_package(self):
        package = Path(expidae.__file__).resolve().parent
        uses = {
            (path.stem, scope)
            for path in sorted(package.glob("*.py"))
            for scope in _numpy_isfinite_scopes(path)
        }
        assert uses == {("linalg", "finite_norm")}


class TestAssembleSaddle:
    def test_identity_with_single_constraint(self):
        # block [[1,0,1],[0,1,0],[1,0,0]], rhs (0,0,1) -> x=(1,0), nu=-1
        fact = SaddleFactorization(sp.eye(2, format="csr"), canonical_csr([[1.0, 0.0]]))
        x, nu = fact.solve(np.zeros(2), np.array([1.0]))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(nu, [-1.0], atol=1e-14)

    def test_empty_constraint_equals_plain_solve(self):
        fact = SaddleFactorization(canonical_csr([[2.0]]), sp.csr_matrix((0, 1)))
        x, nu = fact.solve(np.array([4.0]), np.zeros(0))
        np.testing.assert_allclose(x, [2.0])
        assert nu.size == 0

    def test_zero_s_invertible_block(self):
        # [[0,1],[1,0]] with rhs (1,2) -> x=2, nu=1
        fact = SaddleFactorization(sp.csr_matrix((1, 1)), canonical_csr([[1.0]]))
        x, nu = fact.solve(np.array([1.0]), np.array([2.0]))
        np.testing.assert_allclose(x, [2.0], atol=1e-14)
        np.testing.assert_allclose(nu, [1.0], atol=1e-14)

    def test_rank_deficient_constraint_rejected(self):
        B = canonical_csr([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(SingularSaddle):
            SaddleFactorization(sp.eye(3, format="csr"), B)

    def test_singular_s_on_kernel_rejected(self):
        # S vanishes on ker B = span{e2}
        S = canonical_csr(np.diag([1.0, 0.0]))
        B = canonical_csr([[1.0, 0.0]])
        with pytest.raises(SingularSaddle):
            SaddleFactorization(S, B)

    def test_too_many_constraints_rejected(self):
        with pytest.raises(DimensionMismatch):
            SaddleFactorization(sp.eye(2, format="csr"), sp.eye(3, 2, format="csr"))

    @pytest.mark.parametrize(
        "S, B, error, message",
        [
            (sp.eye(3, 2), sp.csr_matrix((1, 3)), DimensionMismatch, "S must be square"),
            (sp.csr_matrix((2, 2)), sp.csr_matrix((1, 2)), SingularSaddle, "all zero"),
        ],
        ids=["non-square-S", "all-zero-block"],
    )
    def test_malformed_block_rejected(self, S, B, error, message):
        with pytest.raises(error, match=message):
            SaddleFactorization(S, B)

    def test_keeps_its_own_canonical_copies(self):
        S, B = sp.eye(2, format="csr"), sp.csr_matrix([[1.0, 0.0]])
        fact = SaddleFactorization(S, B)
        assert fact.S is not S and fact.B is not B
        S.data[:] = 5.0
        B.data[:] = 7.0
        assert np.array_equal(fact.S.toarray(), np.eye(2))
        assert np.array_equal(fact.B.toarray(), [[1.0, 0.0]])


class TestSaddleSolve:
    def test_homogeneous(self):
        fact = SaddleFactorization(sp.eye(3, format="csr"), canonical_csr([[1.0, 1.0, 0.0]]))
        x, nu = fact.solve(np.zeros(3), np.zeros(1))
        assert np.linalg.norm(x) == 0.0
        assert np.linalg.norm(nu) == 0.0

    def test_random_spd_against_dense_oracle(self):
        rng = np.random.default_rng(123)
        n, m = 20, 3
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S = (q * rng.uniform(0.5, 4.0, n)) @ q.T
        B = rng.standard_normal((m, n))
        rhs_p = rng.standard_normal(n)
        rhs_c = rng.standard_normal(m)
        fact = SaddleFactorization(canonical_csr(S), canonical_csr(B))
        x, nu = fact.solve(rhs_p, rhs_c)
        dense = np.linalg.solve(dense_saddle(S, B), np.concatenate([rhs_p, rhs_c]))
        np.testing.assert_allclose(np.concatenate([x, nu]), dense, rtol=1e-10)
        r1 = np.linalg.norm(S @ x + B.T @ nu - rhs_p)
        r2 = np.linalg.norm(B @ x - rhs_c)
        scale = np.linalg.norm(np.concatenate([rhs_p, rhs_c]))
        assert r1 <= 1e-10 * scale
        assert r2 <= 1e-10 * scale

    def test_lift_is_operator_orthogonal_to_kernel(self):
        # x solving S x + B^T nu = 0, B x = g satisfies <S x, w> = 0
        # for every w with B w = 0.
        rng = np.random.default_rng(5)
        n, m = 12, 2
        S = rng.standard_normal((n, n))
        S = S @ S.T + n * np.eye(n)
        B = rng.standard_normal((m, n))
        fact = SaddleFactorization(canonical_csr(S), canonical_csr(B))
        x, _ = fact.solve(np.zeros(n), rng.standard_normal(m))
        kernel = scipy_null_space(B)
        assert np.linalg.norm(kernel.T @ (S @ x)) <= 1e-10 * np.linalg.norm(S @ x)

    def test_dimension_mismatch(self):
        fact = SaddleFactorization(sp.eye(2, format="csr"), canonical_csr([[1.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            fact.solve(np.zeros(3), np.zeros(1))

    @pytest.mark.parametrize(
        "primal, constraint", [(np.zeros(2), 0.0), (1.0, np.zeros(1)), (np.zeros((2, 1)), [0.0])]
    )
    def test_broadcastable_parts_rejected(self, primal, constraint):
        # Parts that would broadcast into the stacked right-hand side.
        fact = SaddleFactorization(sp.eye(2, format="csr"), canonical_csr([[1.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            fact.solve(primal, constraint)

    def test_lists_are_accepted(self):
        fact = SaddleFactorization(sp.eye(2, format="csr"), canonical_csr([[1.0, 0.0]]))
        x, nu = fact.solve([1.0, 2.0], [0.5])
        assert np.array_equal(x, [0.5, 2.0]) and np.array_equal(nu, [0.5])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 16), st.integers(0, 3), st.integers(0, 10_000))
    def test_spd_on_kernel_always_solvable(self, n, m, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S = (q * rng.uniform(0.5, 2.0, n)) @ q.T
        B = rng.standard_normal((m, n))
        fact = SaddleFactorization(canonical_csr(S), canonical_csr(B))
        rhs_p = rng.standard_normal(n)
        rhs_c = rng.standard_normal(m)
        x, nu = fact.solve(rhs_p, rhs_c)
        dense = np.linalg.solve(dense_saddle(S, B), np.concatenate([rhs_p, rhs_c]))
        np.testing.assert_allclose(np.concatenate([x, nu]), dense, atol=1e-9, rtol=1e-9)


class TestRefinement:
    def ill_conditioned(self):
        # cond(S) ~ 1e10: the direct solve leaves a residual well above round-off.
        rng = np.random.default_rng(0)
        n = 8
        S = scipy.linalg.hilbert(n) + 1e-10 * np.eye(n)
        B = rng.standard_normal((2, n))
        fact = SaddleFactorization(canonical_csr(S), canonical_csr(B))
        return fact, rng.standard_normal(n), rng.standard_normal(2)

    def test_unrefined_solve_is_the_direct_solution(self):
        fact, rhs_p, rhs_c = self.ill_conditioned()
        direct = fact._lu.solve(np.concatenate([rhs_p, rhs_c]))
        fact._lu = CountingLU(fact._lu)
        x, nu = fact.solve(rhs_p, rhs_c)
        assert fact._lu.solves == 1
        assert np.array_equal(np.concatenate([x, nu]), direct)

    @pytest.mark.parametrize("stiff_exp, solves", [(-1.0, 1), (2.25, 2)])
    def test_kernel_project_refines_once_what_misses_g(self, stiff_exp, solves):
        # A stiffness some 180 times larger than B: the direct solutions
        # miss e_i by 2e-13 to 1.3e-12, above LIFT_RTOL.
        rng = np.random.default_rng(1369)
        _, A, B = random_constrained(rng, 4, 3, symmetric=False)
        fact = SaddleFactorization(10.0**stiff_exp * A, B)
        fact._lu = CountingLU(fact._lu)
        for i, g in enumerate(np.eye(3)):
            direct, mu = fact.solve(np.zeros(4), g)
            before = fact._lu.solves
            p = kernel_project(fact, np.zeros(4), g)
            assert fact._lu.solves - before == solves
            assert (relative_defect(fact.B, direct, g) > LIFT_RTOL) == (solves == 2)
            assert relative_defect(fact.B, p, g) <= LIFT_RTOL
            expected = fact.refine(np.zeros(4), g, direct, mu)[0] if solves == 2 else direct
            assert np.array_equal(p, expected)


def scipy_null_space(B):
    import scipy.linalg

    return scipy.linalg.null_space(B)


class TestKernelProject:
    def setup_method(self):
        self.fact = SaddleFactorization(sp.eye(2, format="csr"), canonical_csr([[1.0, 0.0]]))

    def test_euclidean_projection(self):
        out = kernel_project(self.fact, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-14)

    def test_fixed_point_on_kernel(self):
        x = np.array([0.0, 2.5])
        np.testing.assert_allclose(kernel_project(self.fact, x), x, atol=1e-14)

    def test_affine_projection_meets_g_and_is_orthogonal_to_the_kernel(self):
        # p - x is S-orthogonal to ker B, and B p = g; x = 0 gives the right inverse.
        rng = np.random.default_rng(12)
        n, m = 15, 3
        S = random_spd(rng, n)
        B = rng.standard_normal((m, n))
        fact = SaddleFactorization(S, B)
        kernel = scipy_null_space(B)
        for x in (np.zeros(n), rng.standard_normal(n)):
            g = rng.standard_normal(m)
            p = kernel_project(fact, x, g)
            assert np.linalg.norm(B @ p - g) <= 1e-13 * (1.0 + np.linalg.norm(g))
            assert np.linalg.norm(kernel.T @ (S @ (p - x))) <= 1e-12 * np.linalg.norm(S @ x + p)

    def test_g_of_the_wrong_length_is_rejected(self):
        with pytest.raises(DimensionMismatch, match="constraint data"):
            kernel_project(self.fact, np.zeros(2), np.zeros(2))

    def test_idempotent_and_in_kernel(self):
        rng = np.random.default_rng(11)
        n, m = 15, 3
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = (q * rng.uniform(0.5, 2.0, n)) @ q.T
        B = rng.standard_normal((m, n))
        fact = SaddleFactorization(canonical_csr(M), canonical_csr(B))
        x = rng.standard_normal(n)
        p1 = kernel_project(fact, x)
        p2 = kernel_project(fact, p1)
        assert np.linalg.norm(B @ p1) <= 1e-12 * np.linalg.norm(x)
        assert np.linalg.norm(p2 - p1) <= 1e-12 * np.linalg.norm(p1)


class TestRequireSpd:
    def test_accepts_spd(self):
        require_spd(sp.eye(4, format="csr"))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            require_spd(canonical_csr(np.diag([1.0, -1.0])))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            require_spd(canonical_csr([[1.0, 0.5], [0.0, 1.0]]))

    def test_banded_path_large_tridiagonal(self):
        n = 2000
        mat = sp.diags([-np.ones(n - 1), 2.05 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        require_spd(mat)

    @pytest.mark.parametrize("n", [5, 40, 200])
    def test_full_band_decided_exactly(self, n):
        # Dense matrices fill the band: the check is a full Cholesky.
        mat = random_spd(np.random.default_rng(n), n)
        require_spd(canonical_csr(mat))
        shift = np.linalg.eigvalsh(mat)[0] + 1e-3
        with pytest.raises(ValueError, match="not positive definite"):
            require_spd(canonical_csr(mat - shift * np.eye(n)))

    def test_dynbc_mass_accepted(self):
        mass = build_problem("dynbc", n_cells=32).system.mass
        assert mass.shape == (1023, 1023)
        require_spd(mass)

    @pytest.mark.parametrize("corner, definite", [(1.5, True), (3.0, False)])
    def test_corner_entry_sets_the_band(self, corner, definite):
        # The only off-diagonal pair sits at (0, n-1): bandwidth n - 1,
        # and the 2 x 2 block [[2, c], [c, 2]] decides definiteness.
        n = 30
        mat = sp.lil_matrix(2.0 * np.eye(n))
        mat[0, n - 1] = mat[n - 1, 0] = corner
        if definite:
            require_spd(mat)
        else:
            with pytest.raises(ValueError, match="not positive definite"):
                require_spd(mat)

