import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from qpdiff import (
    QpProblem,
    SolveSettings,
    assemble_reduced_kkt,
    condition_estimate,
    backward,
    differentiable_solve,
    factorize,
    full_implicit_matrix,
    gen_chain,
    gen_random_dense,
    gen_random_sparse,
    gen_simplex,
    identify,
)
from qpdiff.errors import RankDeficiencyError
from qpdiff.kkt import (
    DENSE,
    DIRECT,
    LEAST_SQUARES,
    SPARSE,
    _PLAN_CAPACITY,
    _dense_enough,
    _null_basis,
    _pattern_key,
    _saddle,
    _shifted_lu,
    _ShiftedPlan,
    _symmetric_lu,
    solve_on,
)

from helpers import (
    PrimalOnlyBackend,
    child_env,
    count_fresh_points,
    random_mixed_qp,
    simplex_projection_sort,
    solve_active_set,
    solve_admm,
    with_bound_rows,
)


def one_dee():
    return QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0])


class TestAssemble:
    def test_one_dimensional_blocks(self):
        kkt = assemble_reduced_kkt(one_dee(), np.array([0]))
        np.testing.assert_array_equal(
            kkt.matrix.toarray(), [[1.0, 1.0], [1.0, 0.0]]
        )
        assert (kkt.n, kkt.p, kkt.order) == (1, 0, 2)
        np.testing.assert_array_equal(kkt.rows, [0])

    def test_empty_active_set_no_equalities_gives_p(self):
        prob = QpProblem(np.diag([2.0, 3.0]), np.zeros(2), C=[[1.0, 0.0]], d=[9.0])
        kkt = assemble_reduced_kkt(prob, np.array([], dtype=int))
        np.testing.assert_array_equal(kkt.matrix.toarray(), np.diag([2.0, 3.0]))

    def test_two_dimensional_block_placement(self):
        prob = QpProblem(np.eye(2), np.zeros(2), C=[[-1.0, -1.0]], d=[-1.0])
        kkt = assemble_reduced_kkt(prob, np.array([0]))
        np.testing.assert_array_equal(
            kkt.matrix.toarray(),
            [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 0.0]],
        )

    def test_entries_not_modified(self):
        prob = random_mixed_qp(5, 4, 2, seed=0)
        kkt = assemble_reduced_kkt(prob, np.array([1, 3]))
        block = kkt.matrix.toarray()[:5, :5]
        np.testing.assert_array_equal(block, prob.P.toarray())
        np.testing.assert_array_equal(
            kkt.matrix.toarray()[7:, :5], prob.C.toarray()[[1, 3]]
        )
        assert (abs(kkt.matrix - kkt.matrix.T)).max() == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            assemble_reduced_kkt(one_dee(), np.array([5]))


class TestFactorize:
    def test_direct_two_by_two(self):
        kkt = assemble_reduced_kkt(one_dee(), np.array([0]))
        fact = factorize(kkt)
        assert fact.mode == DIRECT
        np.testing.assert_allclose(
            fact.solve(np.array([0.0, 1.0])), [1.0, -1.0], atol=1e-14
        )

    def test_duplicated_active_row_degrades_to_least_squares(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0], [1.0]], d=[-1.0, -1.0])
        kkt = assemble_reduced_kkt(prob, np.array([0, 1]))
        fact = factorize(kkt)
        assert fact.mode == LEAST_SQUARES
        assert fact.rank == 2  # order 3, rank deficient by one

    def test_direct_solve_residual_small(self):
        # n = 20 with five active rows, well conditioned
        prob = random_mixed_qp(20, 10, 3, seed=1)
        kkt = assemble_reduced_kkt(prob, np.array([0, 2, 4, 6, 8]))
        fact = factorize(kkt)
        assert fact.mode == DIRECT
        rng = np.random.Generator(np.random.PCG64(2))
        rhs = rng.standard_normal(kkt.order)
        x = fact.solve(rhs)
        resid = np.abs(kkt.matrix @ x - rhs).max()
        assert resid <= 1e-9 * (1.0 + np.abs(rhs).max())

    def test_least_squares_returns_minimum_norm_solution(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0], [1.0]], d=[-1.0, -1.0])
        kkt = assemble_reduced_kkt(prob, np.array([0, 1]))
        fact = factorize(kkt)
        rhs = np.array([0.0, 1.0, 1.0])
        x = fact.solve(rhs)
        # oracle: LAPACK gelsd minimum-norm least squares
        expected, *_ = np.linalg.lstsq(kkt.matrix.toarray(), rhs, rcond=None)
        np.testing.assert_allclose(x, expected, atol=1e-10)

    def test_minimum_norm_above_order_2000(self):
        # A = [B; B] states every equality row twice, so K_J (order 2100)
        # has a 500-dimensional null space in its dual rows
        rng = np.random.Generator(np.random.PCG64(7))
        n, p = 1100, 500
        B = (sp.csc_array(sp.random(p, n, density=0.01, random_state=rng))
             + sp.csc_array(sp.eye(p, n)))
        P = 2.0 * sp.csc_array(sp.eye(n))
        prob = QpProblem(P, np.zeros(n), A=sp.vstack([B, B]), b=np.zeros(2 * p))
        kkt = assemble_reduced_kkt(prob, np.array([], dtype=int))
        fact = factorize(kkt)
        assert fact.mode == LEAST_SQUARES
        assert fact.rank == kkt.order - p
        # oracle: the nonsingular [[P, B'], [B, 0]] solved with the averaged
        # dual right-hand side; minimum norm splits each dual evenly between
        # the two copies of its row
        reduced = sp.csc_array(sp.bmat([[P, B.T], [B, None]]))
        for _ in range(2):
            rhs = rng.standard_normal(kkt.order)
            top, first, second = rhs[:n], rhs[n : n + p], rhs[n + p :]
            xy = spsolve(reduced, np.concatenate([top, 0.5 * (first + second)]))
            expected = np.concatenate([xy[:n], 0.5 * xy[n:], 0.5 * xy[n:]])
            err = np.linalg.norm(fact.solve(rhs) - expected)
            assert err <= 1e-10 * np.linalg.norm(expected)

    def test_redundant_simplex_of_order_ten_thousand(self):
        # the sum-to-one row stated twice, at the closed-form solution: about
        # 10^4 active bound rows, so a dense M = [A' C_J'] would take 800 MB
        base, x = gen_simplex(10_000, 0)
        prob = QpProblem(base.P, base.q, sp.vstack([base.A, base.A]),
                         np.concatenate([base.b, base.b]), base.C, base.d)
        rows = identify(prob, simplex_projection_sort(x), 1e-9).indices
        kkt = assemble_reduced_kkt(prob, rows)
        fact = factorize(kkt)
        assert fact.mode == LEAST_SQUARES
        assert kkt.order - fact.rank == 1
        assert abs(kkt.matrix @ _null_basis(kkt)).max() <= 1e-12
        # oracle: the nonsingular K_J of the simplex with one sum row, solved
        # with the averaged dual right-hand side, as above
        n = base.n
        reduced = assemble_reduced_kkt(base, rows).matrix
        rng = np.random.Generator(np.random.PCG64(8))
        rhs = rng.standard_normal(kkt.order)
        top, first, second, bot = rhs[:n], rhs[n], rhs[n + 1], rhs[n + 2 :]
        xy = spsolve(reduced, np.concatenate([top, [0.5 * (first + second)], bot]))
        half = 0.5 * xy[n : n + 1]
        expected = np.concatenate([xy[:n], half, half, xy[n + 1 :]])
        err = np.linalg.norm(fact.solve(rhs) - expected)
        assert err <= 1e-10 * np.linalg.norm(expected)

    def test_structurally_singular_matrix_never_reaches_superlu(self, monkeypatch):
        # both equality rows touch only z1, so K_J has no perfect matching;
        # K_J (order 12, 14 nonzeros) is sparse enough for SuperLU, yet only
        # the bordered matrix (order 13) is handed to it
        import qpdiff.kkt as kkt_module

        orders = []

        def recording_splu(matrix, *args, **kwargs):
            orders.append(matrix.shape[0])
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(kkt_module, "splu", recording_splu)
        A = np.zeros((2, 10))
        A[:, 0] = [1.0, 2.0]
        prob = QpProblem(np.eye(10), np.zeros(10), A=A, b=[1.0, 2.0])
        fact = factorize(assemble_reduced_kkt(prob, np.array([], dtype=int)))
        assert (fact.mode, fact.engine) == (LEAST_SQUARES, SPARSE)
        assert orders == [13]

    def test_singular_beyond_constraint_rows_raises(self):
        # [A; C_J] has full rank, yet K_J is singular: P is only
        # semidefinite on the null space of the active row
        prob = QpProblem([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], C=[[1.0, 0.0]], d=[0.0])
        with pytest.raises(RankDeficiencyError):
            factorize(assemble_reduced_kkt(prob, np.array([0])))

    @pytest.mark.parametrize("angle", [1e-6, 1e-7, 1e-9])
    def test_nearly_dependent_rows_raise_after_one_lu(self, angle, monkeypatch):
        # P is positive definite, but rows 0 and 1 are nearly parallel: K_J
        # fails the pivot check while [A; C_J] has full numerical rank, so
        # there is no null vector to border with and nothing to factor again.
        # Rows 0 and 2 are bound rows, so the one LU is of the reduced matrix
        # on z1, z3 and row 1 (order 3, dense), which fails the check as K_J
        # (order 7) did
        import qpdiff.kkt as kkt_module

        calls = []

        def counting_splu(matrix, *args, **kwargs):
            calls.append((SPARSE, matrix.shape))
            return splu(matrix, *args, **kwargs)

        dense_lu = kkt_module._DenseLu

        def counting_dense_lu(matrix):
            calls.append((DENSE, matrix.shape))
            return dense_lu(matrix)

        monkeypatch.setattr(kkt_module, "splu", counting_splu)
        monkeypatch.setattr(kkt_module, "_DenseLu", counting_dense_lu)
        P = np.diag([1.0, 2.0, 3.0, 4.0])
        C = np.array([[1.0, 0, 0, 0], [1.0, angle, 0, 0], [0, 0, 1.0, 0]])
        z0 = np.array([1.0, 0, 1.0, 0])
        prob = QpProblem(P, -(P @ z0 + C.T @ [1.0, 2.0, 0.5]), C=C, d=C @ z0)
        causes = r"not positive definite on null\(\[A; C_J\]\).*nearly dependent"
        with pytest.raises(RankDeficiencyError, match=causes):
            factorize(assemble_reduced_kkt(prob, np.arange(3)))
        assert calls == [(DENSE, (3, 3))]
        with pytest.raises(RankDeficiencyError, match=causes):
            differentiable_solve(prob, "active_set")


def _bound_case(name):
    """(problem, J, mode of K_J, whether the bound rows are substituted out)."""
    if name == "simplex":
        base, x = gen_simplex(40, 0)
        return base, identify(base, simplex_projection_sort(x), 1e-9).indices, DIRECT, True
    if name == "redundant-simplex":  # the null vector lies on lam only
        return (*redundant_simplex(40), LEAST_SQUARES, True)
    if name == "scaled-bounds":  # 2 z0 <= 3, -0.5 z3 <= 1, 4 z5 <= 2
        prob = with_bound_rows(random_mixed_qp(6, 2, 1, seed=5), [0, 3, 5],
                               [2.0, -0.5, 4.0], [3.0, 1.0, 2.0])
        return prob, np.array([2, 3, 4]), DIRECT, True
    if name == "mixed-rows":
        prob = with_bound_rows(random_mixed_qp(8, 4, 2, seed=6), [1, 4, 6],
                               [1.0, -1.0, 3.0], np.ones(3))
        return prob, np.array([0, 3, 4, 5, 6]), DIRECT, True
    if name == "p=0":
        prob = with_bound_rows(random_mixed_qp(7, 3, 0, seed=7), [2, 5],
                               [-1.0, 3.0], np.ones(2))
        return prob, np.array([1, 3, 4]), DIRECT, True
    if name == "duplicated-general-row":  # the null vector lies on mu_N only
        base = random_mixed_qp(7, 1, 1, seed=8)
        twice = QpProblem(base.P, base.q, base.A, base.b, sp.vstack([base.C, base.C]),
                          np.concatenate([base.d, base.d]))
        prob = with_bound_rows(twice, [1, 4], [1.0, -2.0], np.ones(2))
        return prob, np.arange(4), LEAST_SQUARES, True
    if name == "shared-variable":  # z2 <= 1 and -z2 <= -1
        prob = with_bound_rows(random_mixed_qp(6, 2, 1, seed=9), [2, 2, 4],
                               [1.0, -1.0, 1.0], [1.0, -1.0, 1.0])
        return prob, np.array([0, 2, 3, 4]), LEAST_SQUARES, False
    if name == "leaking-null-vector":
        # the equality rows agree on the free z0, z1 and differ on z2, which
        # the bound row fixes: the reduced null vector lam = (1, -1) has
        # A_B' lam = -1, so K_J's null vector has a bound-row multiplier
        prob = QpProblem(np.eye(3), np.ones(3), A=[[1.0, 1.0, 1.0], [1.0, 1.0, 2.0]],
                         b=[1.0, 1.5], C=[[0.0, 0.0, 1.0]], d=[0.5])
        return prob, np.array([0]), LEAST_SQUARES, False
    # every variable fixed, and the equality row stated twice: K_J's null
    # vectors have nonzero bound-row multipliers
    a = np.array([1.0, 2.0, 3.0])
    prob = QpProblem(np.eye(3), np.ones(3), A=[a, a], b=[1.0, 1.0],
                     C=np.diag([1.0, -1.0, 2.0]), d=np.ones(3))
    return prob, np.arange(3), LEAST_SQUARES, False


class TestBoundElimination:
    @pytest.mark.parametrize(
        "name",
        ["simplex", "redundant-simplex", "scaled-bounds", "mixed-rows", "p=0",
         "duplicated-general-row", "shared-variable", "leaking-null-vector",
         "all-fixed"],
    )
    def test_solves_match_the_whole_matrix(self, monkeypatch, name):
        import qpdiff.kkt as kkt_module

        prob, rows, mode, eliminated = _bound_case(name)
        fact = factorize(assemble_reduced_kkt(prob, rows))
        assert (fact._bound is not None) == eliminated
        if name == "leaking-null-vector":  # the reduced matrix was factored, then refused
            assert kkt_module._bound_rows(assemble_reduced_kkt(prob, rows)) is not None
        monkeypatch.setattr(kkt_module, "_bound_rows", lambda kkt: None)
        kkt = assemble_reduced_kkt(prob, rows)
        whole = factorize(kkt)
        assert fact.mode == whole.mode == mode
        assert fact.rank == whole.rank
        np.testing.assert_array_equal(fact.rows, rows)
        K = kkt.matrix.toarray()
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(3):
            rhs = rng.standard_normal(kkt.order)
            if mode == DIRECT:
                expected = np.linalg.solve(K, rhs)
            else:
                expected = np.linalg.lstsq(K, rhs, rcond=None)[0]
            err = np.linalg.norm(fact.solve(rhs) - expected)
            assert err <= 1e-12 * np.linalg.norm(expected)

    def test_engine_names_the_reduced_matrix(self):
        prob, rows = redundant_simplex(300)
        kkt = assemble_reduced_kkt(prob, rows)
        fact = factorize(kkt)
        # K_J (order 599) is sparse; the reduced matrix is small and dense
        assert not _dense_enough(kkt.nnz, kkt.order)
        assert (fact.mode, fact.engine, fact.order) == (LEAST_SQUARES, DENSE, kkt.order)
        assert fact._bound.reduced.order < 20

    def test_sparse_reduced_matrix_stays_on_superlu(self):
        # gen_random_sparse's C has rows with one entry, but the bound rows
        # of J fix only a few of the 1000 variables: K_J is factored whole,
        # by SuperLU, since the substitution would remove almost nothing
        prob = gen_random_sparse(1000, 0)
        sol = solve_admm(prob)
        kkt = assemble_reduced_kkt(prob, identify(prob, sol.z).indices)
        assert 0 < np.count_nonzero(kkt.row_counts == 1) < 100
        fact = factorize(kkt)
        assert fact._bound is None
        assert fact.engine == SPARSE


def _chain_qp():
    """Bound rows chained over four singleton passes (rows 5, 4, 3, 2), and a
    row equal to the equality row plus every chain row, so that the null
    vector is back-substituted through all four passes."""
    e = np.eye(6)
    a = np.random.Generator(np.random.PCG64(3)).uniform(3.0, 4.0, 6)
    chain = [2 * e[5], e[4] - 3 * e[5], 0.5 * e[3] - e[4], e[2] - 2 * e[3]]
    C = np.vstack(chain + [a + sum(chain)])
    return QpProblem(np.eye(6), np.ones(6), A=[a], b=[1.0], C=C, d=np.zeros(5))


def _null_basis_case(name):
    """(problem, J, the shapes of the dense blocks the pivoted QR sees)."""
    e = np.eye(4)
    if name == "chain":
        return _chain_qp(), np.arange(5), [(2, 2)]
    if name == "bound-stated-twice":
        # x0 >= 0 twice: two singleton columns on row 0; one is pivoted and
        # the other is left to the QR with no live row
        prob = QpProblem(np.eye(4), np.ones(4), A=np.ones((1, 4)), b=[1.0],
                         C=-e[[0, 0, 1]], d=np.zeros(3))
        return prob, np.arange(3), [(2, 2)]
    if name == "pivot-below-cut":
        # the 1e-20 column is a singleton on row 0, but not above the cut
        prob = QpProblem(np.eye(3), np.ones(3), A=np.ones((1, 3)), b=[1.0],
                         C=[[1e-20, 0, 0], [0, 1, 0]], d=np.zeros(2))
        return prob, np.arange(2), [(2, 2)]
    if name == "no-rows-left":
        prob = QpProblem(np.eye(2), np.ones(2), A=[[1.0, 1.0]], b=[1.0],
                         C=np.eye(2), d=np.zeros(2))
        return prob, np.arange(2), []
    # no columns left: e0, then e1 - e0 on the second pass; M has full rank
    prob = QpProblem(np.eye(3), np.ones(3), C=[[1, 0, 0], [-1, 1, 0]], d=np.zeros(2))
    return prob, np.arange(2), []


class TestNullBasis:
    @pytest.mark.parametrize(
        "name",
        ["chain", "bound-stated-twice", "pivot-below-cut", "no-rows-left", "no-columns-left"],
    )
    def test_spans_the_null_space_and_solves_minimum_norm(self, monkeypatch, name):
        import qpdiff.kkt as kkt_module

        prob, rows, qr_shapes = _null_basis_case(name)
        seen = []
        qr = kkt_module.dgeqp3

        def recording_qr(a, *args, **kwargs):
            if kwargs.get("lwork") != -1:  # not the workspace query
                seen.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(kkt_module, "dgeqp3", recording_qr)
        kkt = assemble_reduced_kkt(prob, rows)
        Z = _null_basis(kkt).toarray()
        assert seen == qr_shapes
        n = kkt.n
        M = kkt.matrix[:n, n:].toarray()
        N = scipy.linalg.null_space(M)
        assert not Z[:n].any()
        Y = Z[n:]
        assert Y.shape[1] == N.shape[1]
        np.testing.assert_allclose(N @ (N.T @ Y), Y, atol=1e-12)
        assert np.linalg.matrix_rank(Y) == Y.shape[1]
        assert np.abs(M @ Y).max(initial=0.0) <= 1e-14

        fact = factorize(kkt)
        assert fact.mode == (LEAST_SQUARES if N.shape[1] else DIRECT)
        rhs = np.random.Generator(np.random.PCG64(4)).standard_normal(kkt.order)
        expected, *_ = np.linalg.lstsq(kkt.matrix.toarray(), rhs, rcond=None)
        np.testing.assert_allclose(fact.solve(rhs), expected, atol=1e-10)


def stacked_dense_qp():
    """``gen_random_dense(40, 3)`` with every equality row stated twice."""
    base = gen_random_dense(40, 3)
    return QpProblem(
        base.P, base.q, sp.vstack([base.A, base.A]),
        np.concatenate([base.b, base.b]), base.C, base.d,
    )


def explicit_zeros_qp():
    """A QP whose P, A and C store explicit zeros, one of them on row 0 of C."""
    P = sp.csc_array(np.eye(3))
    P.data[1] = 0.0
    A = sp.csc_array(np.array([[1.0, 2.0, 0.0]]))
    A.data[0] = 0.0
    C = sp.csc_array(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]]))
    C.data[0] = 0.0
    return QpProblem(P, np.ones(3), A, [1.0], C, np.ones(3))


DENSE_FILL_CASES = [
    pytest.param(random_mixed_qp(8, 6, 0, seed=2), [1, 4], id="p=0"),
    pytest.param(QpProblem(np.eye(4) + 0.5, np.ones(4), A=np.ones((1, 4)), b=[1.0]),
                 [], id="m=0"),
    pytest.param(random_mixed_qp(8, 6, 2, seed=3), [], id="J-empty"),
    pytest.param(QpProblem(np.zeros((5, 5)), np.ones(5), A=np.ones((1, 5)), b=[1.0],
                           C=-np.eye(5), d=np.zeros(5)), [0, 2, 3], id="P=0"),
    pytest.param(gen_random_dense(150, 0), list(range(0, 150, 3)), id="dense-150"),
    pytest.param(stacked_dense_qp(), [1, 9, 11, 15, 16, 21, 24, 29, 35, 38, 39],
                 id="bordered"),
    pytest.param(explicit_zeros_qp(), [0, 2], id="explicit-zeros"),
]


class TestDenseAssembly:
    @pytest.mark.parametrize("prob, rows", DENSE_FILL_CASES)
    def test_dense_fill_matches_sparse_form(self, prob, rows):
        kkt = assemble_reduced_kkt(prob, np.array(rows, dtype=int))
        dense, expected = kkt.toarray(), kkt.matrix.toarray()
        assert dense.shape == expected.shape == (kkt.order, kkt.order)
        np.testing.assert_array_equal(dense, expected)
        assert np.array_equal(np.signbit(dense), np.signbit(expected))
        assert dense.flags.f_contiguous and expected.flags.f_contiguous

    @pytest.mark.parametrize("prob, rows", DENSE_FILL_CASES)
    def test_block_count_is_nnz(self, prob, rows):
        kkt = assemble_reduced_kkt(prob, np.array(rows, dtype=int))
        assert kkt.nnz == kkt.matrix.nnz

    def test_explicit_zeros_are_counted(self):
        prob = explicit_zeros_qp()
        assert (prob.P.nnz, prob.A.nnz, prob.C.nnz) == (3, 2, 5)
        kkt = assemble_reduced_kkt(prob, np.array([0, 2]))
        assert kkt.nnz == kkt.matrix.nnz == 3 + 2 * 2 + 2 * 4

    def test_dense_factorize_leaves_the_sparse_form_unbuilt(self):
        kkt = assemble_reduced_kkt(gen_random_dense(40, 1), np.arange(0, 40, 2))
        fact = factorize(kkt)
        assert (fact.engine, fact.mode) == (DENSE, DIRECT)
        assert "matrix" not in vars(kkt)
        # read on demand, and then the same object every time
        assert fact.matrix is kkt.matrix
        np.testing.assert_array_equal(fact.matrix.toarray(), kkt.toarray())

    def test_trsv_solves_match_solve_triangular_bit_for_bit(self):
        import scipy.linalg

        from qpdiff.kkt import _DenseLu

        kkt = assemble_reduced_kkt(gen_random_dense(60, 2), np.arange(20))
        lu = _DenseLu(kkt.toarray())
        rng = np.random.Generator(np.random.PCG64(15))
        for _ in range(5):
            rhs = rng.standard_normal(lu.lu.shape[0])
            y = scipy.linalg.solve_triangular(
                lu.lu, rhs[lu.perm], lower=True, unit_diagonal=True, check_finite=False
            )
            expected = scipy.linalg.solve_triangular(lu.lu, y, check_finite=False)
            np.testing.assert_array_equal(lu.solve(rhs), expected)


def block_array_saddle(prob, rows):
    """K_J assembled by ``sp.bmat``: the reference for the builder."""
    CJ = sp.csr_array(prob.C)[np.asarray(rows, dtype=int)]
    mat = sp.csc_array(sp.bmat([[prob.P, prob.A.T, CJ.T], [prob.A, None, None],
                                [CJ, None, None]], format="csc"))
    mat.sort_indices()
    return mat


def assert_same_csc(built, expected):
    """Bit for bit: the arrays, their index type, and sorted indices."""
    assert built.format == expected.format == "csc"
    assert built.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(built, name), getattr(expected, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert np.array_equal(np.signbit(built.data), np.signbit(expected.data))
    assert built.indices.dtype == np.int32
    assert built.has_sorted_indices and expected.has_sorted_indices


def redundant_simplex(n):
    """``gen_simplex(n, 0)`` with its sum row stated twice, and the rows
    active at its solution."""
    base, x = gen_simplex(n, 0)
    prob = QpProblem(base.P, base.q, sp.vstack([base.A, base.A]),
                     np.concatenate([base.b, base.b]), base.C, base.d)
    return prob, identify(prob, simplex_projection_sort(x), 1e-9).indices


def missing_diagonal_qp():
    """A sparse QP whose P stores no entry on columns 1 and 4, with an
    explicit zero in P, A and C."""
    n = 8
    P = sp.lil_array((n, n))
    for j in (0, 2, 3, 5, 6, 7):
        P[j, j] = 2.0
    P[1, 4] = P[4, 1] = 0.5
    P[0, 7] = P[7, 0] = 1.0
    P = sp.csc_array(P)
    P.data[P.data == 1.0] = 0.0
    A = sp.csc_array(np.array([[1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]))
    A.data[1] = 0.0
    C = sp.csc_array(np.vstack([-np.eye(n), np.eye(n)]))
    C.data[3] = 0.0
    return QpProblem(P, np.ones(n), A, [1.0], C, np.ones(2 * n))


class TestSaddleBuilder:
    @pytest.mark.parametrize("prob, rows", DENSE_FILL_CASES)
    def test_reduced_kkt_matches_block_array(self, prob, rows):
        kkt = assemble_reduced_kkt(prob, np.array(rows, dtype=int))
        assert_same_csc(kkt.matrix, block_array_saddle(prob, rows))

    @pytest.mark.parametrize("case", ["redundant-simplex", "stacked-dense"])
    def test_bordered_matches_block_array(self, case, monkeypatch):
        import qpdiff.kkt as kkt_module

        factored = []

        def recording_splu(matrix, *args, **kwargs):
            factored.append(matrix)
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(kkt_module, "splu", recording_splu)
        if case == "redundant-simplex":
            prob, rows = redundant_simplex(300)
        else:
            prob = stacked_dense_qp()
            rows = identify(prob, solve_active_set(prob).z).indices
        kkt = assemble_reduced_kkt(prob, rows)
        Z = _null_basis(kkt)
        assert Z.shape[1] > 0
        expected = sp.csc_array(sp.bmat([[block_array_saddle(prob, rows), Z], [Z.T, None]],
                                        format="csc"))
        assert_same_csc(_saddle(prob, rows, border=Z), expected)
        fact = factorize(kkt)
        assert fact.mode == LEAST_SQUARES
        if fact.engine == SPARSE:  # the matrix SuperLU factored last
            assert_same_csc(factored[-1], expected)

    def test_admm_matrix_matches_the_shifted_block_array(self, monkeypatch):
        import qpdiff.solvers as solvers

        prob = missing_diagonal_qp()
        assert (prob.P.diagonal() == 0).sum() == 2
        factored = record_splu(monkeypatch)
        cold_plans(monkeypatch)
        for _ in range(2):  # a miss, then a hit
            solve_admm(prob, solvers.SolveSettings(max_iterations=1))
        shift = admm_shift(prob)
        K = block_array_saddle(prob, np.arange(prob.m))
        expected = sp.csc_array(K + sp.diags_array(shift))
        # the sum drops the six explicit zeros of K and fills its diagonal
        assert (K.data == 0).sum() == 6 and (K.diagonal() == 0).sum() == 2 + 17
        assert expected.nnz == K.nnz - 6 + 19 and expected.diagonal().all()
        [(miss, miss_lu, miss_spec), (hit, _, hit_spec)] = factored
        assert (miss_spec, hit_spec) == ("MMD_AT_PLUS_A", "NATURAL")
        assert_same_csc(sp.csc_array(miss), expected)
        # the hit factors the same matrix permuted symmetrically by the
        # miss's ordering, with the same stored entries
        inv = np.argsort(miss_lu.perm_c)
        permuted, reference = sp.csc_array(hit, copy=True), sp.csc_array(expected[inv][:, inv])
        for mat in (permuted, reference):
            mat.has_sorted_indices = False  # the hit's rows keep the original order
            mat.sort_indices()
        assert_same_csc(permuted, reference)

    @pytest.mark.parametrize("case", ["sparse-degenerate", "simplex-3000"])
    def test_admm_matrix_factors_with_diagonal_pivots(self, case, monkeypatch):
        # quasi-definite, so its LDL' needs no off-diagonal pivot and shows
        # the inertia (n, p + m): n positive pivots, on a miss and on a hit
        if case == "sparse-degenerate":
            prob = redundant_simplex(300)[0]
        else:
            prob = gen_simplex(3000, 0)[0]
        factored = record_splu(monkeypatch)
        cold_plans(monkeypatch)
        for _ in range(2):
            solve_admm(prob, SolveSettings(max_iterations=1))
        assert [spec for *_, spec in factored] == ["MMD_AT_PLUS_A", "NATURAL"]
        for matrix, lu, _ in factored:
            np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
            assert np.count_nonzero(lu.U.diagonal() > 0) == prob.n
            default = splu(sp.csc_matrix(matrix.tocoo()))  # sorted indices
            assert lu.L.nnz + lu.U.nnz <= default.L.nnz + default.U.nnz
        # the hit's factor is the miss's, in the miss's order
        (_, miss, _), (_, hit, _) = factored
        np.testing.assert_array_equal(hit.perm_c, np.arange(prob.n + prob.p + prob.m))
        for name in ("L", "U"):
            assert_same_csc(sp.csc_array(getattr(hit, name)),
                            sp.csc_array(getattr(miss, name)))


def record_splu(monkeypatch):
    """Patch ``kkt.splu`` to record ``(matrix, factor, permc_spec)`` of each
    call; returns that list."""
    factored = []

    def recording_splu(matrix, *args, **kwargs):
        factored.append((matrix, splu(matrix, *args, **kwargs), kwargs.get("permc_spec")))
        return factored[-1][1]

    monkeypatch.setattr("qpdiff.kkt.splu", recording_splu)
    return factored


def cold_plans(monkeypatch):
    """Give ``kkt._shifted_lu`` an empty cache for the test; returns it."""
    plans = {}
    monkeypatch.setattr("qpdiff.kkt._plans", plans)
    return plans


def admm_shift(prob):
    """The diagonal shift of ADMM's sparse matrix, from the backend's
    penalty on each row and its proximal shift."""
    import qpdiff.solvers as solvers

    rho, sigma = solvers._admm_penalties(prob)
    return np.concatenate([np.full(prob.n, sigma), -1.0 / rho])


def stored_zero_chain():
    """``gen_chain(30, 30, 0)`` with a stored zero in P, A and C."""
    prob = gen_chain(30, 30, 0)[0]
    P, C = sp.csc_array(prob.P, copy=True), sp.csc_array(prob.C, copy=True)
    off = np.flatnonzero(P.indices != np.repeat(np.arange(prob.n), np.diff(P.indptr)))
    P.data[off[:2]] = 0.0  # a symmetric pair, kept by the constructor
    C.data[5] = 0.0
    A = sp.csc_array(np.ones((1, prob.n)))
    A.data[3] = 0.0
    return QpProblem(P, prob.q, A, [1.0], C, prob.d)


SHIFTED_CASES = {
    "sparse-degenerate": lambda: redundant_simplex(300)[0],
    "simplex-3000": lambda: gen_simplex(3000, 0)[0],
    "chain": lambda: gen_chain(30, 30, 0)[0],
    "stored-zeros": missing_diagonal_qp,
    "stored-zero-chain": stored_zero_chain,
}


class TestShiftedPlans:
    @pytest.mark.parametrize("case", sorted(SHIFTED_CASES))
    def test_plan_fills_the_shifted_saddle(self, case):
        prob = SHIFTED_CASES[case]()
        shift = admm_shift(prob)
        plan = _ShiftedPlan.of(prob)
        data = plan.fill(prob, shift)
        assert data.all()  # the stored zeros are not in the plan
        order = prob.n + prob.p + prob.m
        built = sp.csc_array((data, plan.indices, plan.indptr), shape=(order, order))
        assert_same_csc(built, _saddle(prob, np.arange(prob.m), shift))
        perm = np.random.Generator(np.random.PCG64(3)).permutation(order)
        permuted = plan.permuted(perm)
        assert not any(a.flags.writeable for a in permuted)
        got = sp.csc_array((permuted.fill(prob, shift), permuted.indices, permuted.indptr),
                           shape=(order, order), copy=True)
        inv = np.argsort(perm)
        expected = sp.csc_array(built[inv][:, inv])
        for mat in (got, expected):
            mat.has_sorted_indices = False  # the plan keeps the original row order
            mat.sort_indices()
        assert_same_csc(got, expected)

    @pytest.mark.parametrize("case", sorted(SHIFTED_CASES))
    def test_hit_gives_the_miss_bit_for_bit(self, case, monkeypatch):
        prob = SHIFTED_CASES[case]()
        factored = record_splu(monkeypatch)
        cold_plans(monkeypatch)
        # a miss, the first hit, which lays out the plan, and a later hit
        if case == "stored-zeros":  # one iteration: ADMM does not solve it
            outputs = [solve_admm(prob, SolveSettings(max_iterations=1)) for _ in range(3)]
            fields = [(p.z, p.lam, p.mu, p.iterations, p.r_p, p.r_d) for p in outputs]
        else:
            sols = [differentiable_solve(prob, "admm") for _ in range(3)]
            g = np.random.Generator(np.random.PCG64(5)).standard_normal(prob.n)
            fields = [(s.point.z, s.point.lam, s.point.mu, s.point.iterations, s.point.r_p,
                       s.point.r_d, s.active.indices, s.fact.mode, backward(s, g).grad_q)
                      for s in sols]
        specs = [spec for *_, spec in factored if spec in ("MMD_AT_PLUS_A", "NATURAL")]
        assert specs == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]
        for miss, *hits in zip(*fields):
            assert all(np.array_equal(miss, hit) for hit in hits)

    def test_hit_on_other_values_gives_the_miss(self, monkeypatch):
        # ADMM's shift follows C's row norms and P's diagonal, so problems
        # on one pattern factor different shifts through one plan
        first = gen_chain(30, 30, 0)[0]
        rng = np.random.Generator(np.random.PCG64(7))
        C = sp.csc_array(first.C, copy=True)
        C.data *= rng.uniform(0.5, 2.0, C.nnz)
        other = QpProblem(3.0 * first.P, first.q, first.A, first.b, C, first.d)
        assert _pattern_key(other) == _pattern_key(first)
        assert not np.array_equal(admm_shift(other), admm_shift(first))
        factored = record_splu(monkeypatch)
        fields = []
        for warm in ([], [first, first]):  # a cold miss; a miss, the first hit, then a hit
            cold_plans(monkeypatch)
            for prob in warm:
                differentiable_solve(prob, "admm")
            del factored[:]
            sol = differentiable_solve(other, "admm")
            specs = [spec for *_, spec in factored if spec in ("MMD_AT_PLUS_A", "NATURAL")]
            assert specs == (["NATURAL"] if warm else ["MMD_AT_PLUS_A"])
            fields.append((sol.point.z, sol.point.iterations, sol.active.indices))
        (z_miss, it_miss, J_miss), (z_hit, it_hit, J_hit) = fields
        np.testing.assert_array_equal(z_hit, z_miss)
        assert it_hit == it_miss
        np.testing.assert_array_equal(J_hit, J_miss)

    def test_zero_on_the_diagonal_is_not_planned(self, monkeypatch):
        # P_00 = -1e-6 cancels the shift: the pattern hangs on the values
        prob = QpProblem(np.diag([-1e-6, 1.0]), np.ones(2), C=np.eye(2), d=np.ones(2))
        plans = cold_plans(monkeypatch)
        shift = np.array([1e-6, 1e-6, -0.1, -0.1])
        lu = _shifted_lu(prob, shift, prob.n)
        assert plans == {}
        expected = _symmetric_lu(_saddle(prob, np.arange(prob.m), shift), prob.n)
        assert (lu is None) == (expected is None)

    def test_cache_stays_within_its_bound(self, monkeypatch):
        plans = cold_plans(monkeypatch)
        probs = [gen_chain(k, 2, 0)[0] for k in range(2, _PLAN_CAPACITY + 5)]
        keys = []
        for prob in probs:
            assert _shifted_lu(prob, admm_shift(prob), prob.n) is not None
            keys.append(_pattern_key(prob))
            assert len(plans) <= _PLAN_CAPACITY
        assert list(plans) == keys[-_PLAN_CAPACITY:]
        # a hit makes its pattern the most recently used
        _shifted_lu(probs[-_PLAN_CAPACITY], admm_shift(probs[-_PLAN_CAPACITY]), probs[0].n)
        assert list(plans)[-1] == keys[-_PLAN_CAPACITY]


class TestEngines:
    @pytest.mark.parametrize(
        "prob, rows, mode",
        [
            pytest.param(random_mixed_qp(20, 10, 3, seed=1), [0, 2, 4, 6, 8], DIRECT,
                         id="direct"),
            # the rows identified at this problem's solution
            pytest.param(stacked_dense_qp(), [1, 9, 11, 15, 16, 21, 24, 29, 35, 38, 39],
                         LEAST_SQUARES, id="bordered"),
        ],
    )
    def test_dense_and_sparse_agree(self, monkeypatch, prob, rows, mode):
        import qpdiff.kkt as kkt_module

        kkt = assemble_reduced_kkt(prob, np.array(rows))
        facts = {}
        for fill in (0.0, np.inf):  # every matrix dense, then every one sparse
            monkeypatch.setattr(kkt_module, "_DENSE_FILL", fill)
            facts[fill] = factorize(kkt)
        dense, sparse = facts[0.0], facts[np.inf]
        assert (dense.engine, sparse.engine) == (DENSE, SPARSE)
        assert dense.mode == sparse.mode == mode
        assert dense.rank == sparse.rank
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(3):
            rhs = rng.standard_normal(kkt.order)
            x, y = dense.solve(rhs), sparse.solve(rhs)
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_dense_least_squares_matches_pseudoinverse(self):
        prob = stacked_dense_qp()
        active = identify(prob, solve_active_set(prob).z)
        kkt = assemble_reduced_kkt(prob, active)
        fact = factorize(kkt)
        assert (fact.mode, fact.engine) == (LEAST_SQUARES, DENSE)
        assert (fact.rank, fact.order) == (71, 91)
        pinv = np.linalg.pinv(kkt.matrix.toarray())
        rng = np.random.Generator(np.random.PCG64(14))
        for _ in range(3):
            rhs = rng.standard_normal(kkt.order)
            expected = pinv @ rhs
            err = np.linalg.norm(fact.solve(rhs) - expected)
            assert err <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("engine, fill", [(DENSE, 0.0), (SPARSE, np.inf)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_lu_solve_per_right_hand_side(self, seed, engine, fill, monkeypatch):
        import qpdiff.kkt as kkt_module

        calls = []

        class CountingLu:
            def __init__(self, lu):
                self._lu = lu

            def __getattr__(self, name):
                return getattr(self._lu, name)

            def solve(self, rhs):
                calls.append(1)
                return self._lu.solve(rhs)

        prob = gen_random_dense(200, seed)
        kkt = assemble_reduced_kkt(prob, identify(prob, solve_admm(prob).z))
        dense_lu = kkt_module._DenseLu
        monkeypatch.setattr(kkt_module, "_DenseLu", lambda m: CountingLu(dense_lu(m)))
        monkeypatch.setattr(kkt_module, "splu", lambda m: CountingLu(splu(m)))
        monkeypatch.setattr(kkt_module, "_DENSE_FILL", fill)
        fact = factorize(kkt)
        assert (fact.engine, fact.mode) == (engine, DIRECT)
        K = kkt.toarray()
        norm_K = np.abs(K).sum(axis=1).max()
        rng = np.random.Generator(np.random.PCG64(16))
        for k in range(1, 6):
            rhs = rng.standard_normal(kkt.order)
            x = fact.solve(rhs)
            assert len(calls) == k
            err = np.abs(K @ x - rhs).max()
            assert err <= 1e-15 * (norm_K * np.abs(x).max() + np.abs(rhs).max())

    def test_shared_dense_factorization_survives_threaded_solves(self):
        # LAPACK's getrs has aborted the interpreter when threads shared one
        # LU, so the test runs in a child interpreter and reads its exit code
        code = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from qpdiff import assemble_reduced_kkt, factorize, gen_random_dense\n"
            "fact = factorize(assemble_reduced_kkt(gen_random_dense(20, 0), np.arange(5)))\n"
            "assert fact.engine == 'dense'\n"
            "rhs = np.random.Generator(np.random.PCG64(0)).standard_normal((8, fact.order))\n"
            "expected = [fact.solve(r) for r in rhs]\n"
            "bad = []\n"
            "def worker(k):\n"
            "    for _ in range(3000):\n"
            "        if not np.array_equal(fact.solve(rhs[k]), expected[k]):\n"
            "            bad.append(k)\n"
            "sys.setswitchinterval(1e-6)\n"
            "threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(timeout=100)\n"
            "sys.exit(1 if bad or any(t.is_alive() for t in threads) else 0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr


class TestSolveWith:
    def test_identity_returns_rhs(self):
        prob = QpProblem(np.eye(3), np.zeros(3))
        fact = factorize(assemble_reduced_kkt(prob, np.array([], dtype=int)))
        rhs = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(fact.solve(rhs), rhs)

    def test_symmetry_of_inverse(self):
        prob = random_mixed_qp(6, 4, 1, seed=4)
        fact = factorize(assemble_reduced_kkt(prob, np.array([0, 2])))
        order = fact.order
        for i, j in [(0, 3), (1, 5), (2, order - 1)]:
            ei = np.zeros(order)
            ej = np.zeros(order)
            ei[i] = 1.0
            ej[j] = 1.0
            lhs = fact.solve(ei)[j]
            rhs = fact.solve(ej)[i]
            assert abs(lhs - rhs) < 1e-10

    def test_repeat_solves_bit_identical(self):
        # symmetric matrix: adjoint solve is literally the same code path
        prob = random_mixed_qp(5, 3, 1, seed=5)
        fact = factorize(assemble_reduced_kkt(prob, np.array([1])))
        rhs = np.arange(1.0, fact.order + 1)
        np.testing.assert_array_equal(fact.solve(rhs), fact.solve(rhs))

    def test_length_mismatch(self):
        fact = factorize(assemble_reduced_kkt(one_dee(), np.array([0])))
        with pytest.raises(ValueError):
            fact.solve(np.zeros(5))

    def test_solve_on_gathers_and_scatters_the_rows_of_a_bordered_factorization(self):
        # the simplex's equality row stated twice makes K_J singular, so the
        # factorization on the identified rows is the bordered one
        base = gen_simplex(300, seed=881707420)[0]
        prob = QpProblem(
            base.P, base.q, sp.vstack([base.A, base.A]),
            np.concatenate([base.b, base.b]), base.C, base.d,
        )
        active = identify(prob, solve_active_set(prob).z)
        fact = factorize(assemble_reduced_kkt(prob, active))
        assert fact.mode == LEAST_SQUARES
        np.testing.assert_array_equal(fact.rows, active.indices)
        rng = np.random.Generator(np.random.PCG64(12))
        top, mid, bot = (rng.standard_normal(k) for k in (prob.n, prob.p, prob.m))
        x, y, w = solve_on(prob, fact, top, mid, bot)
        off = np.setdiff1d(np.arange(prob.m), active.indices)
        assert off.size and np.all(w[off] == 0.0)
        expected = fact.solve(np.concatenate([top, mid, bot[active.indices]]))
        np.testing.assert_array_equal(np.concatenate([x, y, w[active.indices]]), expected)

    def test_roundtrip_on_random_vectors(self):
        prob = random_mixed_qp(12, 8, 2, seed=6)
        kkt = assemble_reduced_kkt(prob, np.array([0, 3, 5]))
        fact = factorize(kkt)
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(5):
            x = rng.standard_normal(kkt.order)
            back = fact.solve(kkt.matrix @ x)
            np.testing.assert_allclose(back, x, rtol=1e-8, atol=1e-10)


class TestConditionEstimate:
    def test_identity_is_one(self):
        assert condition_estimate(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal_ratio(self):
        est = condition_estimate(np.diag([1.0, 1e-6]))
        assert est / 1e6 < 10 and 1e6 / est < 10

    def test_exactly_singular_is_inf(self):
        assert condition_estimate(np.zeros((2, 2))) == np.inf

    def test_sparse_large_estimate_within_factor_ten(self):
        rng = np.random.Generator(np.random.PCG64(8))
        diag = np.concatenate([np.ones(500), [1e-5]]) * (1 + rng.random(501))
        mat = sp.diags_array(diag, format="csc")
        est = condition_estimate(mat)
        truth = diag.max() / diag.min()
        assert est / truth < 10 and truth / est < 10

    def test_sparse_estimate_above_dense_limit(self):
        # order 700 takes the sparse 1-norm estimate, which applies the
        # inverse's adjoint as well; on a diagonal matrix it is exact
        mat = sp.diags_array(np.linspace(1.0, 1e3, 700))
        assert condition_estimate(mat) == pytest.approx(1e3, rel=1e-12)

    def test_structurally_singular_sparse_is_inf_without_lu(self, monkeypatch):
        import qpdiff.kkt as kkt

        calls = []
        monkeypatch.setattr(kkt, "splu", lambda *a, **k: calls.append(1))
        diag = np.ones(700)
        diag[350] = 0.0  # an empty column
        mat = sp.diags_array(diag).tocsc()
        mat.eliminate_zeros()
        assert condition_estimate(mat) == np.inf
        assert calls == []

    def test_full_vs_reduced_system_both_finite(self):
        prob = random_mixed_qp(6, 5, 1, seed=9)
        point = solve_active_set(prob)
        active = identify(prob, point.z)
        reduced = assemble_reduced_kkt(prob, active)
        cond_full = condition_estimate(full_implicit_matrix(prob, point))
        cond_reduced = condition_estimate(reduced.matrix)
        assert np.isfinite(cond_full)
        assert np.isfinite(cond_reduced)


class TestFactorizationReuse:
    def test_single_factorization_serves_all_solves(self, monkeypatch):
        from qpdiff import backward, differentiable_solve, forward_directional
        from qpdiff.differentiation import ParamDirection
        from qpdiff.solvers import get_backend

        calls = count_fresh_points(monkeypatch)
        prob = random_mixed_qp(6, 6, 1, seed=10)
        sol = differentiable_solve(prob, PrimalOnlyBackend(get_backend("active_set")))
        assert len(calls) == 1
        backward(sol, np.ones(6))
        backward(sol, np.arange(6.0))
        forward_directional(sol, ParamDirection(dq=np.ones(6)))
        assert len(calls) == 1

    def test_active_set_factorization_is_reused(self, monkeypatch):
        from qpdiff import differentiable_solve, gen_random_dense

        calls = count_fresh_points(monkeypatch)
        sol = differentiable_solve(gen_random_dense(60, 0), "active_set")
        np.testing.assert_array_equal(sol.active.indices, sol.point.fact.rows)
        assert len(calls) == 0
        assert sol.fact is sol.point.fact

    def test_equality_factorization_is_reused(self, monkeypatch):
        from qpdiff import differentiable_solve

        calls = count_fresh_points(monkeypatch)
        # the equality row binds and the inequality is slack at z = (0.5, 0.5)
        prob = QpProblem(np.eye(2), np.zeros(2), A=[[1.0, 1.0]], b=[1.0],
                         C=[[1.0, 0.0]], d=[5.0])
        sol = differentiable_solve(prob, "equality")
        assert sol.active.size == 0
        assert len(calls) == 0
        assert sol.fact is sol.point.fact

    @pytest.mark.parametrize("backend, prob", [
        ("active_set", gen_random_dense(60, 0)),
        ("admm", gen_random_dense(60, 0)),
        ("equality", QpProblem(np.eye(2), np.zeros(2), A=[[1.0, 1.0]], b=[1.0],
                               C=[[1.0, 0.0]], d=[5.0])),
    ])
    def test_reused_point_is_not_solved_again(self, monkeypatch, backend, prob):
        from qpdiff import differentiable_solve
        from qpdiff.kkt import KktFactorization
        from qpdiff.solvers import SolverBackend, get_backend

        solves = []
        original = KktFactorization.solve

        def counting(fact, rhs):
            solves.append(1)
            return original(fact, rhs)

        monkeypatch.setattr(KktFactorization, "solve", counting)
        inner = get_backend(backend)

        class CountAfterReturn(SolverBackend):
            name = backend

            def solve(self, problem, settings):
                point = inner.solve(problem, settings)
                solves.clear()
                return point

        sol = differentiable_solve(prob, CountAfterReturn())
        assert sol.fact is sol.point.fact
        assert solves == []

    def test_admm_factorization_is_reused(self, monkeypatch):
        import dataclasses

        from qpdiff import backward, differentiable_solve, gen_random_dense
        from qpdiff.solvers import get_backend

        calls = count_fresh_points(monkeypatch)
        prob = gen_random_dense(60, 0)
        sol = differentiable_solve(prob, "admm")
        assert len(calls) == 0
        assert sol.fact is sol.point.fact

        # another frame, or no backend factorization: factor afresh
        for kwargs in (
            dict(backend="admm", normalize=True),
            dict(backend=PrimalOnlyBackend(get_backend("admm"))),
        ):
            calls.clear()
            other = differentiable_solve(prob, **kwargs)
            assert len(calls) == 1, kwargs
            assert other.fact is not other.point.fact
        # other rows: the loose threshold adds row 23, whose unique
        # multiplier on that J is negative, so crossover drops it and
        # reaches the active-set backend's J
        calls.clear()
        other = differentiable_solve(prob, "admm", eps_active=1.0)
        assert len(calls) == 1
        exact = differentiable_solve(prob, "active_set")
        assert 23 not in other.active.indices
        np.testing.assert_array_equal(other.active.indices, exact.active.indices)
        g = np.random.Generator(np.random.PCG64(0)).standard_normal(prob.n)
        np.testing.assert_array_equal(backward(other, g).grad_q, backward(exact, g).grad_q)

        fresh = dataclasses.replace(
            sol, fact=factorize(assemble_reduced_kkt(prob, sol.active))
        )
        g = np.random.Generator(np.random.PCG64(11)).standard_normal(prob.n)
        reused, refactored = backward(sol, g), backward(fresh, g)
        for name in ("grad_q", "grad_b", "grad_d"):
            np.testing.assert_array_equal(
                getattr(reused, name), getattr(refactored, name)
            )
        for name in ("grad_P", "grad_A", "grad_C"):
            np.testing.assert_array_equal(
                getattr(reused, name).data, getattr(refactored, name).data
            )
