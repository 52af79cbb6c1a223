import json

import numpy as np
import pytest
import scipy.sparse as sp

from qpdiff import (
    DimensionError,
    NormalizationError,
    ProblemFormatError,
    QpProblem,
    brute_force_solve,
    load_problem,
    normalize_constraints,
    gen_random_sparse,
    store_problem,
    validate,
)
from qpdiff.kkt import _dense_enough

from helpers import random_mixed_qp


def two_dee():
    return QpProblem(np.eye(2), np.zeros(2), C=[[-1.0, -1.0]], d=[-1.0])


class TestConstruction:
    def test_dimension_mismatch_is_hard_error(self):
        with pytest.raises(DimensionError):
            QpProblem(np.eye(2), np.zeros(3))
        with pytest.raises(DimensionError):
            QpProblem(np.eye(2), np.zeros(2), A=[[1.0, 0.0]], b=[1.0, 2.0])
        with pytest.raises(DimensionError):
            QpProblem(np.eye(2), np.zeros(2), C=[[1.0, 0.0, 0.0]], d=[1.0])

    def test_matrix_without_vector_rejected(self):
        with pytest.raises(DimensionError):
            QpProblem(np.eye(2), np.zeros(2), A=[[1.0, 1.0]])

    def test_csc_canonical_storage(self):
        coo = sp.coo_array(([1.0, 2.0, 3.0], ([1, 0, 1], [0, 1, 0])), shape=(2, 2))
        prob = QpProblem(np.eye(2), np.zeros(2), C=coo, d=[0.0, 0.0])
        # duplicates summed, indices sorted
        assert prob.C[1, 0] == 4.0
        assert prob.C.has_sorted_indices

    def test_zero_constraint_blocks_are_first_class(self):
        prob = QpProblem(np.eye(3), np.ones(3))
        assert (prob.p, prob.m) == (0, 0)
        assert prob.A.shape == (0, 3)
        assert prob.d.shape == (0,)


class TestValidate:
    def test_identity_all_good(self):
        report = validate(QpProblem(np.eye(2), np.zeros(2)), check_pd=True)
        assert report.symmetric is True
        assert report.positive_definite is True
        assert report.empty_rows == []

    def test_asymmetric_flagged(self):
        report = validate(QpProblem([[0.0, 1.0], [0.0, 0.0]], np.zeros(2)))
        assert report.symmetric is False

    def test_indefinite_flagged(self):
        report = validate(
            QpProblem([[1.0, 0.0], [0.0, -1.0]], np.zeros(2)), check_pd=True
        )
        assert report.positive_definite is False

    def test_empty_row_reported_not_raised(self):
        prob = QpProblem(
            np.eye(2), np.zeros(2), C=sp.csc_array((1, 2)), d=[1.0]
        )
        report = validate(prob)
        assert ("C", 0) in report.empty_rows
        assert report.messages

    def test_pd_not_checked_by_default(self):
        assert validate(QpProblem(np.eye(2), np.zeros(2))).positive_definite is None

    def test_pd_check_on_large_sparse(self):
        # n > 2000 takes the eigenvalue-estimate path
        n = 2500
        good = QpProblem(sp.diags_array(np.arange(1.0, n + 1), format="csc"), np.zeros(n))
        assert validate(good, check_pd=True).positive_definite is True
        diag = np.arange(1.0, n + 1)
        diag[7] = -0.5
        bad = QpProblem(sp.diags_array(diag, format="csc"), np.zeros(n))
        assert validate(bad, check_pd=True).positive_definite is False

    def test_pd_check_on_the_random_sparse_family(self):
        # P = L'L + 1e-4 I, smallest eigenvalue 1e-4, takes the sparse path
        P = gen_random_sparse(2500, 0).P
        assert not _dense_enough(P.nnz, P.shape[0])
        report = validate(QpProblem(P, np.zeros(2500)), check_pd=True)
        assert report.positive_definite is True
        assert report.messages == []

    @pytest.mark.parametrize("shift", [1e-2, 1e-3])
    def test_pd_check_rejects_the_shifted_random_sparse_family(self, shift):
        P = gen_random_sparse(2500, 0).P
        shifted = QpProblem(P - shift * sp.identity(2500), np.zeros(2500))
        report = validate(shifted, check_pd=True)
        assert report.positive_definite is False
        assert "P failed the positive-definiteness check" in report.messages

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "not-stored"])
    @pytest.mark.parametrize("family", ["random-sparse", "diagonal"])
    def test_pd_check_rejects_a_zero_diagonal_entry(self, family, stored):
        n, k = 2500, 7
        if family == "random-sparse":
            P = sp.csc_array(gen_random_sparse(n, 0).P, copy=True)
        else:
            P = sp.csc_array(sp.diags_array(np.arange(1.0, n + 1), format="csc"))
        lo, hi = P.indptr[k], P.indptr[k + 1]
        P.data[lo + np.flatnonzero(P.indices[lo:hi] == k)[0]] = 0.0
        if not stored:
            P.eliminate_zeros()
        prob = QpProblem(P, np.zeros(n))
        # the constructor keeps an explicit zero as it is
        assert (k in prob.P.indices[prob.P.indptr[k]:prob.P.indptr[k + 1]]) == stored
        assert validate(prob, check_pd=True).positive_definite is False


class TestNormalize:
    def test_three_four_five_row(self):
        prob = QpProblem(np.eye(2), np.zeros(2), C=[[3.0, 4.0]], d=[10.0])
        scaled, scaling = normalize_constraints(prob)
        np.testing.assert_array_equal(scaled.C.toarray(), [[0.6, 0.8]])
        np.testing.assert_array_equal(scaled.d, [2.0])
        np.testing.assert_array_equal(scaling.ineq_scales, [5.0])

    def test_unit_rows_fixed_point(self):
        prob = QpProblem(np.eye(2), np.zeros(2), C=np.eye(2), d=[1.0, 2.0])
        scaled, scaling = normalize_constraints(prob)
        assert scaled.data_equal(prob)
        np.testing.assert_array_equal(scaling.ineq_scales, [1.0, 1.0])

    def test_argmin_unchanged(self):
        rng = np.random.Generator(np.random.PCG64(3))
        scales = np.array([1e-3, 1.0, 50.0, 2.0, 1e3])
        C = rng.standard_normal((5, 3)) * scales[:, None]
        z0 = rng.standard_normal(3)
        prob = QpProblem(
            np.eye(3), rng.standard_normal(3), C=C, d=C @ z0 + rng.uniform(0.1, 1, 5)
        )
        scaled, _ = normalize_constraints(prob)
        z_orig = brute_force_solve(prob).z
        z_scaled = brute_force_solve(scaled).z
        np.testing.assert_allclose(z_scaled, z_orig, atol=1e-8)

    def test_zero_row_names_index(self):
        prob = QpProblem(
            np.eye(2), np.zeros(2),
            C=sp.csc_array(np.array([[1.0, 0.0], [0.0, 0.0]])), d=[1.0, 1.0],
        )
        with pytest.raises(NormalizationError, match="row 1"):
            normalize_constraints(prob)

    def test_sign_pattern_preserved(self):
        rng = np.random.Generator(np.random.PCG64(4))
        C = rng.standard_normal((6, 4)) * np.array([1e-2, 1, 10, 1, 5, 100])[:, None]
        d = rng.standard_normal(6)
        prob = QpProblem(np.eye(4), np.zeros(4), C=C, d=d)
        scaled, _ = normalize_constraints(prob)
        for _ in range(100):
            z = rng.standard_normal(4)
            signs = np.sign(prob.C @ z - prob.d)
            signs_scaled = np.sign(scaled.C @ z - scaled.d)
            np.testing.assert_array_equal(signs, signs_scaled)

    def test_normalize_twice_is_fixed_point(self):
        prob = random_mixed_qp(4, 5, 2, seed=11)
        once, _ = normalize_constraints(prob)
        twice, again = normalize_constraints(once)
        np.testing.assert_allclose(again.ineq_scales, 1.0, rtol=1e-14)
        np.testing.assert_allclose(again.eq_scales, 1.0, rtol=1e-14)
        np.testing.assert_allclose(
            twice.C.toarray(), once.C.toarray(), rtol=1e-14, atol=0
        )


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        # the second input has an infinite bound, which JSON has no literal for
        unbounded = QpProblem(np.eye(2), np.zeros(2), C=np.eye(2), d=[np.inf, 1.0])
        for k, prob in enumerate((two_dee(), unbounded)):
            path = tmp_path / f"p{k}.json"
            store_problem(prob, path)
            again = load_problem(path)
            assert again.data_equal(prob)

    def test_round_trip_random_problems_bit_exact(self, tmp_path):
        for seed in range(3):
            prob = random_mixed_qp(5, 6, 2, seed=seed)
            path = tmp_path / f"p{seed}.json"
            store_problem(prob, path)
            assert load_problem(path).data_equal(prob)

    def test_round_trip_sparse_problem_bit_exact(self, tmp_path):
        from qpdiff import gen_random_sparse

        prob = gen_random_sparse(60, seed=2)
        path = tmp_path / "sparse.json"
        store_problem(prob, path)
        assert load_problem(path).data_equal(prob)

    def test_duplicate_triplet_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        obj = {
            "n": 1, "p": 0, "m": 0,
            "P": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0], [0, 0, 1.0]]},
            "A": {"rows": 0, "cols": 1, "triplets": []},
            "C": {"rows": 0, "cols": 1, "triplets": []},
            "q": [0.0], "b": [], "d": [],
        }
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match="duplicate"):
            load_problem(path)

    def test_vector_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "badlen.json"
        obj = {
            "n": 1, "p": 0, "m": 2,
            "P": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0]]},
            "A": {"rows": 0, "cols": 1, "triplets": []},
            "C": {"rows": 2, "cols": 1, "triplets": [[0, 0, 1.0], [1, 0, 1.0]]},
            "q": [0.0], "b": [], "d": [1.0, 2.0, 3.0],
        }
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match="'d'"):
            load_problem(path)

    def test_unsorted_triplets_rejected(self, tmp_path):
        path = tmp_path / "unsorted.json"
        obj = {
            "n": 2, "p": 0, "m": 0,
            "P": {"rows": 2, "cols": 2,
                  "triplets": [[0, 1, 1.0], [0, 0, 1.0]]},
            "A": {"rows": 0, "cols": 2, "triplets": []},
            "C": {"rows": 0, "cols": 2, "triplets": []},
            "q": [0.0, 0.0], "b": [], "d": [],
        }
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match="sorted"):
            load_problem(path)

    def test_symmetric_lower_expansion(self, tmp_path):
        path = tmp_path / "lower.json"
        obj = {
            "n": 2, "p": 0, "m": 0,
            "P": {"rows": 2, "cols": 2, "symmetric_lower": True,
                  "triplets": [[0, 0, 2.0], [1, 0, 0.5], [1, 1, 3.0]]},
            "A": {"rows": 0, "cols": 2, "triplets": []},
            "C": {"rows": 0, "cols": 2, "triplets": []},
            "q": [0.0, 0.0], "b": [], "d": [],
        }
        path.write_text(json.dumps(obj))
        prob = load_problem(path)
        np.testing.assert_array_equal(
            prob.P.toarray(), [[2.0, 0.5], [0.5, 3.0]]
        )

    def test_out_of_range_index_names_location(self, tmp_path):
        path = tmp_path / "oob.json"
        obj = {
            "n": 1, "p": 0, "m": 1,
            "P": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0]]},
            "A": {"rows": 0, "cols": 1, "triplets": []},
            "C": {"rows": 1, "cols": 1, "triplets": [[3, 0, 1.0]]},
            "q": [0.0], "b": [], "d": [0.0],
        }
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match=r"C.triplets\[0\]"):
            load_problem(path)

    @pytest.mark.parametrize(
        "key, match",
        [("n", "'n'"), ("rows", "'P.rows'"), ("cols", "'P.cols'"),
         ("triplet", r"P.triplets\[0\]")],
    )
    def test_boolean_where_an_integer_is_needed_rejected(self, tmp_path, key, match):
        # bool is an int in Python, so true would otherwise load as 1
        obj = {
            "n": 1, "p": 0, "m": 0,
            "P": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0]]},
            "A": {"rows": 0, "cols": 1, "triplets": []},
            "C": {"rows": 0, "cols": 1, "triplets": []},
            "q": [0.0], "b": [], "d": [],
        }
        if key == "n":
            obj["n"] = True
        elif key == "triplet":
            obj["P"]["triplets"] = [[False, False, 1.0]]
        else:
            obj["P"][key] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match=match):
            load_problem(path)

    @pytest.mark.parametrize("key, match", [("q", "'q'"), ("d", "'d'"),
                                            ("C", r"C.triplets\[0\]")])
    def test_nan_entry_rejected_and_named(self, tmp_path, key, match):
        obj = {
            "n": 1, "p": 0, "m": 1,
            "P": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0]]},
            "A": {"rows": 0, "cols": 1, "triplets": []},
            "C": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0]]},
            "q": [0.0], "b": [], "d": [5.0],
        }
        if key == "C":
            obj["C"]["triplets"] = [[0, 0, float("nan")]]
        else:
            obj[key] = [float("nan")]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))  # json writes the bare token NaN
        with pytest.raises(ProblemFormatError, match=match):
            load_problem(path)

    @pytest.mark.parametrize("key, match", [("q", "'q'"), ("C", r"C.triplets\[0\]")])
    def test_integer_too_large_for_a_float_rejected_and_named(self, tmp_path, key, match):
        obj = {
            "n": 1, "p": 0, "m": 1,
            "P": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0]]},
            "A": {"rows": 0, "cols": 1, "triplets": []},
            "C": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0]]},
            "q": [0.0], "b": [], "d": [5.0],
        }
        huge = 10 ** 400
        if key == "C":
            obj["C"]["triplets"] = [[0, 0, huge]]
        else:
            obj[key] = [huge]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match=match):
            load_problem(path)

    @pytest.mark.parametrize("block", ["P", "q", "A", "b", "C", "d"])
    def test_nan_refused_before_the_file_is_opened(self, tmp_path, block):
        blocks = dict(P=np.eye(2), q=np.zeros(2), A=np.ones((1, 2)), b=np.ones(1),
                      C=np.eye(2), d=np.array([np.inf, 1.0]))
        blocks[block] = np.array(blocks[block], dtype=float)
        blocks[block].flat[0] = np.nan
        path = tmp_path / "nan.json"
        with pytest.raises(ProblemFormatError, match=f"'{block}' has a NaN entry"):
            store_problem(QpProblem(**blocks), path)
        assert not path.exists()

    def test_infinities_written_as_infinity_round_trip(self, tmp_path):
        prob = QpProblem([[np.inf, 0.0], [0.0, 1.0]], np.zeros(2), C=np.eye(2),
                         d=[np.inf, -np.inf])
        path = tmp_path / "inf.json"
        store_problem(prob, path)
        text = path.read_text()
        assert "-Infinity" in text and text.count("Infinity") == 3
        assert load_problem(path).data_equal(prob)

    def test_infinite_bound_loads(self, tmp_path):
        path = tmp_path / "inf.json"
        store_problem(QpProblem([[1.0]], [0.0], C=[[1.0]], d=[np.inf]), path)
        assert "Infinity" in path.read_text()
        np.testing.assert_array_equal(load_problem(path).d, [np.inf])

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError, match="invalid JSON"):
            load_problem(path)

    def test_symmetric_lower_only_valid_on_p(self, tmp_path):
        path = tmp_path / "lower_c.json"
        obj = {
            "n": 1, "p": 0, "m": 1,
            "P": {"rows": 1, "cols": 1, "triplets": [[0, 0, 1.0]]},
            "A": {"rows": 0, "cols": 1, "triplets": []},
            "C": {"rows": 1, "cols": 1, "symmetric_lower": True,
                  "triplets": [[0, 0, 1.0]]},
            "q": [0.0], "b": [], "d": [0.0],
        }
        path.write_text(json.dumps(obj))
        with pytest.raises(ProblemFormatError, match="symmetric_lower"):
            load_problem(path)
