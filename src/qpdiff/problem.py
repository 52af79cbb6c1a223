"""Quadratic-program data model, validation, normalization and JSON storage.

A problem is

    minimize    0.5 * z' P z + q' z
    subject to  A z  = b
                C z <= d

with P (n x n) symmetric positive definite, A (p x n) and C (m x n).
Either or both of p and m may be zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, NormalizationError, ProblemFormatError
from .kkt import _dense_enough, _symmetric_lu

__all__ = [
    "QpProblem",
    "RowScaling",
    "ValidationReport",
    "validate",
    "normalize_constraints",
    "load_problem",
    "store_problem",
]

SYMMETRY_RTOL = 1e-12


def is_symmetric(mat) -> bool:
    """max|M - M'| <= SYMMETRY_RTOL * max(1, max|M|) over the finite entries
    of a sparse square M, whose non-finite entries mirror exactly: NaN
    opposite NaN, inf opposite inf of the same sign."""
    mat = sp.csc_array(mat)
    finite = np.isfinite(mat.data)
    if not finite.all():
        # 1, 2, 3 for NaN, +inf, -inf; 0 for a finite entry
        kind = np.select([np.isnan(mat.data), mat.data > 0, mat.data < 0], [1, 2, 3])
        kinds = sp.csc_array((kind, mat.indices, mat.indptr), shape=mat.shape)
        if (kinds != kinds.T).nnz:
            return False
        mat = sp.csc_array((np.where(finite, mat.data, 0.0), mat.indices, mat.indptr),
                           shape=mat.shape)
    asym = abs(mat - mat.T)
    scale = max(1.0, abs(mat).max() if mat.nnz else 0.0)
    return bool((asym.max() if asym.nnz else 0.0) <= SYMMETRY_RTOL * scale)


def _as_csc(mat, shape, name):
    """Coerce dense/sparse input to canonical CSC (sorted, duplicate-free)."""
    if mat is None:
        return sp.csc_array(shape)
    if sp.issparse(mat):
        out = sp.csc_array(mat, copy=True)
    else:
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2:
            raise DimensionError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
        out = sp.csc_array(arr)
    if out.shape != shape:
        raise DimensionError(f"{name} has shape {out.shape}, expected {shape}")
    out.sum_duplicates()
    out.sort_indices()
    out = out.astype(float)
    return out


def _as_vector(vec, length, name):
    arr = np.asarray(vec, dtype=float).ravel() if vec is not None else np.zeros(0)
    if arr.shape[0] != length:
        raise DimensionError(f"{name} has length {arr.shape[0]}, expected {length}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class QpProblem:
    """Immutable container for the six parameter blocks of a QP.

    Matrices are stored in compressed-column form with sorted, duplicate-free
    indices; vectors are read-only float arrays.  The constructor enforces
    dimensional consistency only; semantic checks (symmetry of P, empty
    constraint rows, positive definiteness) are reported by :func:`validate`.
    """

    __slots__ = ("P", "q", "A", "b", "C", "d", "n", "p", "m")

    def __init__(self, P, q, A=None, b=None, C=None, d=None):
        q = np.asarray(q, dtype=float).ravel()
        n = q.shape[0]
        if n == 0:
            raise DimensionError("q must have at least one entry")

        p = _infer_rows(A, b, "A", "b")
        m = _infer_rows(C, d, "C", "d")

        self.P = _as_csc(P, (n, n), "P")
        self.q = _as_vector(q, n, "q")
        self.A = _as_csc(A, (p, n), "A")
        self.b = _as_vector(b, p, "b")
        self.C = _as_csc(C, (m, n), "C")
        self.d = _as_vector(d, m, "d")
        self.n = n
        self.p = p
        self.m = m

    def data_equal(self, other):
        """Exact structural and numerical equality of all six blocks."""
        if (self.n, self.p, self.m) != (other.n, other.p, other.m):
            return False
        for name in ("P", "A", "C"):
            a, o = getattr(self, name), getattr(other, name)
            if a.indptr.tolist() != o.indptr.tolist():
                return False
            if a.indices.tolist() != o.indices.tolist():
                return False
            if not np.array_equal(a.data, o.data):
                return False
        return all(
            np.array_equal(getattr(self, v), getattr(other, v))
            for v in ("q", "b", "d")
        )

    def __repr__(self):
        return f"QpProblem(n={self.n}, p={self.p}, m={self.m})"


def _infer_rows(mat, vec, mat_name, vec_name):
    if mat is None and vec is None:
        return 0
    if mat is None or vec is None:
        raise DimensionError(f"{mat_name} and {vec_name} must be given together")
    rows = mat.shape[0] if hasattr(mat, "shape") else len(mat)
    if len(np.asarray(vec).ravel()) != rows:
        raise DimensionError(
            f"{vec_name} has length {len(np.asarray(vec).ravel())}, "
            f"expected {rows} to match {mat_name}"
        )
    return rows


@dataclass(frozen=True)
class RowScaling:
    """Per-row Euclidean norms divided out of the constraint blocks.

    ``C_original[j] = ineq_scales[j] * C_normalized[j]`` and likewise for the
    equality rows, so the scaling reconstructs the original problem.
    """

    eq_scales: np.ndarray
    ineq_scales: np.ndarray


@dataclass
class ValidationReport:
    symmetric: bool
    positive_definite: bool | None
    empty_rows: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    finite: bool = True  # every stored entry of P is finite

    @property
    def ok(self):
        return self.symmetric and self.finite and not self.empty_rows


def validate(problem: QpProblem, check_pd: bool = False) -> ValidationReport:
    """Report structural defects of a problem without raising.

    ``check_pd`` records whether P is positive definite, by one
    factorization (:func:`_positive_definite`); an asymmetric P, or one
    with a NaN or infinite entry, is not.  Symmetry is read on the finite
    entries, and the non-finite ones must mirror exactly (:func:`is_symmetric`).
    """
    messages = []

    P = problem.P
    bad = np.flatnonzero(~np.isfinite(P.data))
    if bad.size:
        col = int(np.searchsorted(P.indptr, bad[0], side="right") - 1)
        messages.append(f"P has a non-finite entry {P.data[bad[0]]} at "
                        f"({int(P.indices[bad[0]])}, {col})")
    symmetric = is_symmetric(P)
    if not symmetric:
        messages.append("P is not symmetric")

    empty_rows = []
    for name in ("A", "C"):
        mat = getattr(problem, name)
        if mat.shape[0]:
            nnz_per_row = np.diff(sp.csr_array(mat).indptr)
            for i in np.flatnonzero(nnz_per_row == 0):
                empty_rows.append((name, int(i)))
                messages.append(f"{name} row {int(i)} is structurally empty")

    positive_definite = None
    if check_pd:
        if not symmetric:
            positive_definite = False
            messages.append("positive definiteness not established: P asymmetric")
        elif bad.size:
            positive_definite = False
            messages.append("positive definiteness not established: P not finite")
        else:
            positive_definite = _positive_definite(P)
            if not positive_definite:
                messages.append("P failed the positive-definiteness check")

    return ValidationReport(symmetric, positive_definite, empty_rows, messages,
                            finite=not bad.size)


def _positive_definite(P):
    """Whether the symmetric P is positive definite, on K_J's engine rule:
    dense Cholesky, or ``kkt._symmetric_lu``, the factorization ADMM makes
    of its sparse matrix, asked for n positive pivots.  That is one SuperLU
    ``P = L D L'`` with a symmetric ordering and diagonal pivots; P is
    definite exactly when no off-diagonal pivot was taken and every pivot
    ``U_ii`` is positive, and a P that SuperLU or its structural guard
    refuses as singular is not."""
    if _dense_enough(P.nnz, P.shape[0]):
        try:
            np.linalg.cholesky(P.toarray())
            return True
        except np.linalg.LinAlgError:
            return False
    return _symmetric_lu(P, P.shape[0]) is not None


def normalize_constraints(problem: QpProblem) -> tuple[QpProblem, RowScaling]:
    """Divide each constraint row and its bound by the row's Euclidean norm.

    The feasible set and the argmin are unchanged; residuals of the scaled
    problem are scale-invariant distances to the constraints.  Raises
    :class:`NormalizationError` on a zero-norm row.
    """
    eq_scales = _row_norms(problem.A, "A")
    ineq_scales = _row_norms(problem.C, "C")

    A = _scale_rows(problem.A, eq_scales)
    C = _scale_rows(problem.C, ineq_scales)
    b = problem.b / eq_scales if problem.p else problem.b
    d = problem.d / ineq_scales if problem.m else problem.d

    scaled = QpProblem(problem.P, problem.q, A, b, C, d)
    return scaled, RowScaling(eq_scales, ineq_scales)


def _row_norms(mat, name):
    rows = mat.shape[0]
    if rows == 0:
        return np.zeros(0)
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise NormalizationError(f"{name} row {int(zero[0])} has zero norm")
    if not np.all(np.isfinite(norms)):
        bad = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise NormalizationError(f"{name} row {bad} has non-finite norm")
    return norms


def _scale_rows(mat, scales):
    if mat.shape[0] == 0:
        return mat
    csr = sp.csr_array(mat, copy=True)
    # true division per entry, not multiplication by reciprocals
    csr.data /= np.repeat(scales, np.diff(csr.indptr))
    return sp.csc_array(csr)


# --- JSON problem format ---------------------------------------------------
#
# Object keys: "n", "p", "m"; "P", "A", "C" as
# {"rows": r, "cols": c, "triplets": [[i, j, v], ...]} with triplets sorted
# column-major, zero-based and duplicate-free; "q", "b", "d" as arrays.
# P may carry "symmetric_lower": true, in which case only i >= j entries are
# stored.  Values are written with Python's float repr, the shortest decimal
# that round-trips an IEEE double exactly; infinite bounds are written as
# Infinity or -Infinity.  A NaN entry is rejected on store and on load.


def store_problem(problem: QpProblem, path) -> None:
    """Write ``problem`` to ``path`` in the format above.  A NaN entry, which
    it cannot hold, raises :class:`ProblemFormatError` before any write."""
    for name in ("P", "q", "A", "b", "C", "d"):
        block = getattr(problem, name)
        if np.isnan(block.data if sp.issparse(block) else block).any():
            raise ProblemFormatError(f"{path}: '{name}' has a NaN entry")
    obj = {
        "n": problem.n,
        "p": problem.p,
        "m": problem.m,
        "P": _matrix_to_json(problem.P),
        "A": _matrix_to_json(problem.A),
        "C": _matrix_to_json(problem.C),
        "q": [float(v) for v in problem.q],
        "b": [float(v) for v in problem.b],
        "d": [float(v) for v in problem.d],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def _matrix_to_json(mat):
    coo = sp.coo_array(mat)
    order = np.lexsort((coo.row, coo.col))  # column-major
    triplets = [
        [int(coo.row[k]), int(coo.col[k]), float(coo.data[k])] for k in order
    ]
    return {"rows": mat.shape[0], "cols": mat.shape[1], "triplets": triplets}


def load_problem(path) -> QpProblem:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON ({exc})") from exc

    for key in ("n", "p", "m", "P", "A", "C", "q", "b", "d"):
        if key not in obj:
            raise ProblemFormatError(f"{path}: missing key '{key}'")

    n, p, m = (_int_field(obj, k, path) for k in ("n", "p", "m"))
    P = _matrix_from_json(obj["P"], (n, n), "P", path)
    A = _matrix_from_json(obj["A"], (p, n), "A", path)
    C = _matrix_from_json(obj["C"], (m, n), "C", path)
    q = _vector_from_json(obj["q"], n, "q", path)
    b = _vector_from_json(obj["b"], p, "b", path)
    d = _vector_from_json(obj["d"], m, "d", path)

    try:
        return QpProblem(P, q, A if p else None, b if p else None,
                         C if m else None, d if m else None)
    except DimensionError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc


def _int_field(obj, key, path):
    v = obj[key]
    if not _is_int(v) or v < 0:
        raise ProblemFormatError(f"{path}: '{key}' must be a nonnegative integer")
    return v


def _is_int(v):
    """A Python or numpy integer; ``bool`` is an ``int`` in Python, so it is
    excluded."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _vector_from_json(raw, length, name, path):
    if not isinstance(raw, list) or len(raw) != length:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ProblemFormatError(
            f"{path}: '{name}' must be an array of length {length}, got {got}"
        )
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        raise ProblemFormatError(f"{path}: '{name}' has a non-numeric entry")
    try:
        vec = np.array([float(v) for v in raw])
    except OverflowError:
        raise ProblemFormatError(
            f"{path}: '{name}' has an integer too large for a float"
        ) from None
    if np.isnan(vec).any():
        raise ProblemFormatError(f"{path}: '{name}' has a NaN entry")
    return vec


def _matrix_from_json(raw, shape, name, path):
    if not isinstance(raw, dict) or "triplets" not in raw:
        raise ProblemFormatError(f"{path}: '{name}' must be a triplet object")
    for key in ("rows", "cols"):
        if not _is_int(raw.get(key)):
            raise ProblemFormatError(f"{path}: '{name}.{key}' must be an integer")
    if (raw["rows"], raw["cols"]) != shape:
        raise ProblemFormatError(
            f"{path}: '{name}' declares shape "
            f"({raw['rows']}, {raw['cols']}), expected {shape}"
        )
    lower = bool(raw.get("symmetric_lower", False))
    if lower and name != "P":
        raise ProblemFormatError(f"{path}: symmetric_lower is only valid on P")

    rows, cols, vals = [], [], []
    prev = None
    for k, trip in enumerate(raw["triplets"]):
        loc = f"{path}: {name}.triplets[{k}]"
        if not isinstance(trip, list) or len(trip) != 3:
            raise ProblemFormatError(f"{loc}: expected [i, j, v]")
        i, j, v = trip
        if not _is_int(i) or not _is_int(j):
            raise ProblemFormatError(f"{loc}: indices must be integers")
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            raise ProblemFormatError(f"{loc}: index ({i}, {j}) out of range")
        if lower and i < j:
            raise ProblemFormatError(f"{loc}: entry above diagonal with symmetric_lower")
        if prev is not None:
            if (j, i) == prev:
                raise ProblemFormatError(f"{loc}: duplicate entry ({i}, {j})")
            if (j, i) < prev:
                raise ProblemFormatError(f"{loc}: triplets not sorted column-major")
        prev = (j, i)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ProblemFormatError(f"{loc}: non-numeric value")
        try:
            vals.append(float(v))
        except OverflowError:
            raise ProblemFormatError(f"{loc}: integer too large for a float") from None
        if np.isnan(vals[-1]):
            raise ProblemFormatError(f"{loc}: NaN value")
        rows.append(i)
        cols.append(j)

    mat = sp.csc_array(
        sp.coo_array((vals, (rows, cols)), shape=shape)
    )
    if lower:
        diag = sp.diags_array(mat.diagonal())
        mat = sp.csc_array(mat + mat.T - diag)
    return mat
