"""Exact, order-invariant matrix-vector products.

Iterative solvers (CG, GMRES) are the canonical consumers of
reproducible reductions: every iteration takes a matvec and two or three
dot products, and tiny order-dependent perturbations change iteration
counts and convergence paths between runs.  ``hp_matvec`` computes every
row's inner product exactly (Dekker splits + HP accumulation), so
``A @ x`` is bit-identical regardless of how rows, columns, or nonzeros
were partitioned.

Dense rows use the vectorized dot engine; a CSR-like sparse form is
provided because reproducibility pressure is highest in sparse solvers
(nonzero orderings differ between formats and machines).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dot import dot_params, hp_dot_words
from repro.core.params import HPParams
from repro.core.scalar import to_double

__all__ = ["hp_matvec", "CSRMatrix", "hp_spmv"]


def _auto_params(max_a: float, max_x: float, min_a: float, min_x: float,
                 width: int) -> HPParams:
    return dot_params(
        max(max_a, 1e-300), max(max_x, 1e-300), max(width, 1),
        min_abs_x=max(min_a, 1e-300), min_abs_y=max(min_x, 1e-300),
    )


def hp_matvec(
    matrix: np.ndarray,
    x: np.ndarray,
    params: HPParams | None = None,
    method: str = "small",
) -> np.ndarray:
    """Exact ``matrix @ x`` with one correctly-rounded double per row.

    >>> import numpy as np
    >>> hp_matvec(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 0.5]))
    array([2., 5.])
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if matrix.ndim != 2 or x.ndim != 1 or matrix.shape[1] != x.shape[0]:
        raise ValueError(
            f"shape mismatch: matrix {matrix.shape} @ vector {x.shape}"
        )
    if params is None:
        nz_a = np.abs(matrix[matrix != 0.0])
        nz_x = np.abs(x[x != 0.0])
        params = _auto_params(
            float(nz_a.max()) if nz_a.size else 1.0,
            float(nz_x.max()) if nz_x.size else 1.0,
            float(nz_a.min()) if nz_a.size else 1.0,
            float(nz_x.min()) if nz_x.size else 1.0,
            matrix.shape[1],
        )
    out = np.empty(matrix.shape[0], dtype=np.float64)
    for i in range(matrix.shape[0]):
        out[i] = to_double(
            hp_dot_words(matrix[i], x, params, method=method), params
        )
    return out


@dataclass(frozen=True)
class CSRMatrix:
    """Minimal compressed-sparse-row matrix (values/indices/indptr)."""

    values: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.indptr) != self.shape[0] + 1:
            raise ValueError("indptr length must be rows + 1")
        if len(self.values) != len(self.indices):
            raise ValueError("values and indices must be equal length")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.values):
            raise ValueError("indptr must span the nonzero array")

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        dense = np.ascontiguousarray(dense, dtype=np.float64)
        mask = dense != 0.0
        indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        rows, cols = np.nonzero(mask)
        return cls(
            values=dense[rows, cols],
            indices=cols.astype(np.int64),
            indptr=indptr.astype(np.int64),
            shape=dense.shape,
        )

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.values[lo:hi], self.indices[lo:hi]

    def permuted_nonzeros(self, rng: np.random.Generator) -> "CSRMatrix":
        """Same matrix, nonzeros shuffled within each row — the storage
        nondeterminism that makes ordinary SpMV irreproducible."""
        values = self.values.copy()
        indices = self.indices.copy()
        for i in range(self.shape[0]):
            lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
            perm = rng.permutation(hi - lo)
            values[lo:hi] = values[lo:hi][perm]
            indices[lo:hi] = indices[lo:hi][perm]
        return CSRMatrix(values, indices, self.indptr, self.shape)


def hp_spmv(
    matrix: CSRMatrix,
    x: np.ndarray,
    params: HPParams | None = None,
    method: str = "small",
) -> np.ndarray:
    """Exact sparse matrix-vector product, invariant to nonzero order."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (matrix.shape[1],):
        raise ValueError(
            f"vector shape {x.shape} does not match matrix {matrix.shape}"
        )
    if params is None:
        nz_a = np.abs(matrix.values[matrix.values != 0.0])
        nz_x = np.abs(x[x != 0.0])
        params = _auto_params(
            float(nz_a.max()) if nz_a.size else 1.0,
            float(nz_x.max()) if nz_x.size else 1.0,
            float(nz_a.min()) if nz_a.size else 1.0,
            float(nz_x.min()) if nz_x.size else 1.0,
            matrix.shape[1],
        )
    out = np.empty(matrix.shape[0], dtype=np.float64)
    for i in range(matrix.shape[0]):
        vals, cols = matrix.row(i)
        out[i] = to_double(
            hp_dot_words(vals, x[cols], params, method=method), params
        )
    return out
