"""Active-subspace assembly and the unique dimensionless groups.

The matrix C is the weighted second moment of gradient samples of the
dimensionless relationship. Its eigenvectors, applied to the null-space
basis, give group exponents Z = W U that no longer depend on which null
basis was chosen (up to sign, when the eigenvalues are separated); the
eigenvalues rank the groups by how much the output responds to each.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dimension import normalize_column_signs
from .errors import ToolkitError
from .quadrature import QuadratureRule

_CHUNK_ROWS = 4096      # rows per step of the sum in assemble_C
EIGEN_GAP_RTOL = 1e-3   # below this gap the relevance ordering is ambiguous
DEGENERATE_FLAG = "degenerate eigenspace - groups not unique"


def assemble_C(rule: QuadratureRule, gradients) -> np.ndarray:
    """C = sum_j w_j g_j g_j^T over the N points of ``rule``, in index order.

    ``gradients`` is an iterable of (rows, n) blocks of gradient rows, in
    rule order, of any sizes. The rows are re-cut into ``_CHUNK_ROWS``
    chunks, a chunk joining the blocks it spans, and each chunk is summed
    with its weights, ``rule.weights(start, stop)``; the rule checked them
    when it was made. The reduction order is fixed by the chunk size alone,
    so how a route cuts its blocks changes no bit of C, and at most one
    chunk and one block are held at once. Each chunk is checked for
    finiteness before it is summed, and a failure names the global row; a
    stream of more or fewer than N rows is refused, naming both counts,
    once it ends. The lower triangle is mirrored at the end to make C
    exactly symmetric.
    """
    N, start, C = len(rule), 0, 0.0
    for chunk in _chunks(gradients, _CHUNK_ROWS):
        stop = start + len(chunk)
        if stop <= N:
            if not np.all(np.isfinite(chunk)):
                bad = start + int(np.argwhere(~np.isfinite(chunk))[0, 0])
                raise ToolkitError(f"gradient row {bad} contains a non-finite entry")
            C = C + chunk.T @ (rule.weights(start, stop)[:, None] * chunk)
        start = stop
    if start != N:
        raise ToolkitError(f"{start} gradient rows for {N} rule points")
    return np.tril(C) + np.tril(C, -1).T


def _chunks(blocks, size: int):
    """The rows of the (rows, n) ``blocks``, in order, as arrays of ``size``
    rows and a shorter last one: a slice of a block where one holds the
    chunk, else the pieces of the blocks it spans, joined."""
    held, count = [], 0
    for block in blocks:
        block = np.asarray(block, dtype=float)
        at = 0
        while at < len(block):
            piece = block[at:at + size - count]
            held.append(piece)
            count += len(piece)
            at += len(piece)
            if count == size:
                yield held[0] if len(held) == 1 else np.concatenate(held)
                held, count = [], 0
    if held:
        yield held[0] if len(held) == 1 else np.concatenate(held)


def _check_symmetric(C) -> np.ndarray:
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[0] != C.shape[1]:
        raise ToolkitError(f"matrix is {C.shape[0]} x {C.shape[1]}, expected square")
    if not np.all(np.isfinite(C)):
        i, j = np.argwhere(~np.isfinite(C))[0]
        raise ToolkitError(f"C[{i}, {j}] is {float(C[i, j])!r}; C must be finite")
    scale = max(1.0, float(np.max(np.abs(C))) if C.size else 1.0)
    if not float(np.max(np.abs(C - C.T))) <= 1e-10 * scale:
        raise ToolkitError("matrix is not symmetric to 1e-10")
    return C


def eigendecompose(C):
    """Eigenpairs of a symmetric PSD matrix, eigenvalues descending.

    Each eigenvector is unit length with its largest-magnitude component
    positive (ties broken by lowest index). Eigenvalues negative within
    round-off are clamped to zero; anything more negative raises, and so
    does a non-finite entry, which C gets from a NaN weight or overflows
    to from finite gradients above about 1e154.
    """
    C = _check_symmetric(C)
    lam, U = np.linalg.eigh(0.5 * (C + C.T))
    lam = lam[::-1].copy()
    U = U[:, ::-1]
    clamp = max(1e-12, 1e-12 * max(lam[0], 0.0))
    if lam[-1] < -clamp:
        raise ToolkitError(f"eigenvalue {lam[-1]:.6e} below -{clamp:.1e}; matrix is not PSD")
    np.clip(lam, 0.0, None, out=lam)
    return lam, normalize_column_signs(U)


def unique_groups(W, U, symbols):
    """Exponents Z = W U of the relevance-ordered groups, with descriptors.

    Column i of Z defines the group exp(z_i^T log q); the descriptor
    renders it as a product of powers with 3-decimal exponents.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if W.shape[1] != U.shape[0] or U.shape[0] != U.shape[1]:
        raise ToolkitError(f"W is {W.shape}, U is {U.shape}")
    n = W.shape[1]
    if len(symbols) != W.shape[0]:
        raise ToolkitError(f"{len(symbols)} symbols for {W.shape[0]} exponent rows")
    if not float(np.max(np.abs(W.T @ W - np.eye(n)))) <= 1e-8:
        raise ToolkitError("W must have orthonormal columns")
    if not float(np.max(np.abs(U.T @ U - np.eye(n)))) <= 1e-8:
        raise ToolkitError("U must be orthogonal")
    Z = W @ U
    descriptors = [group_descriptor(Z[:, j], symbols) for j in range(n)]
    return Z, descriptors


def group_descriptor(z, symbols) -> str:
    terms = [
        f"{sym}^{e:.3f}" for sym, e in zip(symbols, z) if abs(e) >= 5e-4
    ]
    return " * ".join(terms) if terms else "1"


def rotation_angle(U) -> float:
    """Rotation, in degrees, read off a 2x2 eigenvector matrix.

    Defined as the arccosine of the (1,1) entry.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape != (2, 2):
        raise ToolkitError(f"rotation angle needs a 2x2 matrix, got {U.shape}")
    if not float(np.max(np.abs(U.T @ U - np.eye(2)))) <= 1e-8:
        raise ToolkitError("U must be orthogonal")
    return float(np.degrees(np.arccos(np.clip(U[0, 0], -1.0, 1.0))))


def eigen_gap(eigenvalues) -> float | None:
    """Smallest consecutive gap, relative to the leading eigenvalue.

    A single eigenvalue has no gap: the result is None, and its one group
    is unique.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size < 2:
        return None
    if lam[0] <= 0.0:
        return 0.0
    return float(np.min(lam[:-1] - lam[1:]) / lam[0])


@dataclass(frozen=True)
class SubspaceResult:
    """Eigen-structure of C plus the unique-group exponents Z = W U.

    Eigenvalue j is entry j of the diagonal of U^T C U: the mean squared
    derivative of the relationship along group j, which is that group's
    derivative-based global sensitivity measure (the DGSM of Sobol' and
    Kucherenko). The groups are ranked by it.
    """

    C: np.ndarray
    eigenvalues: np.ndarray
    U: np.ndarray
    Z: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def result_to_csv(result: SubspaceResult, symbols, path) -> None:
    """Exponent table: one row per variable, one column per group, then
    an eigenvalue row; exponents carry 3 decimals."""
    Z = result.Z
    if len(symbols) != Z.shape[0]:
        raise ToolkitError(f"{len(symbols)} symbols for {Z.shape[0]} exponent rows")
    cols = ",".join(f"z_{j + 1}" for j in range(Z.shape[1]))
    lines = [f"variable,{cols}"]
    for sym, row in zip(symbols, Z):
        lines.append(sym + "," + ",".join(f"{v:.3f}" for v in row))
    lines.append("eigenvalue," + ",".join(f"{v:.2e}" for v in result.eigenvalues))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
