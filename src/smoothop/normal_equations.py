"""Stacked weighted normal equations in the Chebyshev basis.

The finite-p solvers of :mod:`smoothop.approx` and
:mod:`smoothop.interior_point` solve many weighted least-squares problems
at once, one per lane, each fitting the first n_k of N kept Chebyshev
columns.  This module holds what they share: the lane masks and the
identity padding of each lane's Gram matrix, the Gram matrices from
weighted Chebyshev product moments, their Cholesky factors inverted by
2 x 2 block recursion (the identity for a lane Cholesky rejects), their
application, and the compaction of the lanes that stay.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .approx import _Workspace


def _lane_mask(ns) -> np.ndarray:
    """Row k marks the first ns[k] of N = max(ns) kept Chebyshev coefficients."""
    ns = np.asarray(ns)
    return np.arange(ns.max()) < ns[:, None]


def _off_block(mask: np.ndarray) -> np.ndarray:
    """Row k marks the entries of an N x N matrix outside the leading block
    that row k of the lane mask keeps: the padding of :func:`_gram`."""
    return ~(mask[:, :, None] & mask[:, None, :])


def _gram(ws: _Workspace, w: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Stacked Gram matrices V^T diag(w_k) V from Chebyshev product moments.

    T_i T_j = (T_{i+j} + T_{|i-j|}) / 2, so with the moments
    m_k = sum_x w_k(x) T_k(x) of the workspace's `products`, entry (i, j)
    for the kept degrees d_i, d_j is (m_{d_i+d_j} + m_{|d_i-d_j|}) / 2: one
    (rows x grid) by (grid x 2N-1) product (2N when the odd degrees are
    kept) instead of one (grid x N) design per row.  Row k's matrix is that
    of the identity wherever row k of `off` (from :func:`_off_block`, built
    once per lane set) is set: its kept block padded with an identity block.
    """
    N = off.shape[1]
    m = w @ ws.products[:, : ws.sum_idx[N - 1, N - 1] + 1]
    G = np.take(m, ws.sum_idx[:N, :N], axis=1)
    G += np.take(m, ws.diff_idx[:N, :N], axis=1)
    G *= 0.5
    np.copyto(G, _identity(N), where=off)
    return G


@lru_cache(maxsize=8)
def _identity(N: int) -> np.ndarray:
    """The N x N identity of :func:`_gram`'s padding, built once per size."""
    eye = np.eye(N)
    eye.flags.writeable = False  # shared through the cache
    return eye


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular matrices, by 2 x 2 block recursion.

    For L = [[L11, 0], [L21, L22]] the inverse is [[X11, 0], [X21, X22]] with
    X11 = L11^{-1}, X22 = L22^{-1} and X21 = -X22 L21 X11.  The stack is
    padded with an identity block to a power of two, P.  Starting from the
    reciprocal diagonal, each of the log2 P levels doubles the block size b
    and fills the X21 blocks of the diagonal 2b x 2b blocks of every matrix;
    blocks wholly inside the padding are skipped, as their X21 is zero.  The
    first level's blocks are 1 x 1, so it is three elementwise products on
    strided views, each the one product its matmul would make; every later
    level is two batched matmuls.  Nothing above the diagonal is written, so
    the upper triangle is exactly zero.
    """
    K, N, _ = L.shape
    P = 1 << (N - 1).bit_length()
    if P > N:
        padded = np.zeros((K, P, P))
        padded[:, :N, :N] = L
        padded.reshape(K, P * P)[:, N * (P + 1) :: P + 1] = 1.0
        L = padded
    L = np.ascontiguousarray(L)  # its block views take the strides of X
    X = np.zeros((K, P, P))
    np.reciprocal(L.reshape(K, P * P)[:, :: P + 1], out=X.reshape(K, P * P)[:, :: P + 1])
    s0, s1, s2 = X.strides

    def diagonal_blocks(A: np.ndarray, size: int) -> np.ndarray:
        """Writable view of the size x size diagonal blocks of each matrix
        of A that reach into its first N rows."""
        shape = (K, -(-N // size), size, size)
        return np.ndarray(shape, A.dtype, A, 0, (s0, size * (s1 + s2), s1, s2))

    b = 1
    while b < P:
        Xb, Lb = diagonal_blocks(X, 2 * b), diagonal_blocks(L, 2 * b)
        if b == 1:
            np.negative(Xb[..., 1, 1] * (Lb[..., 1, 0] * Xb[..., 0, 0]), out=Xb[..., 1, 0])
        else:
            np.negative(Xb[..., b:, b:] @ (Lb[..., b:, :b] @ Xb[..., :b, :b]), out=Xb[..., b:, :b])
        b *= 2
    return X[:, :N, :N]


def _factor(G: np.ndarray) -> np.ndarray:
    """L^{-1} for the Cholesky factor L of each matrix of the stack G, from
    :func:`_tril_inverse`.  Raises LinAlgError when some matrix is not
    numerically positive definite."""
    return _tril_inverse(np.linalg.cholesky(G))


def _apply(L_inv: np.ndarray, rhs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """G^{-1} rhs for each lane, as L^{-T} L^{-1} rhs with L^{-1} from
    :func:`_factor`.  Lane k keeps the first n_k entries that row k of `mask`
    marks between the two triangular products, so a factor made at a larger
    degree serves through its leading block, and the result is zero beyond
    n_k."""
    y = (L_inv @ rhs[:, :, None])[:, :, 0] * mask
    return (L_inv.transpose(0, 2, 1) @ y[:, :, None])[:, :, 0]


def _factor_lanes(
    G: np.ndarray, mask: np.ndarray, shift: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_factor` of a stack of Gram matrices, one per lane, and the
    boolean mask of the lanes it factored.  If Cholesky rejects the stack
    and `shift` is not 0, each matrix's diagonal is raised by `shift` times
    its largest entry in the lane's kept block and the stack is factored
    once more; if that fails too, the lanes are factored one by one, and
    one that fails gets the identity and False in the mask."""
    ok = np.ones(len(G), dtype=bool)
    try:
        return _factor(G), ok
    except np.linalg.LinAlgError:
        pass
    K, N, _ = G.shape
    if shift:
        diag = G.reshape(K, N * N)[:, :: N + 1]
        diag += shift * np.max(diag * mask, axis=1, keepdims=True)
        try:
            return _factor(G), ok
        except np.linalg.LinAlgError:
            pass
    factors = np.empty_like(G)
    for k in range(K):
        try:
            factors[k] = _factor(G[k, None])[0]
        except np.linalg.LinAlgError:
            factors[k], ok[k] = _identity(N), False
    return factors, ok


def _keep_rows(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The rows `keep` of each array, moved to the front of the array's own
    buffer one by one and returned as views of it: a lane set that shrinks
    allocates nothing, and a lane that leaves is to be recorded first."""
    rows = np.flatnonzero(keep)
    for x in arrays:
        for i, k in enumerate(rows):  # k >= i: each row moves up or stays
            x[i] = x[k]
    return [x[: rows.size] for x in arrays]
