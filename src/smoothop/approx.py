"""Best weighted polynomial approximation E_n(f).

E_n(f) is the infimum of ||f - P|| over algebraic polynomials P of degree
<= n - 1, in the weighted norm of :mod:`smoothop.weighted_space`.  The
infimum is replaced by minimization over a fixed discretization of the norm;
each solver reports its optimality gap rather than hiding it.

Solvers by norm family:

* p = inf: Remez-style exchange iteration on the weighted error over the
  4097-point sup grid, seeded at the n + 1 interior Chebyshev points, with
  an equioscillation certificate.  Each step
  solves the square (n + 1)-point reference system by LU, with a
  least-squares fallback for a singular reference.
* finite p: one lockstep least-squares driver.  The degrees of a sequence
  run as lanes and start from one shared weighted L2 fit, one factorization
  made at the top degree.  At p = 2 that fit is the exact discrete
  best approximation (the projection, on a 256-point Gauss-Legendre grid),
  and the driver stops there.  Any other p runs iteratively reweighted
  least squares (IRLS) from it on a 1025-point Gauss-Legendre grid: one
  stacked weighted least-squares solve per iteration for the lanes still
  active.  Each iteration solves in
  correction form: it adds G^{-1} V^T (w rho) to the lane's iterate c, with
  the residual rho = f - V c the lane already holds.  A lane leaves the
  stack when it converges, at the iteration limit, or when its normal
  equations are singular.  `best_approx(f, n)` is a sequence of one lane.

Every weighted least-squares solve goes through the normal equations.  The
Gram matrix V^T diag(w) V comes from the weighted Chebyshev moments
m_k = sum_x w(x) T_k(x), since T_i T_j = (T_{i+j} + T_{|i-j|}) / 2; it is
factored by Cholesky, the whole stack of factors is inverted by 2 x 2 block
recursion in batched matmuls (no LU), and the solution is refined on its
residual V^T (w (f - V c)) (fixed-precision iterative refinement): three
times after a plain solve from c = 0 (the shared L2 fit every finite p
starts from), once after an IRLS correction.  An IRLS iteration thus makes
five products with the grid-sized design: the Gram moments, V^T (w rho),
one refinement step (V c and V^T r), and the new residual V c.  n may not
exceed a quarter of the solver's grid, so that V itself has full rank.
The Gram matrix can still be numerically singular when the weights span too
many orders of magnitude, as IRLS weights do for p >= 6; Cholesky then
fails, and the IRLS lane stops with the flag `singular_normal_equations`
and keeps its last iterate.

Even and odd inputs (finite p).  The Gauss-Legendre grid, its weights and
(1 - x^2)^alpha are symmetric about 0 bit for bit.  When f's samples are
too, even or odd, reflecting x -> -x maps a best approximation to another
one, and their average, of f's parity, is no worse: E_n has a minimiser in
the even (odd) Chebyshev columns alone, and E_{2k-1} = E_{2k} for even f
(E_{2k} = E_{2k+1} for odd f) exactly.  The workspace then keeps only those
columns, and each distinct count of kept degrees below n is solved once;
an odd f at n = 1 has none and gets the zero polynomial.  Any other f keeps
every column.  p = inf is left out: the sup grid is not symmetric bit for
bit, and the even polynomials are no Haar system on [-1, 1], which the
exchange needs.

Scale.  Every absolute tolerance (the IRLS residual floor and stop test,
the exchange's stop, feasibility and levelling tests, the monotonicity
slack of a sequence) is relative to ||f|| on the solver's grid, the error
of the zero polynomial, so E_n(c f) equals |c| E_n(f) up to roundoff, with
the same flags, for any c != 0.  f = 0 on the grid returns the zero
polynomial unsolved.

A result whose value exceeds the error of the zero polynomial on the same
grid (up to roundoff) is no best approximation.  It is flagged
`exceeds_zero_polynomial`, keeps its other flags, and returns the zero
polynomial instead, with its error as both value and gap: zero
coefficients are always feasible.

Polynomial unknowns always live in the Chebyshev basis, which keeps the
design matrices well conditioned up to degree 64 and beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev as C

from .orthopoly import _check_int
from .weighted_space import SampledFunction, WeightedSpace, as_sampled

__all__ = [
    "BestApproxResult",
    "best_approx",
    "best_approx_sequence",
]

_GRID_P2 = 256
_GRID_IRLS = 1025
_GRID_SUP = 4097
_IRLS_MAX_ITER = 200
_IRLS_RESIDUAL_FLOOR = 1e-10  # times ||f|| on the grid
_EXCHANGE_MAX_ITER = 60
_REFINE_STEPS = 3
_LANE_BUDGET = 1 << 18  # entries of one lockstep Gram stack, lanes x N x N (2 MB)
_ROUNDOFF = 1e-9  # relative slack for comparisons between computed norms


@dataclass
class BestApproxResult:
    """One best-approximation value E_n(f) with its certificate data.

    `coefficients` hold the near-best polynomial of degree <= n - 1 in the
    Chebyshev basis.  `residual_norm_gap` is the solver's own optimality gap
    estimate; `equioscillation` is the exchange certificate (None for the
    other solvers).
    """

    n: int
    value: float
    coefficients: np.ndarray
    solver: str
    iterations: int
    residual_norm_gap: float
    equioscillation: bool | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"best approximation value must be >= 0, got {self.value}")

    def polynomial(self) -> C.Chebyshev:
        return C.Chebyshev(self.coefficients)


def _grid_size(space: WeightedSpace) -> int:
    if space.is_sup:
        return _GRID_SUP
    return _GRID_P2 if space.p == 2 else _GRID_IRLS


def _require_resolvable(n: int, space: WeightedSpace) -> None:
    """Reject degree bounds the solver's grid cannot resolve."""
    grid = _grid_size(space)
    if n > grid // 4:
        raise ValueError(
            f"degree bound n = {n} exceeds {grid // 4}, a quarter of the "
            f"{grid}-point grid of the p = {space.p} solver"
        )


def _parity(fx: np.ndarray) -> int | None:
    """0 if the samples fx on a grid symmetric about 0 are even bit for bit,
    1 if they are odd, None otherwise."""
    if np.array_equal(fx[::-1], fx):
        return 0
    if np.array_equal(fx[::-1], -fx):
        return 1
    return None


class _Workspace:
    """Grid data shared by every degree of one (f, space) problem: the
    space's norm grid and f sampled on it.

    `degrees` holds the Chebyshev degrees the solve uses and `vander` their
    columns on the grid.  For finite p it also keeps the moments matrix
    `products` of the even or all Chebyshev polynomials up to T_{2N-2}, and
    the index arrays into it of degrees d_i + d_j and |d_i - d_j|
    (i, j < N), from which :func:`_gram` builds Gram matrices.  The
    Gauss-Legendre grid, its weights and (1 - x^2)^alpha are symmetric
    about 0 bit for bit, so when f's samples are even (odd), only the even
    (odd) degrees are kept; otherwise every degree is.
    """

    def __init__(self, f: SampledFunction, space: WeightedSpace, n_top: int):
        self.space = space
        self.grid = grid = space._grid(_grid_size(space))
        self.fx = f(grid.x)
        # E_0, the error of the zero polynomial: an upper bound on every E_n
        # (the norm also rejects non-finite samples)
        self.zero_error = float(grid.norm(grid.wgt * self.fx))
        if space.is_sup:
            self.degrees = np.arange(n_top)
            self.vander = C.chebvander(grid.x, n_top - 1)
        else:
            parity = _parity(self.fx)
            first, step = (0, 1) if parity is None else (parity, 2)
            self.degrees = d = np.arange(first, n_top, step)
            full = C.chebvander(grid.x, 2 * n_top - 2)
            # chebvander is column-major, so the column views stay BLAS-ready
            self.vander = full[:, first:n_top:step]
            # T_{d_i} T_{d_j} of one parity has even degrees only
            self.products = full[:, ::step]
            self.sum_idx = (d[:, None] + d) // step
            self.diff_idx = np.abs(d[:, None] - d) // step


def _lane_mask(ns) -> np.ndarray:
    """Row k marks the first ns[k] of N = max(ns) kept Chebyshev coefficients."""
    ns = np.asarray(ns)
    return np.arange(ns.max()) < ns[:, None]


def _gram(ws: _Workspace, w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Stacked Gram matrices V^T diag(w_k) V from Chebyshev product moments.

    T_i T_j = (T_{i+j} + T_{|i-j|}) / 2, so with the moments
    m_k = sum_x w_k(x) T_k(x) of the workspace's `products`, entry (i, j)
    for the kept degrees d_i, d_j is (m_{d_i+d_j} + m_{|d_i-d_j|}) / 2: one
    (rows x grid) by (grid x 2N-1) product (2N when the odd degrees are
    kept) instead of one (grid x N) design per row.  Row k's matrix is cut
    to the coefficients mask[k] marks and padded with an identity block.
    """
    N = mask.shape[1]
    m = w @ ws.products[:, : ws.sum_idx[N - 1, N - 1] + 1]
    G = m[:, ws.sum_idx[:N, :N]]
    G += m[:, ws.diff_idx[:N, :N]]
    G *= 0.5
    np.copyto(G, 0.0, where=~(mask[:, :, None] & mask[:, None, :]))
    diag = np.arange(N)
    G[:, diag, diag] += ~mask
    return G


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular matrices, by 2 x 2 block recursion.

    For L = [[L11, 0], [L21, L22]] the inverse is [[X11, 0], [X21, X22]] with
    X11 = L11^{-1}, X22 = L22^{-1} and X21 = -X22 L21 X11.  The stack is
    padded with an identity block to a power of two, P.  Starting from the
    reciprocal diagonal, each of the log2 P levels doubles the block size b
    and fills the X21 blocks of the diagonal 2b x 2b blocks of every matrix
    with two batched matmuls on strided views; blocks wholly inside the
    padding are skipped, as their X21 is zero.  Nothing above the diagonal
    is written, so the upper triangle is exactly zero.
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
    X.reshape(K, P * P)[:, :: P + 1] = 1.0 / np.diagonal(L, axis1=1, axis2=2)
    s0, s1, s2 = X.strides

    def diagonal_blocks(A: np.ndarray, size: int) -> np.ndarray:
        """Writable view of the size x size diagonal blocks of each matrix
        of A that reach into its first N rows."""
        shape = (K, -(-N // size), size, size)
        return np.ndarray(shape, A.dtype, A, 0, (s0, size * (s1 + s2), s1, s2))

    b = 1
    while b < P:
        Xb, Lb = diagonal_blocks(X, 2 * b), diagonal_blocks(L, 2 * b)
        Xb[..., b:, :b] = -(Xb[..., b:, b:] @ (Lb[..., b:, :b] @ Xb[..., :b, :b]))
        b *= 2
    return X[:, :N, :N]


def _weighted_least_squares(
    ws: _Workspace,
    w: np.ndarray,
    mask: np.ndarray,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Minimize sum_x w_k(x) (f(x) - (V c_k)(x))^2 for every lane k at once.

    Lane k fits the first n_k Chebyshev coefficients that row k of `mask`
    marks (see :func:`_lane_mask`); the returned (lanes x N) coefficients
    are zero beyond n_k.  `w` holds one weight row per lane, or a single
    row that all lanes share.

    Each weight row's Gram matrix comes from :func:`_gram` and is factored
    as L L^T in one stacked Cholesky; G^{-1} is applied as L^{-T} L^{-1},
    with L^{-1} from :func:`_tril_inverse`.
    A shared row is factored once, at the top degree N: the leading n x n
    blocks of L and L^{-1} are the factor and its inverse for degree n, so
    lane n cuts L^{-1} r to its first n entries between the two triangular
    products.  A refinement step solves G d = V^T (w (f - V c)) for the
    current residual and adds d to c; A = diag(sqrt w) V is never formed.

    The cold path (no `start`), the L2 fit every finite p starts from,
    refines the plain solve from c = 0 _REFINE_STEPS times.  The moment
    Gram is less exact than A^T A, so three steps are taken: on a p = 1
    IRLS design with cond(A) >= 1e6 the refined c is within 3.5e-13
    relative of an SVD-based solve, and two steps leave 2.2e-10.
    `start` = (c, f - V c) holds an iterate per lane and its residual, as
    IRLS keeps them.  The solve is then in correction form:
    c + G^{-1} V^T (w (f - V c)) is a refinement step from c that needs no
    product to find its residual, and one more step follows.  The error left
    grows with the distance from c to the solution, so this path is for
    iterates near it; in IRLS runs to n = 128 each step stays within
    2.7e-10 relative of an SVD-based solve (README lists the figures).
    Raises LinAlgError when some Gram matrix is not numerically positive
    definite.
    """
    N = mask.shape[1]
    V = ws.vander[:, :N]
    factor_mask = mask if len(w) == len(mask) else mask.any(axis=0, keepdims=True)
    L_inv = _tril_inverse(np.linalg.cholesky(_gram(ws, w, factor_mask)))
    L_inv_T = L_inv.transpose(0, 2, 1)

    def apply(rhs: np.ndarray) -> np.ndarray:
        y = (L_inv @ rhs[:, :, None])[:, :, 0] * mask
        return (L_inv_T @ y[:, :, None])[:, :, 0]

    if start is None:
        coef = apply((w * ws.fx) @ V)  # the plain solve: from c = 0 the residual is f
        r = np.empty((len(mask), ws.fx.size))
        steps = _REFINE_STEPS
    else:
        coef, resid = start
        r = np.multiply(w, resid)
        coef = coef + apply(r @ V)
        steps = 1
    for _ in range(steps):
        np.matmul(coef, V.T, out=r)
        np.subtract(ws.fx, r, out=r)
        r *= w
        coef += apply(r @ V)
    return coef


def _solve_lockstep(ws: _Workspace, ns: list[int]) -> list[BestApproxResult]:
    """Weighted least squares for every finite p, the degrees ns as lanes.

    Every p starts from the weighted L2 fit: all lanes share one weight
    vector, so one factorization at the top degree serves every n.  At
    p = 2 that fit is the discrete best approximation, returned as solver
    `projection` with the gradient norm max |V^T (w r)| over the lane's
    columns as its gap.  Other p run IRLS from it in lockstep: each
    iteration makes one stacked weighted least-squares solve for the lanes
    still active.  A lane leaves the stack when its value settles, at
    _IRLS_MAX_ITER, or when Cholesky rejects its normal equations; it then
    keeps its last iterate and is flagged `singular_normal_equations`.
    Each n counts the kept Chebyshev columns a lane fits.
    """
    p = ws.space.p
    solver = "projection" if p == 2 else "irls"
    lanes = _lane_mask(ns)
    V = ws.vander[:, : lanes.shape[1]]
    grid = ws.grid
    base = grid.qw * grid.wgt**2
    results: list[BestApproxResult] = [None] * len(ns)  # type: ignore[list-item]

    def finish(k: int, it: int, flags: tuple[str, ...] = ()) -> None:
        """Record lane k of the current stack."""
        n = ns[lane[k]]
        results[lane[k]] = BestApproxResult(
            n, float(value[k]), coef[k, :n].copy(), solver, it, float(gap[k]), flags=flags
        )

    lane = np.arange(len(ns))  # the active lanes, in stack order
    # the weighted L2 fit: one weight vector, one factorization
    coef = _weighted_least_squares(ws, base[None], lanes)
    rho = coef @ V.T  # the residual f - V c of each lane
    np.subtract(ws.fx, rho, out=rho)
    e = grid.wgt * rho
    value = grid.norm(e)
    if p == 2:
        e *= grid.qw * grid.wgt  # now w rho
        gap = np.max(np.abs(e @ V) * lanes, axis=1)  # lane n's V^T (w rho) has n entries
        for k in range(len(ns)):
            finish(k, 1)
        return results
    gap = np.full(len(ns), math.inf)
    for it in range(1, _IRLS_MAX_ITER + 1):
        # residual magnitudes floored so the p-2 power cannot blow up near zeros;
        # e is recomputed below, so w takes its buffer
        w = np.abs(e, out=e)
        np.maximum(w, _IRLS_RESIDUAL_FLOOR * ws.zero_error, out=w)
        w **= p - 2.0
        w *= base
        try:
            new = _weighted_least_squares(ws, w, lanes[lane], (coef, rho))
        except np.linalg.LinAlgError:  # find the singular lanes one by one
            new, keep = coef.copy(), np.ones(len(lane), dtype=bool)
            for k in range(len(lane)):
                start = (coef[k, None], rho[k, None])
                try:
                    new[k] = _weighted_least_squares(ws, w[k, None], lanes[lane[k], None], start)[0]
                except np.linalg.LinAlgError:
                    keep[k] = False
                    finish(k, it, ("singular_normal_equations",))
            lane, value, gap, new = lane[keep], value[keep], gap[keep], new[keep]
            rho, w = rho[keep], w[keep]
        coef = new
        # rho and e are recomputed in the buffers of the old residual and of w
        np.matmul(coef, V.T, out=rho)
        np.subtract(ws.fx, rho, out=rho)
        e = np.multiply(grid.wgt, rho, out=w)
        new_value = grid.norm(e)
        gap = np.abs(new_value - value)
        value = new_value
        done = gap <= 1e-14 * ws.zero_error + 1e-13 * value
        if done.any():
            for k in np.flatnonzero(done):
                finish(k, it)
            lane, coef, rho, e = lane[~done], coef[~done], rho[~done], e[~done]
            value, gap = value[~done], gap[~done]
        if not lane.size:
            break
    for k in range(len(lane)):
        finish(k, _IRLS_MAX_ITER, ("max_iterations",))
    return results


def _initial_reference(ws: _Workspace, n: int) -> np.ndarray:
    """Ascending grid indices of the n + 1 Chebyshev points
    cos(pi (k + 1/2) / (n + 1)), k = 0..n: the exchange's seed.

    Relies on the grid being :func:`sup_grid` of X points, whose point i is
    -(1 - EDGE_EPS) cos(pi i / (X - 1)): the point at the angle nearest
    pi (k + 1/2) / (n + 1) has index rint((X - 1) (k + 1/2) / (n + 1)).  For
    1 <= n <= (X - 1) / 4 neighbouring indices are at least 3 apart.
    """
    return np.rint((ws.grid.x.size - 1) * (np.arange(n + 1) + 0.5) / (n + 1)).astype(int)


def _alternating_candidates(e: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Local extrema of the weighted error merged with the current reference,
    compressed to one strongest representative per sign run."""
    mag = np.abs(e)
    interior = np.flatnonzero(
        (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
    ) + 1
    cand = np.unique(np.concatenate([interior, ref]))
    signs = np.sign(e[cand])
    cand = cand[signs != 0]
    signs = np.sign(e[cand])
    keep = []
    run_start = 0
    for i in range(1, cand.size + 1):
        if i == cand.size or signs[i] != signs[run_start]:
            run = cand[run_start:i]
            keep.append(run[np.argmax(mag[run])])
            run_start = i
    return np.asarray(keep, dtype=int)


def _select_window(cand: np.ndarray, e: np.ndarray, n: int) -> np.ndarray:
    """Best window of n + 1 consecutive alternating candidates.

    Only windows containing the strongest candidate are considered (the
    exchange must absorb the global error maximum to make progress); among
    those the min |e| over the window is maximized.
    """
    if cand.size == n + 1:
        return cand
    mag = np.abs(e[cand])
    g = int(np.argmax(mag))
    lo = max(0, g - n)
    hi = min(g, cand.size - n - 1)
    scores = np.lib.stride_tricks.sliding_window_view(mag, n + 1)[lo : hi + 1].min(axis=1)
    best = lo + int(np.argmax(scores))  # ties go to the first window
    return cand[best : best + n + 1]


def _solve_exchange(ws: _Workspace, n: int) -> BestApproxResult:
    """Remez-style exchange on the weighted error over the sup grid."""
    V = ws.vander
    W = ws.grid.wgt
    F = ws.fx
    ref = _initial_reference(ws, n)
    flags: list[str] = []
    equi = False
    for iters in range(1, _EXCHANGE_MAX_ITER + 1):
        A = np.empty((n + 1, n + 1))
        A[:, :n] = V[ref, :n] * W[ref, None]
        A[:, n] = (-1.0) ** np.arange(n + 1)
        rhs = F[ref] * W[ref]
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            flags.append("degenerate_reference")
        coef, h = sol[:n], sol[n]
        e = (F - V[:, :n] @ coef) * W
        emax = float(ws.grid.norm(e))
        gap = emax - abs(h)
        if emax <= 1e-14 * ws.zero_error:
            equi = True  # f is feasible; the zero error trivially levels
            gap = 0.0
            break
        if gap <= 1e-12 * ws.zero_error + 1e-9 * emax:
            equi = True
            break
        cand = _alternating_candidates(e, ref)
        if cand.size < n + 1:
            flags.append("reference_collapse")
            break
        new_ref = _select_window(cand, e, n)
        if np.array_equal(new_ref, ref):
            flags.append("stalled_reference")
            break
        ref = new_ref
    else:
        flags.append("max_iterations")
    if equi:
        # alternation with |e| within 1e-6 ||f|| of the value on every reference point;
        # without the certificate the loop ended on one of its three stop flags
        e_ref = e[ref]
        leveled = bool(np.max(np.abs(np.abs(e_ref) - emax)) <= 1e-6 * ws.zero_error)
        alternating = bool(np.all(e_ref[1:] * e_ref[:-1] < 0)) or emax <= 1e-14 * ws.zero_error
        equi = leveled and alternating
        if not equi:
            flags.append("no_certificate")
    return BestApproxResult(
        n, emax, coef, "exchange", iters, max(gap, 0.0),
        equioscillation=equi, flags=tuple(flags),
    )


def _zero_polynomial(ws: _Workspace, n: int) -> BestApproxResult:
    """The zero polynomial as E_n: exact when f = 0 or no kept degree is
    below n."""
    space = ws.space
    solver = "exchange" if space.is_sup else "projection" if space.p == 2 else "irls"
    return BestApproxResult(
        n, ws.zero_error, np.zeros(n), solver, 0, 0.0,
        equioscillation=True if space.is_sup else None,
    )


def _solve(ws: _Workspace, ns: list[int]) -> list[BestApproxResult]:
    # each n fits the kept degrees below it, and each distinct count is solved
    # once; a count of 0, or f = 0 on the grid, leaves the zero polynomial
    counts = np.searchsorted(ws.degrees, ns) if ws.zero_error else np.zeros(len(ns), int)
    sizes = sorted(set(counts.tolist()) - {0})
    if ws.space.is_sup:
        solved = [_solve_exchange(ws, m) for m in sizes]
    else:
        step = max(1, _LANE_BUDGET // max(sizes, default=1) ** 2)  # lanes per stack
        solved = [
            r for i in range(0, len(sizes), step) for r in _solve_lockstep(ws, sizes[i : i + step])
        ]
    by_size = dict(zip(sizes, solved))
    results = []
    for n, m in zip(ns, counts):
        if m:
            coef = np.zeros(n)
            coef[ws.degrees[:m]] = by_size[m].coefficients
            results.append(replace(by_size[m], n=n, coefficients=coef))
        else:
            results.append(_zero_polynomial(ws, n))
    for r in results:
        # the zero polynomial is always feasible: return it, with the flags;
        # its gap is its value, as E_n >= 0 is the only lower bound left
        if r.value > ws.zero_error * (1 + _ROUNDOFF):
            r.flags = r.flags + ("exceeds_zero_polynomial",)
            r.value = r.residual_norm_gap = ws.zero_error
            r.coefficients = np.zeros(r.n)
    return results


def best_approx(f, n: int, space: WeightedSpace) -> BestApproxResult:
    """Best approximation E_n(f) by polynomials of degree <= n - 1.

    Raises ValueError for n < 1, for n above a quarter of the solver's grid
    (64 for p = 2, 256 for other finite p, 1024 for p = inf) or parameters
    outside the admissible region.  Solver non-convergence is reported
    through `flags` and the gap, not raised.
    """
    _check_int(n, "n", 1)
    space.require_admissible()
    _require_resolvable(n, space)
    ws = _Workspace(as_sampled(f), space, n)
    return _solve(ws, [n])[0]


def best_approx_sequence(f, n_max: int, space: WeightedSpace) -> list[BestApproxResult]:
    """E_1, ..., E_{n_max} on one shared grid, with the monotonicity check.

    Best approximation over a larger polynomial space cannot be worse, so
    E_{nu+1} <= E_nu + 1e-9 ||f|| (on the solver's grid) must hold; a
    violation flags the offending entry as a solver failure.  n_max obeys the same grid limit as in
    :func:`best_approx`.
    """
    _check_int(n_max, "n_max", 1)
    space.require_admissible()
    _require_resolvable(n_max, space)
    ws = _Workspace(as_sampled(f), space, n_max)
    results = _solve(ws, list(range(1, n_max + 1)))
    for i in range(1, len(results)):
        if results[i].value > results[i - 1].value + _ROUNDOFF * ws.zero_error:
            results[i].flags = results[i].flags + ("monotonicity_violation",)
    return results
