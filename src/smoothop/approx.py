"""Best weighted polynomial approximation E_n(f).

E_n(f) is the infimum of ||f - P|| over algebraic polynomials P of degree
<= n - 1, in the weighted norm of :mod:`smoothop.weighted_space`.  The
infimum is replaced by minimization over a fixed discretization of the norm;
each solver reports its optimality gap rather than hiding it.

Each norm family has one solver and one grid, both named by one table,
`_solver(space)`: the exchange on the sup grid at p = inf, the projection
at p = 2, the interior-point method at p = 1 and IRLS at any other p, the
last three on Gauss-Legendre grids (the p = 2 grid is the smallest).
`_Workspace` reads the table once and runs the gate of E_n before f is
sampled: the space must be admissible and n at most a quarter of the
grid's nodes, so that the Chebyshev design on the grid has full rank.

* p = inf: Remez-style exchange iteration on the weighted error over the
  sup grid, seeded at the n + 1 interior Chebyshev points, with
  an equioscillation certificate.  Each step
  solves the square (n + 1)-point reference system by LU, with a
  least-squares fallback for a singular reference.
* finite p: one lockstep driver.  The degrees of a sequence run as lanes and
  start from one shared weighted L2 fit, one factorization made at the top
  degree.  At p = 2 that fit is the exact discrete best approximation (the
  projection), and the driver stops there.  The other p run one stacked
  factorization per iteration for the lanes still active.  p = 1 is a linear
  program, solved by a primal-dual interior-point method (Mehrotra's
  predictor-corrector, about 20 iterations): a lane leaves when its duality
  gap, U minus a dual feasible lower bound, is at most 1e-12 ||f||.  Any
  other p runs iteratively reweighted least squares (IRLS) in correction
  form: each iteration adds G^{-1} V^T (w rho) to the lane's iterate c, with
  the residual rho = f - V c the lane already holds, and a lane leaves when
  its value settles.  Its weights are max(|e|, 1e-10)^(p-2) of the weighted
  residual e relative to ||f||, so they do not carry f's scale, and the
  power is taken as in the norm: by products and a square root when 2p is an
  integer.  Either way a lane also leaves at the iteration limit, or when
  its normal equations are singular; an IRLS lane also leaves when its next
  iterate is not finite (its weights overflow at large p), keeping the last
  finite one, and every reason leaves IRLS by the one exit of its iteration.
  `best_approx(f, n)` is a sequence of one lane.

Every weighted least-squares solve goes through the normal equations.  The
Gram matrix V^T diag(w) V comes from the weighted Chebyshev moments
m_k = sum_x w(x) T_k(x), since T_i T_j = (T_{i+j} + T_{|i-j|}) / 2; it is
factored by Cholesky, the whole stack of factors is inverted by 2 x 2 block
recursion (no LU), and the solution is refined on its residual
V^T (w (f - V c)) (fixed-precision iterative refinement): three times after
a plain solve from c = 0 (the shared L2 fit every finite p starts from),
once after an IRLS correction.  An IRLS iteration thus makes five products
with the grid-sized design: the Gram moments, V^T (w rho), one refinement
step (V c and V^T r), and the new residual V c.  The interior-point steps
apply their one factor, unrefined, to two right-hand sides.  The Gram matrix
can be numerically singular when the weights span too many orders of
magnitude, as IRLS weights do for p >= 6.  Both iterative solvers factor
each stack by `_factor_lanes`, lane by lane once Cholesky rejects the stack:
a lane it cannot factor gets the identity as its factor and leaves flagged
`singular_normal_equations` (IRLS solves it with the others and keeps its
last iterate), and the others go on with the factors the stack gave them.
An interior-point stack is first factored once more with its diagonals
raised by 1e-13 of their largest entry.

Even and odd inputs (finite p).  The Gauss-Legendre grid, its weights and
(1 - x^2)^alpha are symmetric about 0 bit for bit.  When f's samples are
too, even or odd, reflecting x -> -x maps a best approximation to another
one, and their average, of f's parity, is no worse: E_n has a minimiser in
the even (odd) Chebyshev columns alone, and E_{2k-1} = E_{2k} for even f
(E_{2k} = E_{2k+1} for odd f) exactly.  The workspace then keeps only those
columns, and each distinct count of kept degrees below n is solved once;
an odd f at n = 1 has none and gets the zero polynomial.  Within one parity
every sum the solve takes (the Gram moments, V^T (w rho), the norm) has an
even summand, so the solve runs on the half x >= 0 of the grid, with each
weight doubled but that of the node x = 0 of an odd-sized rule: (X + 1) / 2
of X nodes, X / 2 of the even-sized p = 2 rule.  Its sums equal the full
grid's up to the order of addition.  Any other f keeps every column and
every node.  p = inf is left out: its grid is symmetric bit for bit too,
but the even polynomials are no Haar system on [-1, 1], which the
exchange needs.

Scale.  Every absolute tolerance (the IRLS residual floor and stop test,
the interior-point gap tolerance, the exchange's stop test and its
certificate's levelling and feasibility clauses, the monotonicity slack of
a sequence) is relative to ||f|| on the solver's grid, the error of the
zero polynomial, so E_n(c f) equals |c| E_n(f) up to roundoff, with the
same flags, for any c != 0 (tested to c = 1e-150 and 1e150).  f = 0 on the
grid returns the zero polynomial unsolved.

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

from .interior_point import _interior_point
from .normal_equations import (
    _apply, _factor, _factor_lanes, _gram, _keep_rows, _lane_mask, _off_block,
)
from .orthopoly import _check_int
from .weighted_space import SampledFunction, WeightedSpace, _power, as_sampled

__all__ = [
    "BestApproxResult",
    "best_approx",
    "best_approx_sequence",
]

_IRLS_MAX_ITER = 200
_IRLS_RESIDUAL_FLOOR = 1e-10  # of the residual relative to ||f|| on the grid
_EXCHANGE_MAX_ITER = 60
_REFINE_STEPS = 3
_LANE_BUDGET = 1 << 18  # entries of one lockstep Gram stack, lanes x N x N (2 MB)
_IP_NODE_BUDGET = 1 << 14  # entries of one interior-point stack's arrays, lanes x nodes
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


def _solver(space: WeightedSpace) -> tuple[str, int]:
    """The E_n solver of the space's norm family and the nodes of its grid."""
    if space.is_sup:
        return "exchange", 4097
    if space.p == 2:
        return "projection", 256
    return ("interior_point" if space.p == 1 else "irls"), 1025


def _parity(fx: np.ndarray) -> int | None:
    """0 if the samples fx on a grid symmetric about 0 are even bit for bit,
    1 if they are odd, None otherwise."""
    if np.array_equal(fx[::-1], fx):
        return 0
    if np.array_equal(fx[::-1], -fx):
        return 1
    return None


class _Workspace:
    """Grid data shared by every degree of one (f, space) problem: the grid
    of the space's `solver`, both read from :func:`_solver` once E_n's gate
    has passed, and f sampled on it.

    `degrees` holds the Chebyshev degrees the solve uses and `vander` their
    columns on the grid.  For finite p it also keeps the moments matrix
    `products` of the even or all Chebyshev polynomials up to T_{2N-2}, and
    the index arrays into it of degrees d_i + d_j and |d_i - d_j|
    (i, j < N), from which :func:`_gram` builds Gram matrices.

    The Gauss-Legendre grid, its weights and (1 - x^2)^alpha are symmetric
    about 0 bit for bit.  When f's samples are even (odd), only the even
    (odd) degrees are kept, and the grid becomes its half x >= 0 with
    doubled weights (`_NormGrid.half`): within one parity every sum the
    solve takes, the Gram moments, V^T (w rho) and the norm, has an even
    summand.  Otherwise every degree and every node is kept.  `zero_error`
    is always taken on the full grid, where it is weighted_norm of f bit for
    bit.
    """

    def __init__(self, f: SampledFunction, space: WeightedSpace, n_top: int):
        # the E_n gate, before f is sampled: an admissible space, and a degree
        # bound its solver's grid resolves
        space.require_admissible()
        self.solver, nodes = _solver(space)
        if n_top > nodes // 4:
            raise ValueError(
                f"degree bound n = {n_top} exceeds {nodes // 4}, a quarter of the "
                f"{nodes}-point grid of the p = {space.p} solver"
            )
        self.space = space
        self.grid = grid = space._grid(nodes)
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
            if parity is not None:
                self.grid = grid = grid.half
                self.fx = self.fx[-grid.x.size :]
            self.degrees = d = np.arange(first, n_top, step)
            full = C.chebvander(grid.x, 2 * n_top - 2)
            # chebvander is column-major, so the column views stay BLAS-ready
            self.vander = full[:, first:n_top:step]
            # T_{d_i} T_{d_j} of one parity has even degrees only
            self.products = full[:, ::step]
            self.sum_idx = (d[:, None] + d) // step
            self.diff_idx = np.abs(d[:, None] - d) // step


def _weighted_least_squares(
    ws: _Workspace,
    w: np.ndarray,
    mask: np.ndarray,
    L_inv: np.ndarray,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Minimize sum_x w_k(x) (f(x) - (V c_k)(x))^2 for every lane k at once.

    Lane k fits the first n_k Chebyshev coefficients that row k of `mask`
    marks (see :func:`_lane_mask`); the returned (lanes x N) coefficients
    are zero beyond n_k.  `w` holds one weight row per lane, or a single
    row that all lanes share.  `L_inv` is the caller's :func:`_factor` of
    the :func:`_gram` stack of `w`, padded at the mask each weight row is
    factored at: its lane's, or for a shared row the top degree N's, which
    keeps every entry.  G^{-1} is applied as L^{-T} L^{-1}.
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
    """
    V = ws.vander[:, : mask.shape[1]]
    if start is None:
        coef = _apply(L_inv, (w * ws.fx) @ V, mask)  # the plain solve: from c = 0 the residual is f
        r = np.empty((len(mask), ws.fx.size))
        steps = _REFINE_STEPS
    else:
        coef, resid = start
        r = np.multiply(w, resid)
        coef = coef + _apply(L_inv, r @ V, mask)
        steps = 1
    for _ in range(steps):
        np.matmul(coef, V.T, out=r)
        np.subtract(ws.fx, r, out=r)
        r *= w
        coef += _apply(L_inv, r @ V, mask)
    return coef


def _solve_lockstep(ws: _Workspace, ns: list[int]) -> list[BestApproxResult]:
    """Every finite p, the degrees ns as lanes.

    Every p starts from the weighted L2 fit: all lanes share one weight
    vector, so one factorization at the top degree serves every n.  At
    p = 2 that fit is the discrete best approximation, returned as solver
    `projection` with the gradient norm max |V^T (w r)| over the lane's
    columns as its gap.  p = 1 runs the interior-point method of
    :func:`_interior_point` from it (solver `interior_point`), whose gap is
    U - L for a dual feasible point's L <= E_n.  Other p run IRLS from it
    in lockstep: each iteration makes one stacked weighted least-squares
    solve for every active lane, factored by :func:`_factor_lanes` (the
    identity for a lane Cholesky rejects), and has one exit, a `leave` mask:
    Cholesky rejected the lane (flagged `singular_normal_equations`) or its
    new iterate is not finite (`non_finite_iterate`), both keeping the last
    iterate, value and gap; its value settled (no flag); or the iteration is
    _IRLS_MAX_ITER (`max_iterations`).  The lane masks and their Gram
    padding (:func:`_off_block`) are built once, and one :func:`_keep_rows`
    call drops the rows of the lanes that leave.  Each n counts the kept
    Chebyshev columns a lane fits.
    """
    p = ws.space.p
    lanes = _lane_mask(ns)
    V = ws.vander[:, : lanes.shape[1]]
    grid = ws.grid
    base = grid.qw * grid.wgt**2
    results: list[BestApproxResult] = [None] * len(ns)  # type: ignore[list-item]

    def finish(i: int, c: np.ndarray, val: float, g: float, it: int, flags=()) -> None:
        """Record lane i of ns: its coefficients c, value, gap and iterations."""
        n = ns[i]
        results[i] = BestApproxResult(
            n, float(val), c[:n].copy(), ws.solver, it, float(g), flags=flags
        )

    # the weighted L2 fit: one weight vector, one factorization at the top
    # degree, whose mask is the union of the lanes'
    top = lanes.any(axis=0, keepdims=True)
    L_inv = _factor(_gram(ws, base[None], _off_block(top)))
    coef = _weighted_least_squares(ws, base[None], lanes, L_inv)
    rho = coef @ V.T  # the residual f - V c of each lane
    np.subtract(ws.fx, rho, out=rho)
    if p == 1:
        _interior_point(ws, lanes, coef, rho, finish, _IRLS_MAX_ITER)
        return results
    if p == 2:
        e = grid.wgt * rho
        value = grid.norm(e)
        e *= grid.qw * grid.wgt  # now w rho
        gap = np.max(np.abs(e @ V) * lanes, axis=1)  # lane n's V^T (w rho) has n entries
        for k in range(len(ns)):
            finish(k, coef[k], value[k], gap[k], 1)
        return results
    # IRLS runs on the weighted residual relative to ||f||, so that its
    # weights |e|^(p-2) and its values do not carry f's scale
    zf = ws.zero_error
    scaled_wgt = grid.wgt / zf
    e = scaled_wgt * rho
    value = grid.norm(e)
    lane = np.arange(len(ns))  # the active lanes, in stack order
    gap = np.full(len(ns), math.inf)
    mask, off = lanes.copy(), _off_block(lanes)  # those of the active lanes
    # weights that overflow at large p are caught by the checks on the factor
    # and the iterate, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, _IRLS_MAX_ITER + 1):
            # residual magnitudes floored so the p-2 power cannot blow up near zeros;
            # e is recomputed below, so w takes its buffer
            w = np.abs(e, out=e)
            np.maximum(w, _IRLS_RESIDUAL_FLOOR, out=w)
            _power(w, p - 2.0)
            w *= base
            L_inv, factored = _factor_lanes(_gram(ws, w, off), mask)
            new = _weighted_least_squares(ws, w, mask, L_inv, (coef, rho))
            del L_inv  # the factor stack is freed before the next one is made
            # a rejected or non-finite lane keeps its last iterate, value and gap
            finite = np.isfinite(new).all(axis=1)
            adopt = factored & finite
            np.copyto(coef, new, where=adopt[:, None])
            # rho and e are recomputed in the buffers of the old residual and of w
            np.matmul(coef, V.T, out=rho)
            np.subtract(ws.fx, rho, out=rho)
            e = np.multiply(scaled_wgt, rho, out=w)
            new_value = grid.norm(e)
            np.copyto(gap, np.abs(new_value - value), where=adopt)
            np.copyto(value, new_value, where=adopt)
            settled = gap <= 1e-14 + 1e-13 * value
            leave = ~adopt | settled | (it == _IRLS_MAX_ITER)
            gone = leave.nonzero()[0]  # cheaper than any() on a few lanes
            for k in gone:
                flags = (
                    ("singular_normal_equations",) if not factored[k]
                    else ("non_finite_iterate",) if not finite[k]
                    else () if settled[k] else ("max_iterations",)
                )
                finish(lane[k], coef[k], zf * value[k], zf * gap[k], it, flags)
            if gone.size == len(lane):
                break
            if gone.size:
                lane, coef, rho, e, value, gap, mask, off = _keep_rows(
                    ~leave, lane, coef, rho, e, value, gap, mask, off
                )
    return results


def _initial_reference(ws: _Workspace, n: int) -> np.ndarray:
    """Ascending grid indices of the n + 1 Chebyshev points
    cos(pi (k + 1/2) / (n + 1)), k = 0..n: the exchange's seed.

    Relies on the grid being :func:`sup_grid` of X points, whose point i is
    -(1 - EDGE_EPS) cos(pi i / (X - 1)) (to roundoff where it mirrors the
    lower half): the point at the angle nearest
    pi (k + 1/2) / (n + 1) has index rint((X - 1) (k + 1/2) / (n + 1)).  For
    1 <= n <= (X - 1) / 4 neighbouring indices are at least 3 apart.
    """
    return np.rint((ws.grid.x.size - 1) * (np.arange(n + 1) + 0.5) / (n + 1)).astype(int)


def _alternating_candidates(e: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Peaks of the weighted error merged with the current reference,
    compressed to one strongest representative per sign run.

    A peak is a sample with |e| at least that of each neighbour it has, the
    grid's two ends included, so the maximum of |e| is always a candidate.
    Samples where e = 0 are dropped; each run keeps its first largest |e|.
    """
    mag = np.abs(e)
    pad = np.pad(mag, 1, constant_values=-1.0)  # an end sample has one neighbour
    peaks = np.flatnonzero((mag >= pad[:-2]) & (mag >= pad[2:]))
    cand = np.unique(np.concatenate([peaks, ref]))
    signs = np.sign(e[cand])
    cand = cand[signs != 0]
    signs = signs[signs != 0]
    mag = mag[cand]
    starts = np.diff(signs, prepend=np.nan) != 0  # the first candidate and each sign change
    run = np.cumsum(starts) - 1  # the run of each candidate
    peak = np.maximum.reduceat(mag, np.flatnonzero(starts))[run]
    top = np.flatnonzero(~(mag < peak))  # each run's maxima (and a NaN, always a run of its own)
    return cand[top[np.diff(run[top], prepend=-1) != 0]]  # the first of each run


def _select_window(cand: np.ndarray, e: np.ndarray, n: int) -> np.ndarray:
    """Best window of n + 1 consecutive alternating candidates.

    Only windows containing the strongest candidate are considered (the
    exchange must absorb the global error maximum to make progress); among
    those the min |e| over the window is maximized.
    """
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
        # the one converged exit, which a feasible f (emax <= 1e-14 ||f||) takes too;
        # its certificate: alternation with |e| within 1e-6 ||f|| of the value on
        # every reference point
        if gap <= 1e-12 * ws.zero_error + 1e-9 * emax:
            e_ref = e[ref]
            leveled = bool(np.max(np.abs(np.abs(e_ref) - emax)) <= 1e-6 * ws.zero_error)
            alternating = bool(np.all(e_ref[1:] * e_ref[:-1] < 0)) or emax <= 1e-14 * ws.zero_error
            equi = leveled and alternating
            if not equi:
                flags.append("no_certificate")
            break
        cand = _alternating_candidates(e, ref)
        if cand.size < n + 1:
            flags.append("reference_collapse")
            break
        ref = _select_window(cand, e, n)
    else:
        flags.append("max_iterations")
    return BestApproxResult(
        n, emax, coef, "exchange", iters, max(gap, 0.0),
        equioscillation=equi, flags=tuple(flags),
    )


def _zero_polynomial(ws: _Workspace, n: int) -> BestApproxResult:
    """The zero polynomial as E_n: exact when f = 0 or no kept degree is
    below n."""
    return BestApproxResult(
        n, ws.zero_error, np.zeros(n), ws.solver, 0, 0.0,
        equioscillation=True if ws.space.is_sup else None,
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
        if ws.space.p == 1 and len(sizes) * ws.fx.size > _IP_NODE_BUDGET:
            # interior-point lanes hold eight grid-sized arrays, IRLS lanes four:
            # stacks of even size, none of whose arrays exceeds the budget
            stacks = max(-(-len(sizes) // step), -(-len(sizes) * ws.fx.size // _IP_NODE_BUDGET))
            step = -(-len(sizes) // stacks)
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
    ws = _Workspace(as_sampled(f), space, n_max)
    results = _solve(ws, list(range(1, n_max + 1)))
    for i in range(1, len(results)):
        if results[i].value > results[i - 1].value + _ROUNDOFF * ws.zero_error:
            results[i].flags = results[i].flags + ("monotonicity_violation",)
    return results
