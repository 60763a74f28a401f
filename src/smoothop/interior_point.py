"""p = 1: weighted L1 best approximation as a linear program.

Mehrotra's predictor-corrector interior-point method, run in the lanes of
the lockstep driver of :mod:`smoothop.approx` from its shared L2 fit, with
a dual feasible lower bound as each lane's certificate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .normal_equations import _apply, _factor_lanes, _gram, _keep_rows, _off_block

if TYPE_CHECKING:
    from .approx import _Workspace

_GAP_TOL = 1e-12  # a lane leaves at duality gap <= this times ||f||
_NEAR_GAP = 100  # certify a lane once its gap may be within this many tolerances
_STALL = 1e-100  # a lane whose complementarity falls below this many tolerances stops
_STEP = 0.9995  # the share of the way to the boundary of the slacks a step takes
_GRAM_SHIFT = 1e-13  # the diagonal raise, relative, of a stack Cholesky rejects


def _interior_point(
    ws: _Workspace, lanes: np.ndarray, coef: np.ndarray, rho: np.ndarray, finish, max_iter: int
) -> None:
    """p = 1 from the shared L2 fit: Mehrotra's predictor-corrector
    interior-point method, the lanes in lockstep.

    `lanes` is the lane mask of :func:`_lane_mask`, coef the lanes' fits
    and rho = f - V coef their residuals; `finish(k, c, value, gap,
    iterations, flags)` records lane k as it leaves.

    With A = diag(w) V, b = w f and the rule's weights q, the lane of n
    columns solves the linear program min sum q (s + t) over A c + s - t = b,
    s, t >= 0, whose value is sum q |b - A c|, together with its dual
    max b^T u over A^T u = 0, |u| <= q.  It starts from the L2 fit c and its
    residual r = b - A c at s = max(r, 0) + max|r| / 10, t = s - r and u = 0.
    The dual slacks q - u and q + u are arrays of their own, and every
    slack is updated by a factor (s *= 1 + alpha ds / s), so none is found
    by cancellation and none leaves (0, inf).  Each iteration factors one
    stacked Gram A^T diag(D) A, D = 1 / (s / (q - u) + t / (q + u)), and
    applies the factor to the predictor's and the corrector's right-hand
    sides.  Besides the four slacks, each lane holds four grid-sized work
    arrays, the residual among them, allocated once and reused in place.

    Certificate: U is the grid norm of the lane's residual, and L = b^T u'
    for u' the current u projected onto A^T u' = 0 and scaled into the box
    |u'| <= q, a dual feasible point, so L <= E_n; less sum |c_k| |g_k| for
    the g = A^T u' that rounding leaves, with the lane's iterate c in place
    of the minimiser (see lower_bound).  The projection is
    u' = u - S A (A^T S A)^{-1} A^T u in the metric of the box slack
    S = min(q - u, q + u): it moves u least where u is near the box, and
    its Gram stays well conditioned where that of D, whose range grows as
    1 / mu^2, does not.  It costs a factorization of its own, so it is made
    only once U - b^T u, not yet a bound, or the complementarity sum
    s (q - u) + t (q + u) is within _NEAR_GAP tolerances: the latter where
    an inexact step has left A^T u far from 0.
    A lane leaves once U - L <= _GAP_TOL ||f||, reporting U - L as its gap.
    Each other way out is flagged and reports the gap of the lane's current
    iterate: `max_iterations` at max_iter steps, and
    `singular_normal_equations` when :func:`_factor_lanes` cannot factor the
    lane's Gram even with its diagonal raised, or when its complementarity
    sum s (q - u) + t (q + u) has fallen below _STALL tolerances while its
    gap has not: its Gram is then singular to working precision, and more
    steps would only drive the slacks toward underflow.
    """
    grid = ws.grid
    q, wgt = grid.qw, grid.wgt
    V = ws.vander[:, : lanes.shape[1]]
    b = wgt * ws.fx
    w2 = wgt * wgt
    tol = _GAP_TOL * ws.zero_error
    pairs = 2 * q.size  # complementary pairs per lane

    def dot(*xs: np.ndarray) -> np.ndarray:  # row-wise sums of products
        return np.einsum(",".join(["ij"] * len(xs)) + "->i", *xs)[:, None]

    def lower_bound(rows: np.ndarray, S, y, Ay) -> np.ndarray:
        """L of the given lanes, computed in the first len(rows) rows of the
        work arrays S, y and Ay; 0, itself a bound, for a lane whose Gram in
        the slack metric cannot be factored.  The projection leaves
        g = A^T u' at rounding level only if that Gram is well conditioned,
        and b^T u' <= E_n + c^T g for the minimiser c, so sum |c_k| |g_k|
        for the lane's iterate c is taken off: a projection that went wrong
        costs the bound instead of breaking it."""
        lower = np.zeros(len(rows))
        S, y, Ay = S[: len(rows)], y[: len(rows)], Ay[: len(rows)]
        np.take(zs, rows, axis=0, out=S)
        np.take(zt, rows, axis=0, out=Ay)
        np.subtract(Ay, S, out=y)
        y *= 0.5  # u
        np.minimum(S, Ay, out=S)
        np.multiply(S, w2, out=Ay)
        L_inv, ok = _factor_lanes(_gram(ws, Ay, off[rows]), mask[rows])
        if not ok.all():
            rows, L_inv, S, y, Ay = _keep_rows(ok, rows.copy(), L_inv, S, y, Ay)
        np.multiply(y, wgt, out=Ay)
        np.matmul(_apply(L_inv, Ay @ V, mask[rows]), V.T, out=Ay)
        Ay *= wgt
        Ay *= S
        y -= Ay
        np.abs(y, out=S)
        S /= q
        y /= np.maximum(np.max(S, axis=1, keepdims=True), 1.0)  # into the box
        np.multiply(y, wgt, out=S)
        slip = dot(np.abs(coef[rows]), np.abs(S @ V) * mask[rows])[:, 0]
        lower[ok] = y @ b - slip
        return lower

    def newton(h: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The direction dc for the right-hand side h, with
        du = D (h - A dc) written to `out`."""
        np.multiply(D, h, out=out)
        out *= wgt
        dc = _apply(L_inv, out @ V + Atu, mask)
        np.matmul(dc, V.T, out=out)
        out *= wgt
        np.subtract(h, out, out=out)
        out *= D
        return dc

    e = np.multiply(wgt, rho, out=rho)  # the residual b - A c
    s = np.maximum(e, 0.0)
    s += 0.1 * np.max(np.abs(e), axis=1, keepdims=True)
    t = s - e
    zs = np.tile(q, (len(lanes), 1))  # q - u
    zt = zs.copy()  # q + u
    work = np.empty((3,) + e.shape)
    lane = np.arange(len(lanes))
    mask, off = lanes.copy(), _off_block(lanes)
    for it in range(max_iter + 1):
        D, X, Y = work[:, : len(lane)]
        value = grid.norm(e)
        np.subtract(zt, zs, out=X)
        X *= 0.5  # u
        cheap = value - X @ b  # U - b^T u, no bound while A^T u != 0
        X *= wgt
        Atu = X @ V
        sz, tz = dot(s, zs), dot(t, zt)  # the complementarity, pairs times mu
        # a lane whose complementarity is far below the tolerance, its gap not,
        # can gain nothing more in double precision
        stalled = (sz + tz)[:, 0] <= _STALL * tol
        last = it == max_iter
        near = np.minimum(cheap, (sz + tz)[:, 0]) <= _NEAR_GAP * tol
        near = np.flatnonzero(near | stalled | last)
        gap = np.full(len(lane), math.inf)
        if near.size:
            gap[near] = value[near] - lower_bound(near, D, X, Y)
        done = gap <= tol
        leave = done | stalled | last
        stop = ("max_iterations",) if last else ("singular_normal_equations",)
        for k in np.flatnonzero(leave):
            finish(lane[k], coef[k], value[k], gap[k], it, () if done[k] else stop)
        if leave.all():
            return
        if leave.any():
            lane, coef, e, s, t, zs, zt, Atu, sz, tz, value, mask, off = _keep_rows(
                ~leave, lane, coef, e, s, t, zs, zt, Atu, sz, tz, value, mask, off
            )
            D, X, Y = work[:, : len(lane)]
        np.divide(s, zs, out=D)
        np.divide(t, zt, out=X)
        D += X
        np.reciprocal(D, out=D)
        np.multiply(D, w2, out=X)
        L_inv, ok = _factor_lanes(_gram(ws, X, off), mask, _GRAM_SHIFT)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            gaps = value[bad] - lower_bound(bad, *np.empty((3, bad.size, q.size)))
            for k, g in zip(bad, gaps):
                finish(lane[k], coef[k], value[k], g, it, ("singular_normal_equations",))
            if not ok.any():
                return
            lane, coef, e, s, t, zs, zt, D, Atu, sz, tz, mask, off, L_inv = _keep_rows(
                ok, lane, coef, e, s, t, zs, zt, D, Atu, sz, tz, mask, off, L_inv
            )
            X, Y = work[1:, : len(lane)]
        # predictor, the affine-scaling step du in X: ds / s = a - 1 and
        # dt / t = -1 - c for a = du / (q - u) and c = du / (q + u), each in Y
        newton(e, X)
        np.divide(X, zs, out=Y)
        a_lo, a_hi = Y.min(axis=1)[:, None], Y.max(axis=1)[:, None]
        s_du, s_du_a = dot(s, X), dot(s, X, Y)
        np.divide(X, zt, out=Y)
        c_lo, c_hi = Y.min(axis=1)[:, None], Y.max(axis=1)[:, None]
        t_du, t_du_c = dot(t, X), dot(t, X, Y)
        ap = 1.0 / (1.0 + np.maximum(-a_lo, c_hi))
        ad = 1.0 / np.maximum(np.maximum(a_hi, -c_lo), 1.0)
        # complementarity now and after the step, each product expanded in
        # a and c: (1 - ap + ap a) (1 - ad a) and (1 - ap - ap c) (1 + ad c)
        mu = (sz + tz) / pairs
        mu_aff = (
            (1.0 - ap) * (sz + tz)
            + (ap - (1.0 - ap) * ad) * (s_du - t_du)
            - ap * ad * (s_du_a + t_du_c)
        ) / pairs
        sm = (np.maximum(mu_aff, 0.0) / mu) ** 3 * mu  # sigma mu, Mehrotra's centring
        # corrector: h = e + sm / (q + u) - sm / (q - u) + s a (1 - a) + t c (1 + c)
        # in the buffer of e, each term built in Y from du
        np.subtract(zs, X, out=Y)
        Y *= X
        Y *= s
        Y /= zs
        Y /= zs
        e += Y
        np.add(zt, X, out=Y)
        Y *= X
        Y *= t
        Y /= zt
        Y /= zt
        e += Y
        np.divide(sm, zt, out=Y)
        e += Y
        np.divide(sm, zs, out=Y)
        e -= Y
        dc = newton(e, Y)  # Y = du; h and D are done with
        # ds / s = sm / (s (q - u)) - 1 - a (1 - a) + du / (q - u) in D, with e
        # for scratch; then dt / t = sm / (t (q + u)) - 1 + c (1 + c) - du / (q + u)
        # in e, with X = c and c^2; then du / (q + u) in X and du / (q - u) in Y
        rs, rt = D, e
        np.multiply(s, zs, out=rs)
        np.divide(sm, rs, out=rs)
        rs -= 1.0
        np.subtract(zs, X, out=e)
        e *= X
        e /= zs
        e /= zs
        rs -= e
        np.divide(Y, zs, out=e)
        rs += e
        np.multiply(t, zt, out=rt)
        np.divide(sm, rt, out=rt)
        rt -= 1.0
        X /= zt
        rt += X
        np.square(X, out=X)
        rt += X
        np.divide(Y, zt, out=X)
        rt -= X
        Y /= zs
        ap = _STEP / np.maximum(np.maximum(-rs.min(axis=1), -rt.min(axis=1)), _STEP)[:, None]
        ad = _STEP / np.maximum(np.maximum(Y.max(axis=1), -X.min(axis=1)), _STEP)[:, None]
        coef = coef + ap * dc
        rs *= ap
        rs += 1.0
        s *= rs
        rt *= ap
        rt += 1.0
        t *= rt
        Y *= -ad
        Y += 1.0
        zs *= Y
        X *= ad
        X += 1.0
        zt *= X
        np.matmul(coef, V.T, out=e)
        np.subtract(ws.fx, e, out=e)
        e *= wgt
