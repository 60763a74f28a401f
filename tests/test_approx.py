import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from smoothop import approx, converse_table, get_test_function, interior_point
from smoothop.approx import (
    _initial_reference,
    _weighted_least_squares,
    _Workspace,
    best_approx,
    best_approx_sequence,
)
from smoothop.normal_equations import (
    _apply, _factor, _factor_lanes, _gram, _identity, _lane_mask, _off_block, _tril_inverse,
)
from smoothop.cli import main
from smoothop.modulus import modulus_curve
from smoothop.orthopoly import gauss_legendre
from smoothop.weighted_space import WeightedSpace, as_sampled, sup_grid, weighted_norm

INF = math.inf
SP2 = WeightedSpace(2.0, 1.0)
SPINF = WeightedSpace(INF, 1.0)
SP1 = WeightedSpace(1.0, 0.75)


def minimax_lp(f, n, alpha, grid):
    """Discrete weighted minimax via linear programming, as an independent
    check on the exchange solver.  Variables: Chebyshev coefficients and the
    level h; minimize h subject to |W (f - P)| <= h on the grid."""
    W = (1 - grid**2) ** alpha
    V = np.polynomial.chebyshev.chebvander(grid, n - 1)
    A = V * W[:, None]
    b = f(grid) * W
    m = grid.size
    # rows: +(b - A c) - h <= 0 and -(b - A c) - h <= 0
    A_ub = np.block([[-A, -np.ones((m, 1))], [A, -np.ones((m, 1))]])
    b_ub = np.concatenate([-b, b])
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    # dual simplex: the default interior-point path stops at ~1e-7 without
    # crossover, which is too loose to certify the exchange solver
    res = linprog(
        cost, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (n + 1),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return res.x[-1]


# The LP optimum and the solver's sums over 1025 nodes each carry their own
# roundoff (1.2e-15 ||f|| apart at most in the p = 1 runs to n = 64)
LP_ROUNDOFF = 1e-14


def l1_lp(f, n, alpha, rule):
    """Discrete weighted L1 best approximation by linear programming, as an
    independent check on the p = 1 interior-point solver.  Solved as the
    dual problem, whose value equals E_n: maximize sum_x b(x) y(x) over
    |y(x)| <= q(x) with A^T y = 0, where A = diag(w) V, b = w f and q are
    the rule's weights."""
    w = (1 - rule.nodes**2) ** alpha
    A = np.polynomial.chebyshev.chebvander(rule.nodes, n - 1) * w[:, None]
    res = linprog(
        -f(rule.nodes) * w, A_eq=A.T, b_eq=np.zeros(n),
        bounds=np.column_stack([-rule.weights, rule.weights]), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return -res.fun


class TestProjection:
    def test_linear_function_best_constant(self):
        r = best_approx(lambda x: x, 1, SP2)
        assert_allclose(r.value, math.sqrt(16 / 105), rtol=1e-8)
        assert r.solver == "projection"
        assert abs(r.coefficients[0]) < 1e-14  # odd function, zero constant

    def test_quadratic_projection_constant(self):
        r = best_approx(lambda x: x**2, 1, SP2)
        assert_allclose(r.coefficients[0], 1 / 7, rtol=1e-8)
        assert_allclose(r.value, math.sqrt(64 / 2205), rtol=1e-8)

    def test_residual_orthogonal_to_basis(self):
        r = best_approx(np.abs, 6, SP2)
        rule = gauss_legendre(256)
        xs, qw = rule.nodes, rule.weights
        resid = np.abs(xs) - r.polynomial()(xs)
        w2 = (1 - xs**2) ** (2 * SP2.alpha)
        for k in range(6):
            tk = np.polynomial.chebyshev.Chebyshev.basis(k)(xs)
            assert abs(np.sum(qw * w2 * resid * tk)) < 1e-9

    @pytest.mark.parametrize("name", ["abs", "absshift", "signabs32"])
    def test_is_the_lockstep_start_bit_for_bit(self, name):
        # p = 2 stops the finite-p driver after its shared L2 fit; restated here
        # from its parts, every result must match that fit bit for bit
        f = get_test_function(name)
        seq = best_approx_sequence(f, 64, SP2)
        ws = _Workspace(f, SP2, 64)
        grid = ws.grid
        counts = np.searchsorted(ws.degrees, np.arange(1, 65))
        sizes = sorted(set(counts.tolist()) - {0})
        mask = _lane_mask(sizes)
        V = ws.vander[:, : mask.shape[1]]
        coef = lsq(ws, (grid.qw * grid.wgt**2)[None], mask)
        e = grid.wgt * (ws.fx - coef @ V.T)
        value = grid.norm(e)
        gap = np.max(np.abs((e * (grid.qw * grid.wgt)) @ V) * mask, axis=1)
        for r, m in zip(seq, counts):
            assert (r.solver, r.flags) == ("projection", ()), r.n
            if not m:  # odd f at n = 1: no kept degree, the zero polynomial
                assert (r.value, r.iterations) == (ws.zero_error, 0)
                continue
            k = sizes.index(m)
            expected = np.zeros(r.n)
            expected[ws.degrees[:m]] = coef[k, :m]
            assert (r.value, r.residual_norm_gap, r.iterations) == (value[k], gap[k], 1), r.n
            assert np.array_equal(r.coefficients, expected), r.n

    def test_feasible_polynomial_gives_zero(self):
        f = np.polynomial.chebyshev.Chebyshev([0.3, -1.0, 0.25, 0.5])
        for sp in (SP2, SPINF, SP1):
            r = best_approx(f, 4, sp)
            assert r.value <= 1e-10


def lsq(ws, w, mask, start=None):
    """_weighted_least_squares with the factor of each weight row built
    here, padded as its lane, or as the top degree for a shared row."""
    factored = mask if len(w) == len(mask) else mask.any(axis=0, keepdims=True)
    return _weighted_least_squares(ws, w, mask, _factor(_gram(ws, w, _off_block(factored))), start)


def p1_irls_weights(n):
    """Weights of a p = 1 IRLS step for |x - 0.1| at n Chebyshev coefficients
    on the 1025-node grid, built as in
    test_matches_svd_solve_on_ill_conditioned_irls_design: the L2 residual,
    zeroed at every other sign change, drives cond(A) past 1e6 from n = 32 on."""
    rule = gauss_legendre(1025)
    xs, qw = rule.nodes, rule.weights
    wgt = 1 - xs**2
    fx = np.abs(xs - 0.1)
    V = np.polynomial.chebyshev.chebvander(xs, n - 1)
    s0 = np.sqrt(qw) * wgt
    c0, *_ = np.linalg.lstsq(V * s0[:, None], fx * s0, rcond=None)
    e = wgt * (fx - V @ c0)
    e[np.flatnonzero(np.sign(e[1:]) != np.sign(e[:-1]))[::2]] = 0.0
    return qw / np.maximum(np.abs(e), 1e-12) * wgt**2


def shifted_abs_workspace(n_top):
    return _Workspace(as_sampled(lambda x: np.abs(x - 0.1)), WeightedSpace(1.0, 1.0), n_top)


def tril_inverse_by_matmul(L):
    """_tril_inverse with every level, b = 1 included, made of two batched
    matmuls: the reference for its elementwise first level."""
    K, N, _ = L.shape
    P = 1 << (N - 1).bit_length()
    if P > N:
        padded = np.zeros((K, P, P))
        padded[:, :N, :N] = L
        padded.reshape(K, P * P)[:, N * (P + 1) :: P + 1] = 1.0
        L = padded
    L = np.ascontiguousarray(L)
    X = np.zeros((K, P, P))
    X.reshape(K, P * P)[:, :: P + 1] = 1.0 / np.diagonal(L, axis1=1, axis2=2)
    s0, s1, s2 = X.strides

    def diagonal_blocks(A, size):
        shape = (K, -(-N // size), size, size)
        return np.ndarray(shape, A.dtype, A, 0, (s0, size * (s1 + s2), s1, s2))

    b = 1
    while b < P:
        Xb, Lb = diagonal_blocks(X, 2 * b), diagonal_blocks(L, 2 * b)
        Xb[..., b:, :b] = -(Xb[..., b:, b:] @ (Lb[..., b:, :b] @ Xb[..., :b, :b]))
        b *= 2
    return X[:, :N, :N]


def irls_factor_stack(N):
    """Cholesky factors of three random Gram matrices and of a p = 1 IRLS
    Gram matrix, in one stack."""
    A = np.random.default_rng(N).standard_normal((3, N, 2 * N))
    ws = shifted_abs_workspace(N)
    irls = _gram(ws, p1_irls_weights(N)[None], _off_block(_lane_mask([N])))
    return np.linalg.cholesky(np.concatenate([A @ A.transpose(0, 2, 1), irls]))


class TestGram:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["abs", "signabs32", "absshift"]),
        st.lists(st.integers(1, 12), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    def test_kept_block_from_moments_identity_elsewhere(self, name, ns, seed):
        # lane k's kept block is (m_{d_i+d_j} + m_{|d_i-d_j|}) / 2 of its own
        # moments m = w_k^T products, and every other entry is the identity's,
        # bit for bit; the even and odd kept degrees index the even moments
        ws = _Workspace(get_test_function(name), SP1, 24)
        mask = _lane_mask(ns)
        N = mask.shape[1]
        w = np.random.default_rng(seed).random((len(ns), ws.fx.size))
        G = _gram(ws, w, _off_block(mask))
        m = w @ ws.products[:, : ws.sum_idx[N - 1, N - 1] + 1]  # the product _gram makes
        d = ws.degrees
        step = 2 if d[0] == 1 or d[1] == 2 else 1
        want = np.zeros_like(G)
        for k, n in enumerate(ns):
            for i in range(N):
                for j in range(N):
                    if i < n and j < n:
                        hi, lo = (d[i] + d[j]) // step, abs(d[i] - d[j]) // step
                        want[k, i, j] = (m[k, hi] + m[k, lo]) * 0.5
                    else:
                        want[k, i, j] = float(i == j)
        assert np.array_equal(G.view(np.uint64), want.view(np.uint64))


class TestTrilInverse:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 16, 17, 33, 64])
    def test_matches_matmul_reference_bit_for_bit(self, N):
        # the elementwise b = 1 level makes the same one product per entry
        L = irls_factor_stack(N)
        X, ref = _tril_inverse(L), tril_inverse_by_matmul(L)
        assert np.array_equal(X.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 16, 17, 32, 33, 64])
    def test_inverts_a_stack_of_factors(self, N):
        # three random Cholesky factors and that of a p = 1 IRLS Gram matrix,
        # in one stack; N that is no power of two is padded inside
        L = irls_factor_stack(N)
        X = _tril_inverse(L)
        cond = np.linalg.cond(L)  # cond(L) = cond(A) for G = A^T A = L L^T
        if N >= 32:
            assert cond[-1] >= 1e6
        assert np.all(np.triu(X, 1) == 0.0)
        residual = np.linalg.norm(X @ L - np.eye(N), 2, axis=(1, 2))
        assert np.all(residual <= 1e-13 * cond), residual / cond
        ref = np.linalg.inv(L)
        deviation = np.linalg.norm(X - ref, 2, axis=(1, 2)) / np.linalg.norm(ref, 2, axis=(1, 2))
        assert np.all(deviation <= 1e-12), deviation  # 3.6e-14 measured at N = 64


class TestFactorLanes:
    """`_factor_lanes` gives every lane a factor, one row per lane: the
    identity for a lane Cholesky rejects, which its mask marks False."""

    NS = [3, 5, 8]

    def gram_stack(self):
        ws = shifted_abs_workspace(max(self.NS))
        mask = _lane_mask(self.NS)
        w = np.random.default_rng(7).random((len(self.NS), ws.fx.size))
        return _gram(ws, w, _off_block(mask)), mask

    def test_stack_factored_at_once(self):
        G, mask = self.gram_stack()
        L_inv, ok = _factor_lanes(G.copy(), mask)
        assert ok.tolist() == [True] * 3
        assert np.array_equal(L_inv, _factor(G))

    def test_rejected_stack_factored_again_with_a_shift(self, monkeypatch):
        G, mask = self.gram_stack()
        cholesky, calls = np.linalg.cholesky, []

        def reject_first(A):
            calls.append(len(A))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("injected")
            return cholesky(A)

        shifted = G.copy()
        monkeypatch.setattr(np.linalg, "cholesky", reject_first)
        L_inv, ok = _factor_lanes(shifted, mask, 1e-13)
        monkeypatch.undo()
        assert calls == [3, 3] and ok.tolist() == [True] * 3
        diag = np.diagonal(G, axis1=1, axis2=2)
        raised = diag + 1e-13 * np.max(diag * mask, axis=1, keepdims=True)
        assert np.array_equal(np.diagonal(shifted, axis1=1, axis2=2), raised)
        assert np.array_equal(L_inv, _factor(shifted))

    @pytest.mark.parametrize("shift", [0.0, 1e-13])
    def test_rejected_lane_gets_the_identity(self, shift):
        # a negative pivot in the middle lane: no shift of 1e-13 mends it, so
        # the lanes are factored one by one and that one gets the identity
        G, mask = self.gram_stack()
        G[1, 0, 0] = -1.0
        L_inv, ok = _factor_lanes(G, mask, shift)
        assert ok.tolist() == [True, False, True]
        assert L_inv.shape == G.shape
        assert np.array_equal(L_inv[1], _identity(G.shape[-1]))
        for k in (0, 2):  # those of the stack as factored, shifted or not
            assert np.array_equal(L_inv[k], _factor(G[k, None])[0])


def assert_lanes_match_svd_solve(ns, w):
    """Each lane of the stacked solve against an SVD-based solve of its own
    design diag(sqrt w_k) V[:, :n_k]; returns the largest cond of those."""
    ws = shifted_abs_workspace(max(ns))
    coef = lsq(ws, w, _lane_mask(ns))
    conds = []
    for k, n in enumerate(ns):
        s = np.sqrt(w[min(k, len(w) - 1)])
        A = ws.vander[:, :n] * s[:, None]
        ref, *_ = np.linalg.lstsq(A, ws.fx * s, rcond=None)
        assert np.linalg.norm(coef[k, :n] - ref) <= 1e-10 * np.linalg.norm(ref), n
        assert not np.any(coef[k, n:]), n
        conds.append(np.linalg.cond(A))
    return max(conds)


class TestWeightedLeastSquares:
    def test_matches_svd_solve_on_ill_conditioned_irls_design(self):
        # An IRLS step at p = 1: weights 1/|e| with |e| floored, on the
        # 1025-node grid at Chebyshev degree 31.  The L2 residual is zeroed at
        # 16 of its sign changes, as a converged p = 1 residual vanishes at
        # interpolation nodes, so the floor drives cond(A) past 1e6.
        rule = gauss_legendre(1025)
        xs, qw = rule.nodes, rule.weights
        wgt = 1 - xs**2
        fx = np.abs(xs - 0.1)
        V = np.polynomial.chebyshev.chebvander(xs, 31)
        s0 = np.sqrt(qw) * wgt
        c0, *_ = np.linalg.lstsq(V * s0[:, None], fx * s0, rcond=None)
        e = wgt * (fx - V @ c0)
        sign_changes = np.flatnonzero(np.sign(e[1:]) != np.sign(e[:-1]))
        e[sign_changes[::2]] = 0.0
        s = np.sqrt(qw / np.maximum(np.abs(e), 1e-12)) * wgt
        A = V * s[:, None]
        assert np.linalg.cond(A) >= 1e6
        ref, *_ = np.linalg.lstsq(A, fx * s, rcond=None)
        ws = _Workspace(as_sampled(lambda x: np.abs(x - 0.1)), WeightedSpace(1.0, 1.0), 32)
        coef = lsq(ws, (s * s)[None], _lane_mask([32]))[0]
        assert np.linalg.norm(coef - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("N", [17, 32])
    def test_lanes_match_svd_solve(self, N):
        # the cold path with lanes n = 1..N, each with its own p = 1 weight
        # row; N = 17 pads the factor stack to 32
        ns = list(range(1, N + 1))
        cond = assert_lanes_match_svd_solve(ns, np.array([p1_irls_weights(n) for n in ns]))
        assert cond >= 1e5

    def test_shared_weight_row_matches_svd_solve(self):
        # the projection and warm-start path: one factor, made at N = 64,
        # serves lanes n = 1..64 through its leading blocks
        rule = gauss_legendre(1025)
        w = rule.weights * (1 - rule.nodes**2) ** 2
        assert_lanes_match_svd_solve(list(range(1, 65)), w[None])

    def test_factor_halves_match_svd_solve_on_interior_point_row(self, monkeypatch):
        # the Gram weights D w^2 of the p = 1 interior-point run for |x - 0.1|
        # at n = 128, the last rows of which reach cond(A) = 3.8e6: the bare
        # factor-and-apply solve the Newton steps use is within a small
        # multiple of eps cond(A)^2 (8.7 measured), and the refined cold
        # solve built from the same halves within 1e-9 (4.2e-10 measured)
        ws, mask = shifted_abs_workspace(128), _lane_mask([128])
        rows, gram = [], _gram

        def recorded(ws_, w, off):
            rows.append(w[0].copy())
            return gram(ws_, w, off)

        monkeypatch.setattr(interior_point, "_gram", recorded)
        best_approx(lambda x: np.abs(x - 0.1), 128, WeightedSpace(1.0, 1.0))
        monkeypatch.undo()
        designs = [ws.vander * np.sqrt(w)[:, None] for w in rows]
        conds = [np.linalg.cond(A) for A in designs]
        k = int(np.argmax(conds))
        w, A, cond = rows[k], designs[k], conds[k]
        assert cond >= 1e6
        ref, *_ = np.linalg.lstsq(A, ws.fx * np.sqrt(w), rcond=None)
        factor = _factor(_gram(ws, w[None], _off_block(mask)))
        plain = _apply(factor, ((w * ws.fx) @ ws.vander)[None], mask)[0]
        eps = np.finfo(float).eps
        assert np.linalg.norm(plain - ref) <= 100 * eps * cond**2 * np.linalg.norm(ref)
        refined = lsq(ws, w[None], mask)[0]
        assert np.linalg.norm(refined - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_started_solve_matches_cold_solve(self):
        # the correction form of the first p = 1 IRLS step at n = 128: from the
        # p = 2 warm start and its residual, with the weights base / |e| that
        # residual gives, cond(A) = 2e5
        ws, mask = shifted_abs_workspace(128), _lane_mask([128])
        base = ws.grid.qw * ws.grid.wgt**2
        c0 = lsq(ws, base[None], mask)
        resid = ws.fx - c0 @ ws.vander.T
        w = base / np.maximum(np.abs(ws.grid.wgt * resid), approx._IRLS_RESIDUAL_FLOOR)
        assert np.linalg.cond(ws.vander * np.sqrt(w[0])[:, None]) >= 1e5
        started = lsq(ws, w, mask, (c0, resid))
        cold = lsq(ws, w, mask)
        # 4.0e-13 measured
        assert np.linalg.norm(started - cold) <= 1e-12 * np.linalg.norm(cold)


def candidates_by_loop(e, ref):
    """approx._alternating_candidates as a plain loop: the peaks of |e| (each
    end sample compared with its one neighbour) and the reference, zeros
    dropped, the first largest |e| of each sign run kept."""
    mag = np.abs(e)
    local = {i for i in range(e.size) if mag[i] >= mag[max(i - 1, 0) : i + 2].max()}
    keep = []
    for i in sorted(local | set(ref.tolist())):
        if e[i] == 0:
            continue
        if keep and np.sign(e[i]) == np.sign(e[keep[-1]]):
            if mag[i] > mag[keep[-1]]:
                keep[-1] = i
        else:
            keep.append(i)
    return keep


class TestExchange:
    @pytest.mark.parametrize("e, expected", [
        # a tie inside a run goes to its first maximum; single-sample runs stay
        ([1, 2, 2, 0, -1, 3, 0, -2, 5, 5], [1, 4, 5, 7, 8]),
        # a zero between samples of one sign does not split their run
        ([1, 0, 3, -1], [2, 3]),
        ([0, 0, 0], []),
    ])
    def test_candidates_examples(self, e, expected):
        e = np.array(e, dtype=float)
        assert approx._alternating_candidates(e, np.arange(e.size)).tolist() == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_candidates_match_a_plain_loop(self, seed):
        # errors in {-3, ..., 3} hold exact zeros, ties inside runs and
        # single-sample runs; normal errors hold none of them
        rng = np.random.default_rng(seed)
        for e in (rng.integers(-3, 4, 80).astype(float), rng.standard_normal(80)):
            ref = np.sort(rng.choice(e.size, 9, replace=False))
            assert approx._alternating_candidates(e, ref).tolist() == candidates_by_loop(e, ref)

    def test_matches_linear_program(self):
        # same grid, same discrete problem, independent solver
        fs = {"abs": np.abs, "absshift": lambda x: np.abs(x - 0.25)}
        cases = [(name, n) for name in fs for n in (1, 2, 3, 5, 6)] + [("abs", 128)]
        grid = sup_grid(4097)
        for name, n in cases:
            lp = minimax_lp(fs[name], n, 1.0, grid)
            r = best_approx(fs[name], n, SPINF)
            assert_allclose(r.value, lp, rtol=1e-9, err_msg=f"{name}, n={n}")

    @pytest.mark.parametrize("f", [
        lambda x: 1 / (1 - x**2), lambda x: x / (1 - x**2), lambda x: (x - 0.25) / (1 - x**2),
    ], ids=["one", "x", "x-1/4"])
    def test_end_peaked_errors_are_certified(self, f):
        # the weighted f is 1, x or x - 1/4, so the weighted error of a low
        # degree peaks at a grid end; with interior peaks alone as candidates
        # every n <= 24 stopped flagged, up to 3.6e-5 relative above the LP optimum
        seq = best_approx_sequence(f, 24, SPINF)
        assert [(r.n, r.flags) for r in seq if r.flags] == []
        assert all(r.equioscillation for r in seq)
        grid = sup_grid(4097)
        for n in (1, 2, 3, 5, 8):
            assert_allclose(seq[n - 1].value, minimax_lp(f, n, 1.0, grid), rtol=1e-9, err_msg=n)

    def test_seed_is_n_plus_1_increasing_grid_indices(self):
        ws = _Workspace(as_sampled(np.abs), SPINF, 1)
        last = ws.grid.x.size - 1
        for n in range(1, last // 4 + 1):
            idx = _initial_reference(ws, n)
            assert idx.shape == (n + 1,), n
            assert 0 <= idx[0] and idx[-1] <= last, n
            # at least 3 apart, so no two seed points share a grid point
            assert np.diff(idx).min() >= 3, n

    @pytest.mark.parametrize("name, n_max", [
        ("abs", 128), ("absshift", 128), ("signabs32", 128),
        ("randpoly", 64), ("x", 64), ("one", 64),
    ])
    def test_sup_sequences_carry_no_flag(self, name, n_max):
        # seeded at Chebyshev points, the exchange certifies every degree
        seq = best_approx_sequence(get_test_function(name), n_max, SPINF)
        assert [(r.n, r.flags) for r in seq if r.flags] == []
        assert all(r.equioscillation for r in seq)

    def test_equioscillation_certificate(self):
        r = best_approx(np.abs, 5, SPINF)
        assert r.equioscillation is True
        assert r.residual_norm_gap <= 1e-9 * r.value + 1e-12
        assert not r.flags

    def test_even_function_degree_parity_plateau(self):
        r1 = best_approx(np.abs, 1, SPINF)
        r2 = best_approx(np.abs, 2, SPINF)
        assert_allclose(r1.value, r2.value, rtol=1e-9)

    def test_value_bounded_by_function_norm(self):
        for f in (np.abs, lambda x: np.sign(x) * np.abs(x) ** 1.5):
            r = best_approx(f, 1, SPINF)
            assert r.value <= weighted_norm(f, SPINF) + 1e-10


class TestExchangeExits:
    """Each exit the exchange keeps, reached by an injected fault, for |x|
    at n = 8, whose first reference does not level."""

    def test_singular_reference_falls_back_to_least_squares(self, monkeypatch):
        solve = np.linalg.solve

        def singular_once(A, b):
            monkeypatch.setattr(np.linalg, "solve", solve)  # the next solve succeeds
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        r = best_approx(np.abs, 8, SPINF)
        assert np.isfinite(r.value) and np.all(np.isfinite(r.coefficients))
        assert r.flags == ("degenerate_reference",)

    def test_too_few_candidates_collapse_the_reference(self, monkeypatch):
        candidates = approx._alternating_candidates

        def short(e, ref):  # n + 1 = ref.size; one candidate short from n = 4 on
            cand = candidates(e, ref)
            return cand[: ref.size - 1] if ref.size > 4 else cand

        monkeypatch.setattr(approx, "_alternating_candidates", short)
        r = best_approx(np.abs, 8, SPINF)
        assert "reference_collapse" in r.flags and r.equioscillation is False
        with pytest.raises(ValueError, match="nu = 4 is unusable"):
            converse_table(np.abs, [4, 8], SPINF)

    def test_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(approx, "_EXCHANGE_MAX_ITER", 1)
        r = best_approx(np.abs, 8, SPINF)
        assert (r.flags, r.iterations, r.equioscillation) == (("max_iterations",), 1, False)

    def test_unlevelled_stop_has_no_certificate(self, monkeypatch):
        # a level |h| of 10 max |f w| passes the gap test on the first reference
        solve = np.linalg.solve

        def inflated_level(A, b):
            sol = solve(A, b)
            sol[-1] = 10 * np.max(np.abs(b))
            return sol

        monkeypatch.setattr(np.linalg, "solve", inflated_level)
        r = best_approx(np.abs, 8, SPINF)
        assert (r.flags, r.iterations, r.equioscillation) == (("no_certificate",), 1, False)


class TestIRLS:
    def test_median_like_constant_for_abs(self):
        # reference from golden-section + 400k-point midpoint rule
        r = best_approx(np.abs, 1, SP1)
        assert r.solver == "interior_point"
        assert_allclose(r.value, 0.3085245805, atol=2e-4)

    def test_sequences_monotone(self):
        for f in (np.abs, lambda x: np.abs(x - 0.25)):
            seq = best_approx_sequence(f, 12, SP1)
            vals = [r.value for r in seq]
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
            assert not any("monotonicity_violation" in r.flags for r in seq)

    def test_general_p(self):
        sp = WeightedSpace(3.0, 1.0)
        r = best_approx(np.abs, 4, sp)
        assert r.solver == "irls"
        assert 0 < r.value < weighted_norm(np.abs, sp)

    def test_every_step_matches_svd_solve_at_degree_64(self, monkeypatch):
        # p = 1.5 and p = 3 at n = 16 as in the benchmark's sequences (p = 1 at
        # n = 64 is no IRLS run: its interior-point rows are checked in
        # TestWeightedLeastSquares).  Each step, cold or started from the last
        # iterate, is checked against an SVD-based solve of the same design,
        # and the run driven by that solve gives the same E.
        solve = _weighted_least_squares
        for p, n_top in [(1.5, 16), (3.0, 16)]:
            deviations = []

            def svd_driven(ws, w, mask, L_inv, start=None):
                coef = solve(ws, w, mask, L_inv, start)
                ref = np.zeros_like(coef)
                for k, lane in enumerate(mask):
                    n, s = int(lane.sum()), np.sqrt(w[min(k, len(w) - 1)])
                    A = ws.vander[:, :n] * s[:, None]
                    ref[k, :n], *_ = np.linalg.lstsq(A, ws.fx * s, rcond=None)
                    deviations.append(np.linalg.norm(coef[k] - ref[k]) / np.linalg.norm(ref[k]))
                return ref

            sp = WeightedSpace(p, 1.0)
            expected = best_approx(np.abs, n_top, sp)
            monkeypatch.setattr(approx, "_weighted_least_squares", svd_driven)
            r = best_approx(np.abs, n_top, sp)
            monkeypatch.undo()
            assert len(deviations) == r.iterations + 1, p
            assert max(deviations) <= 1e-10, p
            assert_allclose(expected.value, r.value, rtol=1e-10, err_msg=f"p={p}")

    @pytest.mark.parametrize("name", ["abs", "absshift", "signabs32"])
    def test_p1_matches_linear_program(self, name):
        # abs is solved on the even columns, signabs32 on the odd ones and
        # absshift on all of them; every degree is certified, and its value and
        # its lower bound value - gap bracket the LP optimum
        f, rule = get_test_function(name), gauss_legendre(approx._solver(SP1)[1])
        for alpha in (0.75, 1.0):
            sp = WeightedSpace(1.0, alpha)
            fnorm = weighted_norm(f, sp, approx._solver(sp)[1])
            for r in best_approx_sequence(f, 16, sp):
                lp = l1_lp(f, r.n, alpha, rule)
                assert r.flags == (), (alpha, r.n)
                assert r.value >= lp * (1 - 1e-12), (alpha, r.n)
                assert abs(r.value - lp) <= 1e-12 * fnorm, (alpha, r.n)
                assert r.value - r.residual_norm_gap <= lp + LP_ROUNDOFF * fnorm, (alpha, r.n)

    def test_singular_normal_equations_flagged_not_raised(self):
        # at p = 6 the weights |e|^(p-2) span too many orders of magnitude
        # for Cholesky; the solver keeps its last iterate and says so
        sp = WeightedSpace(6.0, 1.0)
        r = best_approx(np.abs, 16, sp)
        assert r.flags == ("singular_normal_equations",)
        assert 0 < r.value < weighted_norm(np.abs, sp, 1025)


class TestInteriorPoint:
    """p = 1: each lane's value U and lower bound U - gap bracket E_n."""

    @settings(max_examples=8, deadline=None)
    @given(
        st.floats(min_value=-0.5, max_value=0.5),
        st.sampled_from([0.75, 1.0]),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([-3.7, 1e-9, 1e9]),
    )
    def test_certified_and_scale_equivariant(self, c, alpha, n_max, k):
        # |x - c| is solved on the even columns at c = 0 and on all of them
        # otherwise; scipy's LP is the oracle
        def f(x):
            return np.abs(x - c)

        sp, rule = WeightedSpace(1.0, alpha), gauss_legendre(approx._solver(SP1)[1])
        fnorm = weighted_norm(f, sp, approx._solver(sp)[1])
        seq = best_approx_sequence(f, n_max, sp)
        for r in seq:
            lp = l1_lp(f, r.n, alpha, rule)
            assert r.flags == () and r.residual_norm_gap <= 1e-12 * fnorm, r.n
            assert r.value - r.residual_norm_gap <= lp + LP_ROUNDOFF * fnorm, r.n
            assert lp <= r.value + LP_ROUNDOFF * fnorm, r.n
        scaled = best_approx_sequence(lambda x: k * f(x), n_max, sp)
        assert_allclose([r.value for r in scaled], [abs(k) * r.value for r in seq], rtol=1e-11)
        assert all(r.flags == () for r in scaled)
        assert all(r.residual_norm_gap <= 1e-12 * abs(k) * fnorm for r in scaled)

    @staticmethod
    def kept_sizes(G):
        """The kept block size of each matrix of a padded Gram stack, shifted
        or not: its padding rows, last, have no entry off the diagonal."""
        N = G.shape[-1]
        bare = np.all(G * ~np.eye(N, dtype=bool) == 0, axis=2)
        return [1 if row.all() else N - int(np.argmin(row[::-1])) for row in bare]

    def test_rejected_stack_is_factored_again_with_a_shift(self, monkeypatch):
        # Cholesky rejects the first stack of several lanes; the shifted stack
        # then factors, and every lane still certifies
        f, sp = KINKS["absshift"], WeightedSpace(1.0, 1.0)
        expected = best_approx_sequence(f, 8, sp)
        cholesky, calls = np.linalg.cholesky, []

        def reject_once(G):
            calls.append(G.copy())
            if len(calls) == 3:  # the L2 fit, then the first interior-point stack
                assert G.shape[0] == 8
                raise np.linalg.LinAlgError("injected")
            return cholesky(G)

        monkeypatch.setattr(np.linalg, "cholesky", reject_once)
        seq = best_approx_sequence(f, 8, sp)
        monkeypatch.undo()
        rejected, shifted = calls[2], calls[3]
        N = rejected.shape[-1]
        raised = shifted - rejected
        # only the diagonal moves, by 1e-13 of each lane's largest kept entry
        assert not np.any(raised * ~np.eye(N, dtype=bool))
        # (the difference of the two stacks rounds at 1e-16 of the diagonal)
        diagonals = np.diagonal(raised, axis1=1, axis2=2)
        for G, d, n in zip(rejected, diagonals, self.kept_sizes(rejected)):
            assert_allclose(d, interior_point._GRAM_SHIFT * np.diagonal(G)[:n].max(), rtol=1e-2)
        assert [r.flags for r in seq] == [()] * 8
        assert_allclose([r.value for r in seq], [r.value for r in expected], rtol=1e-9)

    def test_lane_that_stays_singular_is_flagged_with_a_gap(self, monkeypatch):
        # every stack that holds the lane of 3 columns is rejected, shifted or
        # not: that lane leaves flagged with the gap of its iterate, and the
        # others, factored one by one at that iteration, still certify
        f, sp = KINKS["absshift"], WeightedSpace(1.0, 1.0)
        fnorm = weighted_norm(f, sp, approx._solver(sp)[1])
        cholesky = np.linalg.cholesky

        def reject_lane_3(G):
            if G.ndim == 3 and G.shape[-1] > 3 and 3 in self.kept_sizes(G):
                raise np.linalg.LinAlgError("injected")
            return cholesky(G)

        monkeypatch.setattr(np.linalg, "cholesky", reject_lane_3)
        seq = best_approx_sequence(f, 6, sp)
        monkeypatch.undo()
        rule = gauss_legendre(approx._solver(sp)[1])
        for r in seq:
            if r.n == 3:
                # no step was taken: the L2 fit, with a bound of 0 or better
                assert (r.flags, r.iterations) == (("singular_normal_equations",), 0)
                assert 0 <= r.value - r.residual_norm_gap <= l1_lp(f, 3, 1.0, rule)
            else:
                assert r.flags == () and r.residual_norm_gap <= 1e-12 * fnorm, r.n

    @pytest.mark.parametrize("name", ["absshift", "signabs32"])
    def test_certificates_past_convergence_stay_lower_bounds(self, name, monkeypatch):
        # with no certificate made before a lane stalls or reaches the limit,
        # the lanes run on well past convergence, where the Gram of the slack
        # metric turns ill conditioned (warnings are errors here); every gap
        # must still leave value - gap a lower bound, and an unflagged lane a
        # certified one
        f, sp = KINKS[name], WeightedSpace(1.0, 1.0)
        fnorm = weighted_norm(f, sp, approx._solver(sp)[1])
        rule = gauss_legendre(approx._solver(sp)[1])
        monkeypatch.setattr(interior_point, "_NEAR_GAP", -math.inf)
        seq = best_approx_sequence(f, 16, sp)
        assert any(r.flags for r in seq) and not all(r.flags for r in seq)
        for r in seq:
            lp = l1_lp(f, r.n, 1.0, rule)
            assert r.value - r.residual_norm_gap <= lp + LP_ROUNDOFF * fnorm, r.n
            assert lp <= r.value + LP_ROUNDOFF * fnorm, r.n
            assert r.flags or r.residual_norm_gap <= 1e-12 * fnorm, r.n

    def test_stalled_lane_is_flagged_with_its_gap(self, monkeypatch):
        # a stall threshold far above the tolerance stops every lane before
        # its certificate: each is flagged, with a gap that still brackets E_n
        f, sp = KINKS["absshift"], WeightedSpace(1.0, 1.0)
        fnorm = weighted_norm(f, sp, approx._solver(sp)[1])
        rule = gauss_legendre(approx._solver(sp)[1])
        monkeypatch.setattr(interior_point, "_STALL", 1e6)
        for r in best_approx_sequence(f, 4, sp):
            lp = l1_lp(f, r.n, 1.0, rule)
            assert r.flags == ("singular_normal_equations",), r.n
            assert 1e-12 * fnorm < r.residual_norm_gap < 1e-6 * fnorm, r.n
            assert r.value - r.residual_norm_gap <= lp + LP_ROUNDOFF * fnorm, r.n
            assert lp <= r.value + LP_ROUNDOFF * fnorm, r.n


KINKS = {
    "abs": np.abs,
    "absshift": lambda x: np.abs(x - 0.25),
    "signabs32": lambda x: np.sign(x) * np.abs(x) ** 1.5,
}


class TestLockstep:
    """best_approx_sequence solves all degrees together; each must equal
    the one-degree solve best_approx(f, n)."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("name", sorted(KINKS))
    def test_irls_lanes_match_one_degree_solves(self, name, p):
        f, sp = KINKS[name], WeightedSpace(p, 1.0)
        for r in best_approx_sequence(f, 16, sp):
            single = best_approx(f, r.n, sp)
            assert_allclose(r.value, single.value, rtol=1e-10, err_msg=f"n={r.n}")
            # monotonicity_violation is a flag of the sequence, not of the solve
            flags = tuple(flag for flag in r.flags if flag != "monotonicity_violation")
            assert flags == single.flags, f"n={r.n}"

    @pytest.mark.parametrize("name", sorted(KINKS))
    def test_projection_shared_factor_matches_fresh_factorization(self, name):
        f = KINKS[name]
        for r in best_approx_sequence(f, 64, SP2):
            single = best_approx(f, r.n, SP2)
            # 3e-14 measured; lane n reading past its n x n block of L^{-1} gives 3e-12
            assert_allclose(r.value, single.value, rtol=1e-12, err_msg=f"n={r.n}")
            assert_allclose(r.coefficients, single.coefficients, rtol=1e-8, atol=1e-12)

    def test_lanes_stop_on_their_own_at_p6(self):
        # the weights |e|^4 make some lanes' normal equations singular
        seq = best_approx_sequence(np.abs, 16, WeightedSpace(6.0, 1.0))
        stops = {"max_iterations", "singular_normal_equations"}
        for r in seq:
            stop = stops & set(r.flags)
            assert len(stop) <= 1, r.flags
            if "max_iterations" in stop:
                assert r.iterations == approx._IRLS_MAX_ITER
            else:  # converged or singular: stopped before the limit
                assert 1 <= r.iterations < approx._IRLS_MAX_ITER, (r.n, r.iterations)
        assert any("singular_normal_equations" in r.flags for r in seq)
        assert len({r.iterations for r in seq}) > 1

    @pytest.mark.parametrize("p", [200.0, 600.0])
    def test_non_finite_iterate_flagged_not_blamed_on_f(self, p):
        # the weights |e|^(p - 2) overflow and some lanes' next iterate turns
        # NaN: those lanes leave flagged with their last finite iterate, f is
        # not named, and nothing warns (RuntimeWarning is an error here)
        seq = best_approx_sequence(np.abs, 8, WeightedSpace(p, 1.0))
        assert any("non_finite_iterate" in r.flags for r in seq)
        for r in seq:
            assert np.isfinite(r.value) and np.all(np.isfinite(r.coefficients)), r.n
            stops = {"max_iterations", "singular_normal_equations", "non_finite_iterate"}
            assert len(stops & set(r.flags)) <= 1, r.flags

    def test_injected_non_finite_lane_keeps_its_last_iterate(self, monkeypatch):
        # the lane of 3 columns gets a NaN iterate at the second IRLS
        # iteration: it leaves with the first one, flagged, and the others go on
        f, sp = KINKS["absshift"], WeightedSpace(1.5, 1.0)
        expected = best_approx_sequence(f, 8, sp)
        solve, iterates = approx._weighted_least_squares, []

        def poisoned(ws, w, mask, L_inv, start=None):
            coef = solve(ws, w, mask, L_inv, start)
            iterates.append((mask.sum(axis=1), coef.copy()))
            if len(iterates) == 3:  # the L2 fit, then IRLS iterations 1 and 2
                coef[mask.sum(axis=1) == 3] = np.nan
            return coef

        monkeypatch.setattr(approx, "_weighted_least_squares", poisoned)
        seq = best_approx_sequence(f, 8, sp)
        monkeypatch.undo()
        sizes, first = iterates[1]
        last = first[sizes == 3][0, :3]
        ws = _Workspace(as_sampled(f), sp, 8)
        for r, e in zip(seq, expected):
            if r.n == 3:
                assert (r.flags, r.iterations) == (("non_finite_iterate",), 2)
                assert np.array_equal(r.coefficients, last)
                value = ws.grid.norm(ws.grid.wgt * (ws.fx - ws.vander[:, :3] @ last))
                assert_allclose(r.value, value, rtol=1e-14)
            else:
                assert r.flags == () == e.flags, r.n
                assert_allclose(r.value, e.value, rtol=1e-10, err_msg=f"n={r.n}")

    def test_injected_singular_lane_leaves_alone(self, monkeypatch):
        # every stack that holds the lane of 3 columns is rejected, as in
        # TestInteriorPoint: at p = 1.5 that lane leaves at the first IRLS
        # iteration with the L2 fit, and the others go on from the factors the
        # stack gave them, one Gram stack per iteration
        f, sp = KINKS["absshift"], WeightedSpace(1.5, 1.0)
        expected = best_approx_sequence(f, 8, sp)
        cholesky, gram, grams = np.linalg.cholesky, approx._gram, []

        def reject_lane_3(G):
            if G.ndim == 3 and G.shape[-1] > 3 and 3 in TestInteriorPoint.kept_sizes(G):
                raise np.linalg.LinAlgError("injected")
            return cholesky(G)

        def counted(ws, w, off):
            grams.append(len(w))
            return gram(ws, w, off)

        monkeypatch.setattr(np.linalg, "cholesky", reject_lane_3)
        monkeypatch.setattr(approx, "_gram", counted)
        seq = best_approx_sequence(f, 8, sp)
        monkeypatch.undo()
        ws = _Workspace(as_sampled(f), sp, 8)
        grid, mask = ws.grid, _lane_mask(range(1, 9))
        l2 = lsq(ws, (grid.qw * grid.wgt**2)[None], mask)[2, :3]
        l2_value = grid.norm(grid.wgt * (ws.fx - ws.vander[:, :3] @ l2))
        for r, e in zip(seq, expected):
            if r.n == 3:
                assert (r.flags, r.iterations) == (("singular_normal_equations",), 1)
                assert np.array_equal(r.coefficients, l2)
                assert_allclose(r.value, l2_value, rtol=1e-14)
            else:
                assert r.flags == () == e.flags, r.n
                assert_allclose(r.value, e.value, rtol=1e-10, err_msg=f"n={r.n}")
        # the shared L2 fit, then one stack of the active lanes per iteration
        last = max(r.iterations for r in seq)
        assert grams == [1] + [sum(r.iterations >= it for r in seq) for it in range(1, last + 1)]

    def test_injected_singular_and_non_finite_lanes_leave_at_one_iteration(self, monkeypatch):
        # at the second IRLS iteration Cholesky rejects the lane of 3 columns
        # (its stack is factored lane by lane, that lane taking the identity)
        # and the lane of 5 columns gets a NaN iterate: both leave at that
        # iteration, each with its own flag and its first iterate, and the
        # others go on
        f, sp = KINKS["absshift"], WeightedSpace(1.5, 1.0)
        expected = best_approx_sequence(f, 8, sp)
        cholesky, factor_lanes = np.linalg.cholesky, approx._factor_lanes
        solve, iterates, calls = approx._weighted_least_squares, [], []

        def reject_lane_3(G):
            if len(calls) == 2 and 3 in TestInteriorPoint.kept_sizes(G):
                raise np.linalg.LinAlgError("injected")
            return cholesky(G)

        def counted(G, mask):
            calls.append(mask.sum(axis=1).tolist())
            return factor_lanes(G, mask)

        def poisoned(ws, w, mask, L_inv, start=None):
            coef = solve(ws, w, mask, L_inv, start)
            iterates.append((mask.sum(axis=1), coef.copy()))
            if len(iterates) == 3:  # the L2 fit, then IRLS iterations 1 and 2
                assert 3 in mask.sum(axis=1)  # the rejected lane is solved too
                coef[mask.sum(axis=1) == 5] = np.nan
            return coef

        monkeypatch.setattr(np.linalg, "cholesky", reject_lane_3)
        monkeypatch.setattr(approx, "_factor_lanes", counted)
        monkeypatch.setattr(approx, "_weighted_least_squares", poisoned)
        seq = best_approx_sequence(f, 8, sp)
        monkeypatch.undo()
        assert calls[1] == list(range(1, 9)) and 3 not in calls[2] and 5 not in calls[2]
        (sizes, l2), (_, first) = iterates[:2]
        ws = _Workspace(as_sampled(f), sp, 8)

        def value(c):
            return ws.grid.norm(ws.grid.wgt * (ws.fx - ws.vander[:, : c.size] @ c))

        for r, e in zip(seq, expected):
            if r.n in (3, 5):
                flag = "singular_normal_equations" if r.n == 3 else "non_finite_iterate"
                assert (r.flags, r.iterations) == ((flag,), 2), r.n
                last = first[sizes == r.n][0, : r.n]
                assert np.array_equal(r.coefficients, last), r.n
                assert_allclose(r.value, value(last), rtol=1e-14, err_msg=f"n={r.n}")
                # and the gap of that iterate: the change of value it made
                change = abs(value(last) - value(l2[sizes == r.n][0, : r.n]))
                assert_allclose(r.residual_norm_gap, change, rtol=1e-8, err_msg=f"n={r.n}")
            else:
                assert r.flags == () == e.flags, r.n
                assert_allclose(r.value, e.value, rtol=1e-10, err_msg=f"n={r.n}")

    def test_p6_lanes_leave_with_their_own_masks(self, monkeypatch):
        # |x| at p = 6 to n = 32: the even columns give lanes of 1..16 kept
        # coefficients; some stop at the iteration limit, the others turn
        # singular at several iterations (5 to 13).  Every factorization must get the
        # masks of exactly the lanes still active, each Gram padded by its
        # own mask, and each lane's flags and iteration count must be those
        # its factorizations gave it: it leaves singular at the iteration
        # _factor_lanes rejects it, and only then.
        # (Lanes are not compared with one-degree solves: BLAS rounds a row
        # of a stacked product differently for other row counts, and p = 6
        # stops amplify that.)
        factor_lanes, log = approx._factor_lanes, []

        def logged(G, mask):
            off = _off_block(mask)
            assert np.array_equal(G[off], np.broadcast_to(np.eye(mask.shape[1]), G.shape)[off])
            L_inv, ok = factor_lanes(G, mask)
            log.append((mask.sum(axis=1).tolist(), ok.tolist()))
            return L_inv, ok

        monkeypatch.setattr(approx, "_factor_lanes", logged)
        seq = best_approx_sequence(np.abs, 32, WeightedSpace(6.0, 1.0))
        lanes = {(r.n + 1) // 2: r for r in seq}  # n = 2m - 1 and 2m keep m columns
        stop = {m: r.iterations for m, r in lanes.items()}
        singular = {m for m, r in lanes.items() if "singular_normal_equations" in r.flags}
        assert len({stop[m] for m in singular}) >= 3
        assert approx._IRLS_MAX_ITER in stop.values()
        for it in range(1, approx._IRLS_MAX_ITER + 1):
            active = [m for m in range(1, 17) if stop[m] >= it]
            if not active:
                break
            sizes, ok = log.pop(0)
            assert sizes == active, it
            rejected = [m for m, good in zip(active, ok) if not good]
            assert rejected == [m for m in active if stop[m] == it and m in singular], it
        assert log == []
        for m, r in lanes.items():
            flag = "max_iterations" if stop[m] == approx._IRLS_MAX_ITER else None
            flag = "singular_normal_equations" if m in singular else flag
            assert [f for f in r.flags if f in {"max_iterations", "singular_normal_equations"}] == (
                [flag] if flag else []
            ), m


class TestParity:
    """An even or odd f is solved on the Chebyshev columns of its parity."""

    @pytest.mark.parametrize("name, first, step", [
        ("abs", 0, 2), ("x2", 0, 2), ("signabs32", 1, 2), ("absshift", 0, 1), ("randpoly", 0, 1),
    ])
    def test_kept_degrees(self, name, first, step):
        f = get_test_function(name)
        for p in (1.0, 2.0):
            sp = WeightedSpace(p, 1.0)
            ws = _Workspace(f, sp, 16)
            assert ws.degrees.tolist() == list(range(first, 16, step)), p
            # an even or odd f is solved on the half grid x >= 0
            X = approx._solver(sp)[1]
            assert ws.grid.x.size == ((X + 1) // 2 if step == 2 else X), p
            assert ws.fx.size == ws.grid.x.size
            full = np.polynomial.chebyshev.chebvander(ws.grid.x, 15)
            assert np.array_equal(ws.vander, full[:, ws.degrees])
        # the sup grid is not symmetric bit for bit: p = inf keeps every column
        # and every point
        ws = _Workspace(f, SPINF, 16)
        assert ws.degrees.tolist() == list(range(16))
        assert ws.grid.x.size == 4097

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", ["abs", "signabs32", "x2"])
    def test_matches_full_basis(self, name, p, monkeypatch):
        # to n = 32 (64 at p = 2): abs at p = 1 is the CLI command of the
        # approx_lp benchmark
        f, sp = get_test_function(name), WeightedSpace(p, 1.0)
        n_max = 64 if p == 2 else 32
        seq = best_approx_sequence(f, n_max, sp)
        monkeypatch.setattr(approx, "_parity", lambda fx: None)
        full = best_approx_sequence(f, n_max, sp)  # every column on the full grid
        # x2 is reproduced from n = 3 on: both values are then roundoff
        atol = 1e-15 * weighted_norm(f, sp, approx._solver(sp)[1])
        assert_allclose([r.value for r in seq], [r.value for r in full], rtol=1e-12, atol=atol)
        assert [r.flags for r in seq] == [r.flags for r in full]
        # an odd f at n = 1 gets the zero polynomial without a solve
        first = 1 if name == "signabs32" else 0
        if p == 1:
            # the interior-point paths differ in their roundoff, and with it in
            # the iteration a lane's gap first meets the tolerance (16 against
            # 17-18 at n = 13-16 of abs): both must certify every degree
            tol = 1e-12 * weighted_norm(f, sp, approx._solver(sp)[1])
            assert all(r.residual_norm_gap <= tol for r in seq + full)
        else:
            assert [r.iterations for r in seq[first:]] == [r.iterations for r in full[first:]]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1024),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        st.sampled_from(["nan", "even_inf", "odd_inf"]),
    )
    def test_non_finite_sample_is_named(self, index, p, kind):
        # NaN at one node fails the parity test; +-inf at mirrored nodes
        # passes it, as an even or an odd f; both are rejected by name
        sp = WeightedSpace(p, 1.0)
        x = sp._grid(approx._solver(sp)[1]).x
        bad = x[index % x.size]

        def f(t):
            out = np.abs(t) if kind == "even_inf" else t.copy()
            if kind == "nan":
                out[t == bad] = np.nan
            else:
                mirrored = np.abs(t) == abs(bad)
                out[mirrored] = np.copysign(np.inf, out[mirrored])
            return out

        # an odd f needs f(0) = -f(0), which inf at x = 0 is not
        passes = kind == "even_inf" or (kind == "odd_inf" and bad != 0)
        assert (approx._parity(f(x)) is not None) == passes
        with pytest.raises(ValueError, match="non-finite") as err:
            best_approx_sequence(f, 4, sp)
        named = float(str(err.value).rsplit("x = ", 1)[1])
        assert not np.isfinite(f(np.array([named])))[0]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4096),
        st.sampled_from(["nan", "even_inf", "odd_inf"]),
    )
    def test_non_finite_sample_is_named_at_p_inf(self, index, kind):
        # the sup exchange and omega on the 4097-point sup grid (omega on the
        # smallest t grid, whose t = 0 row samples f at the grid itself); the
        # grid is not symmetric bit for bit, so the mirrored point is the one
        # at the mirrored index
        x = SPINF._grid(approx._solver(SPINF)[1]).x
        bad = x[[index, x.size - 1 - index]]

        def f(t):
            out = np.abs(t) if kind == "even_inf" else t.copy()
            if kind == "nan":
                out[t == bad[0]] = np.nan
            else:
                mirrored = np.isin(t, bad)
                out[mirrored] = np.copysign(np.inf, out[mirrored])
            return out

        for solve in (lambda: best_approx_sequence(f, 4, SPINF),
                      lambda: modulus_curve(f, [0.1, 0.2], SPINF, t_grid=3)):
            with pytest.raises(ValueError, match="non-finite") as err:
                solve()
            named = float(str(err.value).rsplit("x = ", 1)[1])
            assert not np.isfinite(f(np.array([named])))[0]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_plateaus_are_exact(self, p):
        sp = WeightedSpace(p, 1.0)
        even = best_approx_sequence(np.abs, 16, sp)
        odd = best_approx_sequence(KINKS["signabs32"], 16, sp)
        # E_{2k-1} == E_{2k} for even f, E_{2k} == E_{2k+1} for odd f
        assert all(even[i].value == even[i + 1].value for i in range(0, 16, 2))
        assert all(odd[i].value == odd[i + 1].value for i in range(1, 15, 2))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_odd_function_at_n1_is_the_zero_polynomial(self, p):
        f, sp = KINKS["signabs32"], WeightedSpace(p, 1.0)
        r = best_approx(f, 1, sp)
        assert r.value == weighted_norm(f, sp, approx._solver(sp)[1])
        assert (r.flags, r.iterations, r.coefficients.tolist()) == ((), 0, [0.0])


@pytest.mark.parametrize("name", ["randpoly", "one", "x"])
def test_no_value_above_the_zero_polynomial(name, collapse_exchange_from):
    # a collapsed exchange solve from nu = 30 on is replaced by the zero polynomial
    collapse_exchange_from(30)
    f = get_test_function(name)
    xs = sup_grid(4097)
    zero_error = float(np.max(np.abs((1 - xs**2) * f(xs))))
    seq = best_approx_sequence(f, 64, SPINF)
    for r in seq:
        assert r.value <= zero_error * (1 + 1e-9), (r.n, r.value, r.flags)
        if "exceeds_zero_polynomial" in r.flags:
            assert r.value == r.residual_norm_gap == zero_error
            assert not np.any(r.coefficients) and r.coefficients.size == r.n
    assert any("exceeds_zero_polynomial" in r.flags for r in seq)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_value_is_the_norm_of_the_space(p):
    """Every solver's E_n is weighted_norm of its error on the solver's grid."""
    space = WeightedSpace(p, 1.0)
    grid = approx._solver(space)[1]
    for name in ("abs", "absshift", "signabs32"):
        f = get_test_function(name)
        for r in best_approx_sequence(f, 16, space):
            norm = weighted_norm(lambda x: f(x) - r.polynomial()(x), space, grid)
            assert_allclose(r.value, norm, rtol=1e-12, err_msg=f"{name} n={r.n}")


class TestSequences:
    def test_zero_function(self):
        # f = 0 is its own best approximation: no solver iterates
        for p in (1.0, 2.0, 3.0, INF):
            for r in best_approx_sequence(lambda x: np.zeros_like(x), 4, WeightedSpace(p, 1.0)):
                assert (r.value, r.iterations, r.flags) == (0.0, 0, ()), p
                assert not np.any(r.coefficients) and r.coefficients.size == r.n

    def test_polynomial_tail_vanishes(self):
        f = np.polynomial.chebyshev.Chebyshev([0.1, 0.2, -0.4, 1.0])  # degree 3
        seq = best_approx_sequence(f, 6, SP2)
        assert all(seq[nu - 1].value <= 1e-10 for nu in (4, 5, 6))
        assert seq[0].value > 1e-3

    def test_abs_p2_sequence_decreases(self):
        seq = best_approx_sequence(np.abs, 32, SP2)
        vals = np.array([r.value for r in seq])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 1e-9)

    def test_scale_equivariance(self):
        # every solver tolerance is relative to ||f||, so E_n(c f) = |c| E_n(f)
        # with the same flags, however small or large c is
        f = get_test_function("absshift")
        for p in (1.0, 1.5, 2.0, 3.0, 4.0, INF):
            sp = WeightedSpace(p, 1.0)
            base = best_approx_sequence(f, 16, sp)
            for c in (-3.7, 1e-9, 1e9, 1e-150, 1e150):
                scaled = best_approx_sequence(lambda x: c * f(x), 16, sp)
                assert_allclose(
                    [r.value for r in scaled], [abs(c) * r.value for r in base],
                    rtol=1e-11, err_msg=f"p={p}, c={c}",
                )
                assert [r.flags for r in scaled] == [r.flags for r in base], f"p={p}, c={c}"

    @pytest.mark.parametrize("c", [1e-100, 1e100])
    def test_p6_finite_at_extreme_scales(self, c):
        # the IRLS weights |e|^4 are formed relative to ||f||, so they neither
        # overflow nor vanish; p = 6 does not converge, and its iterates move
        # with roundoff, so only finite values are asked for
        f = get_test_function("abs")
        seq = best_approx_sequence(lambda x: c * f(x), 8, WeightedSpace(6.0, 1.0))
        assert all(math.isfinite(r.value) and r.value <= c for r in seq)

    def test_csv_export_columns(self, capsys):
        assert main(["best-approx", "--function", "abs", "--p", "2", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "ν,E_ν,solver,iterations,gap"
        assert len(lines) == 4
        assert lines[1].split(",")[2] == "projection"

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            best_approx(np.abs, 0, SP2)
        with pytest.raises(ValueError, match="admissible"):
            best_approx(np.abs, 2, WeightedSpace(2.0, 0.3))
        with pytest.raises(ValueError):
            best_approx_sequence(np.abs, 0, SP2)


@pytest.mark.parametrize(
    "space, n", [(SP2, 65), (SP2, 300), (WeightedSpace(3.0, 1.0), 257), (SPINF, 1025)]
)
def test_degree_beyond_a_quarter_of_the_grid_rejected(space, n):
    with pytest.raises(ValueError, match=f"n = {n} exceeds"):
        best_approx(np.abs, n, space)
    with pytest.raises(ValueError, match=f"n = {n} exceeds"):
        best_approx_sequence(np.abs, n, space)


def _unsampled(x):
    raise AssertionError("f sampled before E_n's gate")


@pytest.mark.parametrize("p, quarter", [(1.5, 256), (2.0, 64), (INF, 1024)])
def test_degree_gate_runs_before_f_is_sampled(p, quarter):
    with pytest.raises(ValueError, match=f"n = {quarter + 1} exceeds {quarter}, a quarter"):
        best_approx_sequence(_unsampled, quarter + 1, WeightedSpace(p, 1.0))


@pytest.mark.parametrize("space", [WeightedSpace(2.0, 0.3), WeightedSpace(1.0, 0.5), WeightedSpace(INF, 1.5)])
def test_admissibility_gate_runs_before_f_is_sampled(space):
    with pytest.raises(ValueError, match="admissible"):
        best_approx(_unsampled, 2, space)
