import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from smoothop import approx, get_test_function
from smoothop.approx import (
    _gram,
    _initial_reference,
    _lane_mask,
    _tril_inverse,
    _weighted_least_squares,
    _Workspace,
    best_approx,
    best_approx_sequence,
)
from smoothop.cli import main
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


def l1_lp(f, n, alpha, rule):
    """Discrete weighted L1 best approximation by linear programming, as an
    independent check on p = 1 IRLS.  Solved as the dual problem, whose
    value equals E_n: maximize sum_x b(x) y(x) over |y(x)| <= q(x) with
    A^T y = 0, where A = diag(w) V, b = w f and q are the rule's weights."""
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
        coef = _weighted_least_squares(ws, (grid.qw * grid.wgt**2)[None], mask)
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


class TestTrilInverse:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 16, 17, 32, 33, 64])
    def test_inverts_a_stack_of_factors(self, N):
        # three random Cholesky factors and that of a p = 1 IRLS Gram matrix,
        # in one stack; N that is no power of two is padded inside
        A = np.random.default_rng(N).standard_normal((3, N, 2 * N))
        irls = _gram(shifted_abs_workspace(N), p1_irls_weights(N)[None], _lane_mask([N]))
        L = np.linalg.cholesky(np.concatenate([A @ A.transpose(0, 2, 1), irls]))
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


def assert_lanes_match_svd_solve(ns, w):
    """Each lane of the stacked solve against an SVD-based solve of its own
    design diag(sqrt w_k) V[:, :n_k]; returns the largest cond of those."""
    ws = shifted_abs_workspace(max(ns))
    coef = _weighted_least_squares(ws, w, _lane_mask(ns))
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
        coef = _weighted_least_squares(ws, (s * s)[None], _lane_mask([32]))[0]
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

    def test_started_solve_matches_cold_solve(self):
        # the correction form of the first p = 1 IRLS step at n = 128: from the
        # p = 2 warm start and its residual, with the weights base / |e| that
        # residual gives, cond(A) = 2e5
        ws, mask = shifted_abs_workspace(128), _lane_mask([128])
        base = ws.grid.qw * ws.grid.wgt**2
        c0 = _weighted_least_squares(ws, base[None], mask)
        resid = ws.fx - c0 @ ws.vander.T
        w = base / np.maximum(np.abs(ws.grid.wgt * resid), approx._IRLS_RESIDUAL_FLOOR)
        assert np.linalg.cond(ws.vander * np.sqrt(w[0])[:, None]) >= 1e5
        started = _weighted_least_squares(ws, w, mask, (c0, resid))
        cold = _weighted_least_squares(ws, w, mask)
        # 4.0e-13 measured
        assert np.linalg.norm(started - cold) <= 1e-12 * np.linalg.norm(cold)


class TestExchange:
    def test_matches_linear_program(self):
        # same grid, same discrete problem, independent solver
        fs = {"abs": np.abs, "absshift": lambda x: np.abs(x - 0.25)}
        cases = [(name, n) for name in fs for n in (1, 2, 3, 5, 6)] + [("abs", 128)]
        grid = sup_grid(4097)
        for name, n in cases:
            lp = minimax_lp(fs[name], n, 1.0, grid)
            r = best_approx(fs[name], n, SPINF)
            assert_allclose(r.value, lp, rtol=1e-9, err_msg=f"{name}, n={n}")

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


class TestIRLS:
    def test_median_like_constant_for_abs(self):
        # reference from golden-section + 400k-point midpoint rule
        r = best_approx(np.abs, 1, SP1)
        assert r.solver == "irls"
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
        # p = 1, alpha = 1 at the CLI's default n = 64: the IRLS weights drive cond(A)
        # to about 5e5; p = 1.5 and p = 3 at n = 16 as in the benchmark's
        # sequences.  Each step, cold or started from the last iterate, is
        # checked against an SVD-based solve of the same design, and the run
        # driven by that solve gives the same E.
        solve = _weighted_least_squares
        for p, n_top in [(1.0, 64), (1.5, 16), (3.0, 16)]:
            deviations = []

            def svd_driven(ws, w, mask, start=None):
                coef = solve(ws, w, mask, start)
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

    @pytest.mark.parametrize("name", ["abs", "absshift"])
    def test_p1_matches_linear_program(self, name):
        # abs is solved on the even columns, absshift on all of them; a degree
        # that stops at the iteration limit may stay above the optimum
        f, rule = get_test_function(name), gauss_legendre(approx._GRID_IRLS)
        for r in best_approx_sequence(f, 16, WeightedSpace(1.0, 1.0)):
            lp = l1_lp(f, r.n, 1.0, rule)
            assert r.value >= lp * (1 - 1e-12), r.n
            assert r.value <= lp * (1 + 1e-9) or "max_iterations" in r.flags, r.n
            assert_allclose(r.value, lp, rtol=1e-6, err_msg=f"n={r.n}")

    def test_singular_normal_equations_flagged_not_raised(self):
        # at p = 6 the weights |e|^(p-2) span too many orders of magnitude
        # for Cholesky; the solver keeps its last iterate and says so
        sp = WeightedSpace(6.0, 1.0)
        r = best_approx(np.abs, 16, sp)
        assert r.flags == ("singular_normal_equations",)
        assert 0 < r.value < weighted_norm(np.abs, sp, 1025)


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


class TestParity:
    """An even or odd f is solved on the Chebyshev columns of its parity."""

    @pytest.mark.parametrize("name, first, step", [
        ("abs", 0, 2), ("x2", 0, 2), ("signabs32", 1, 2), ("absshift", 0, 1), ("randpoly", 0, 1),
    ])
    def test_kept_degrees(self, name, first, step):
        f = get_test_function(name)
        for p in (1.0, 2.0):
            ws = _Workspace(f, WeightedSpace(p, 1.0), 16)
            assert ws.degrees.tolist() == list(range(first, 16, step)), p
            full = np.polynomial.chebyshev.chebvander(ws.grid.x, 15)
            assert np.array_equal(ws.vander, full[:, ws.degrees])
        # the sup grid is not symmetric bit for bit: p = inf keeps every column
        assert _Workspace(f, SPINF, 16).degrees.tolist() == list(range(16))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", ["abs", "signabs32", "x2"])
    def test_matches_full_basis(self, name, p, monkeypatch):
        f, sp = get_test_function(name), WeightedSpace(p, 1.0)
        seq = best_approx_sequence(f, 16, sp)
        monkeypatch.setattr(approx, "_parity", lambda fx: None)
        full = best_approx_sequence(f, 16, sp)
        # x2 is reproduced from n = 3 on: both values are then roundoff
        atol = 1e-15 * weighted_norm(f, sp, approx._grid_size(sp))
        assert_allclose([r.value for r in seq], [r.value for r in full], rtol=1e-12, atol=atol)

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
        assert r.value == weighted_norm(f, sp, approx._grid_size(sp))
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
    grid = approx._grid_size(space)
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
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            sp = WeightedSpace(p, 1.0)
            base = best_approx_sequence(f, 16, sp)
            for c in (-3.7, 1e-9, 1e9):
                scaled = best_approx_sequence(lambda x: c * f(x), 16, sp)
                assert_allclose(
                    [r.value for r in scaled], [abs(c) * r.value for r in base],
                    rtol=1e-11, err_msg=f"p={p}, c={c}",
                )
                assert [r.flags for r in scaled] == [r.flags for r in base], f"p={p}, c={c}"

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
