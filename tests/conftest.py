import numpy as np
import pytest

from smoothop import approx


@pytest.fixture
def collapse_exchange_from(monkeypatch):
    """Make the sup-norm exchange solver fail from degree nu on.

    `collapse_exchange_from(nu)` wraps approx._solve_exchange so that every
    solve at n >= nu returns what a collapsed reference system leaves
    behind: a value far above ||f|| with huge coefficients.  No library
    input makes the exchange collapse, so the safeguards against it are
    tested through this fault.
    """

    def patch(nu):
        solve = approx._solve_exchange

        def collapsed(ws, n):
            r = solve(ws, n)
            if n >= nu:
                r.value = 1e10 * max(1.0, ws.zero_error)
                r.coefficients = np.full(n, 1e10)
            return r

        monkeypatch.setattr(approx, "_solve_exchange", collapsed)

    return patch
