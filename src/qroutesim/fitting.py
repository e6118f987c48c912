"""Shared numerics: bounded least squares, root finding, ODE oracle.

Thin, deterministic wrappers over scipy with the package's error types.
Each wrapper imports its scipy piece on its own first call, so importing
this module (and with it any qroutesim subcommand) does not load scipy.
Only least_squares runs in production, for the F_RAT fit of ``rat`` and
``rat2``; find_root and ode_integrate serve the tests as independent
oracles (ode_integrate for the closed-form decay laws).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketError, FitError, IntegrationError


@dataclass(frozen=True)
class FitReport:
    params: np.ndarray
    residual_rms: float
    converged: bool
    iterations: int
    optimality: float  # scipy's first-order optimality, the measure trf compares with gtol
    active_bounds: tuple[int, ...]  # indices of the parameters that end on a bound


def least_squares(model, xdata, ydata, init, bounds=None) -> FitReport:
    """Fit ``model(x, *params)`` to data with box bounds.

    Deterministic given ``init``; raises FitError when the solver cannot
    produce a finite answer.
    """
    xdata = np.asarray(xdata, dtype=float)
    ydata = np.asarray(ydata, dtype=float)
    init = np.asarray(init, dtype=float)
    if ydata.size < init.size:
        raise FitError(f"{ydata.size} points cannot constrain {init.size} parameters")
    if bounds is None:
        lo, hi = -np.inf * np.ones_like(init), np.inf * np.ones_like(init)
    else:
        lo = np.asarray([b[0] for b in bounds], dtype=float)
        hi = np.asarray([b[1] for b in bounds], dtype=float)
    init = np.clip(init, lo, hi)

    def resid(p):
        return model(xdata, *p) - ydata

    from scipy import optimize

    try:
        res = optimize.least_squares(resid, init, bounds=(lo, hi), method="trf", xtol=1e-14,
                                     ftol=1e-14, gtol=1e-14, max_nfev=20000)
    except Exception as exc:  # singular Jacobian, nan residuals, ...
        raise FitError(str(exc)) from exc
    if not np.all(np.isfinite(res.x)):
        raise FitError("non-finite fit parameters")
    rms = float(np.sqrt(np.mean(res.fun**2)))
    return FitReport(res.x, rms, bool(res.status > 0), int(res.nfev), float(res.optimality),
                     tuple(int(i) for i in np.flatnonzero(res.active_mask)))


def ode_integrate(system, y0, t, rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """Integrate dy/dt = system(t, y) (or A·y for a matrix) to time t."""
    if isinstance(system, np.ndarray):
        mat = system

        def fun(_, y):
            return mat @ y

    else:
        fun = system
    from scipy.integrate import solve_ivp

    try:
        sol = solve_ivp(fun, (0.0, float(t)), np.asarray(y0, dtype=float),
                        method="DOP853", rtol=rtol, atol=atol)
    except Exception as exc:
        raise IntegrationError(str(exc)) from exc
    if not sol.success:
        raise IntegrationError(sol.message)
    return sol.y[:, -1]


def find_root(f, bracket, tol: float = 1e-12) -> float:
    """Brent root in [a, b]; endpoints must straddle a sign change."""
    a, b = bracket
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if np.sign(fa) == np.sign(fb):
        raise BracketError(f"f({a})={fa} and f({b})={fb} have the same sign")
    from scipy import optimize

    return float(optimize.brentq(f, a, b, xtol=tol))
