"""Numerics utilities: bounded least squares, ODE integration, root finding."""

import numpy as np
import pytest

from qroutesim.errors import BracketError, FitError
from qroutesim.fitting import FitReport, find_root, least_squares, ode_integrate


def expo(x, a, b):
    return a * np.exp(-b * x)


def test_least_squares_exact_model():
    x = np.linspace(0, 5, 20)
    y = expo(x, 2.0, 0.7)
    rep = least_squares(expo, x, y, init=[1.0, 1.0])
    assert rep.residual_rms < 1e-10
    assert rep.params == pytest.approx([2.0, 0.7], abs=1e-8)
    assert rep.converged and rep.active_bounds == () and rep.optimality < 1e-8


def test_least_squares_bounds_clamp():
    x = np.linspace(0, 4, 15)
    y = np.full_like(x, 1.15)  # trends above the allowed ceiling

    def const(x, c):
        return c * np.ones_like(x)

    rep = least_squares(const, x, y, init=[0.5], bounds=[(0.0, 1.0)])
    assert rep.params[0] == pytest.approx(1.0)
    assert rep.active_bounds == (0,)


def test_least_squares_reorder_invariance():
    rng = np.random.default_rng(4)
    x = np.linspace(0, 5, 30)
    y = expo(x, 1.5, 0.4) + rng.normal(scale=0.01, size=30)
    rep1 = least_squares(expo, x, y, init=[1, 1])
    perm = rng.permutation(30)
    rep2 = least_squares(expo, x[perm], y[perm], init=[1, 1])
    assert rep1.params == pytest.approx(rep2.params, abs=1e-9)


def test_least_squares_underdetermined():
    with pytest.raises(FitError):
        least_squares(expo, [1.0], [2.0], init=[1, 1])


def test_ode_exponential():
    y = ode_integrate(lambda t, y: -y, [1.0], 1.0)
    assert y[0] == pytest.approx(np.exp(-1), abs=1e-9)


def test_ode_matrix_argument_matches_expm():
    from scipy.linalg import expm

    rng = np.random.default_rng(9)
    A = -np.abs(rng.normal(size=(4, 4)))
    np.fill_diagonal(A, A.diagonal() - 2)
    y0 = np.abs(rng.normal(size=4))
    t = 1.7
    y = ode_integrate(A, y0, t)
    assert np.abs(y - expm(A * t) @ y0).max() < 1e-8


def test_ode_tolerance_convergence():
    A = np.array([[-1.0, 0.3], [0.2, -0.5]])
    tight = ode_integrate(A, [1, 0], 3.0, rtol=1e-12)
    loose = ode_integrate(A, [1, 0], 3.0, rtol=1e-6)
    from scipy.linalg import expm

    truth = expm(A * 3.0) @ [1, 0]
    assert np.abs(tight - truth).max() <= np.abs(loose - truth).max() + 1e-12


def test_find_root_basic():
    assert find_root(lambda x: x - 2, (0, 5)) == pytest.approx(2.0)


def test_find_root_edge():
    assert find_root(lambda x: x, (0.0, 1.0)) == pytest.approx(0.0)


def test_find_root_bracket_error():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1, (-1, 1))


def test_fit_report_shape():
    rep = least_squares(expo, np.linspace(0, 1, 5), expo(np.linspace(0, 1, 5), 1, 1), [1, 1])
    assert isinstance(rep, FitReport)
    assert rep.iterations > 0
