import numpy as np
import pytest

from dropcoil.jacobi import JacobiSolver
from dropcoil.profile import build_chart, solve_profile


@pytest.fixture(scope="session")
def prof03():
    return solve_profile(0.3)


@pytest.fixture(scope="session")
def chart03():
    return build_chart(0.3)


@pytest.fixture(scope="session")
def solver03(chart03):
    return JacobiSolver(chart03, kmax=16, m=256)


@pytest.fixture(scope="session")
def prof_cyl():
    return solve_profile(0.5)


def random_symmetric_modes(solver, kmax, rng, decay=1.0):
    """Random admissible field on the solver grid with smooth t-profiles."""
    E = solver.zero_field(kmax=kmax)
    for k in range(kmax + 1):
        coef = rng.standard_normal(8) * np.exp(-decay * np.arange(8))
        E.modes[k] = sum(c * np.cos(m * np.pi * solver.t / solver.tau)
                         for m, c in enumerate(coef))
    return E
