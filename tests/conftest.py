import math

import pytest

from qbm import derive


@pytest.fixture
def p_over():
    """Overdamped benchmark: lambda1 = 0.8, lambda2 = 0.2, w = 0.6."""
    return derive(1.0, 1.0, 0.16, 1.0)


@pytest.fixture
def p_under():
    return derive(1.0, 0.5, 1.0, 1.0)


@pytest.fixture
def p_crit():
    return derive(1.0, 2.0, 1.0, 1.0)


@pytest.fixture
def pq_over():
    """Overdamped with hbar*beta = 1, so nu = 2*pi."""
    return derive(1.0, 1.0, 0.16, 1.0, hbar=1.0)


@pytest.fixture
def pq_under():
    return derive(1.0, 0.5, 1.0, 1.0, hbar=1.0)


@pytest.fixture
def pq_crit():
    return derive(1.0, 2.0, 1.0, 1.0, hbar=1.0)


@pytest.fixture
def pq_near_crit():
    """Overdamped with lambda1 - lambda2 = 1e-5 = 2e-5*gamma, just off
    critical damping."""
    return derive(1.0, 0.5, 0.0625 - 2.5e-11, 1.0, hbar=1.0)


@pytest.fixture
def pq_resonant():
    """Overdamped with nu = lambda1 = 0.8 exactly: mode 1 sits on a root, a
    pole of the closed form's digamma sum, and the mode kernel meets phi1(0)."""
    return derive(1.0, 1.0, 0.16, 0.8 / (2.0 * math.pi), hbar=1.0)
