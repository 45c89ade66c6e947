"""Shared fixtures: maps, verified towers, and stationary densities.

Everything heavy is session-scoped; towers are verified once and reused.
"""

from dataclasses import replace

import numpy as np
import pytest

import srblab as sl

ROOT2 = float(np.sqrt(2.0))


@pytest.fixture(scope="session")
def mutant():
    """``mutant(F, column, value)``: tower ``F`` with ``value`` as its first
    cell's entry of the cell-table ``column``."""
    def build(F, column, value):
        values = getattr(F.cells, column).copy()
        values[0] = value
        return sl.InducedMarkovMap(F.base, F.delta, replace(F.cells, **{column: values}),
                                   F.tau_max)
    return build


@pytest.fixture(scope="session")
def doubling_map():
    return sl.make_map("doubling")


@pytest.fixture(scope="session")
def tent2_map():
    return sl.make_map("tent", slope=2.0)


@pytest.fixture(scope="session")
def tent17_map():
    return sl.make_map("tent", slope=1.7)


@pytest.fixture(scope="session")
def quadratic_map():
    return sl.make_map("quadratic", a=2.0)


@pytest.fixture(scope="session")
def circle3_map():
    return sl.make_map("circle_linear", d=3)


@pytest.fixture(scope="session")
def viana_map():
    return sl.make_map("viana", alpha=0.01, d=16)


@pytest.fixture(scope="session")
def tower_doubling12(doubling_map):
    F = sl.first_return_map(doubling_map, sl.Interval(0.0, 0.5), 12)
    sl.verify_axioms(F)
    return F


@pytest.fixture(scope="session")
def tower_doubling20(doubling_map):
    F = sl.first_return_map(doubling_map, sl.Interval(0.0, 0.5), 20)
    sl.verify_axioms(F)
    return F


@pytest.fixture(scope="session")
def tower_tent2(tent2_map):
    F = sl.first_return_map(tent2_map, sl.Interval(0.0, 0.5), tau_max=20)
    sl.verify_axioms(F)
    return F


@pytest.fixture(scope="session")
def tower_tent17(tent17_map):
    F = sl.first_return_map(tent17_map, sl.Interval(0.0, 0.5), tau_max=14)
    sl.verify_axioms(F)
    return F


@pytest.fixture(scope="session")
def tower_quadratic(quadratic_map):
    F = sl.first_return_map(quadratic_map, sl.Interval(0.0, ROOT2), tau_max=12)
    sl.verify_axioms(F)
    return F


@pytest.fixture(scope="session")
def tower_circle3(circle3_map):
    F = sl.first_return_map(circle3_map, circle3_map.domain, 1)
    sl.verify_axioms(F)
    return F


@pytest.fixture(scope="session")
def mu_doubling12(tower_doubling12):
    return sl.stationary_density(sl.ulam_matrix(tower_doubling12, 4096))


@pytest.fixture(scope="session")
def mu_doubling20(tower_doubling20):
    return sl.stationary_density(sl.ulam_matrix(tower_doubling20, 4096))


@pytest.fixture(scope="session")
def mu_tent2(tower_tent2):
    return sl.stationary_density(sl.ulam_matrix(tower_tent2, 4096))


@pytest.fixture(scope="session")
def mu_quadratic(tower_quadratic):
    return sl.stationary_density(sl.ulam_matrix(tower_quadratic, 4096))


@pytest.fixture(scope="session")
def mu_circle3(tower_circle3):
    return sl.stationary_density(sl.ulam_matrix(tower_circle3, 4096))
