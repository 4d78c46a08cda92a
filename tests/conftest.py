import cmath
import math

import pytest

from expdyn import ExpPoly, ExpPolyTerm, Poly, bundled_function, classify_batch
from expdyn import orbits

# The result arrays of classify_batch.
RESULT_KEYS = ("tag", "tag_code", "steps", "trapped", "final_depth", "final_val")
# The engine state of an orbit after each step: z in direct mode (0 in tower
# mode), depth (0 in direct mode) and val with |z| = exp^depth(val), and the
# carried phase, which only tower mode defines and reads.
STEP_KEYS = ("z", "depth", "val", "phase")


@pytest.fixture
def orbit_walk(monkeypatch):
    """walk(f, z0, p=None) -> (result, states): classify_batch on [z0].

    result maps each of RESULT_KEYS to the orbit's value, and states
    holds one dict per step taken, with the STEP_KEYS of the state after the
    step (phase only in tower mode, depth > 0) and cond, whether the step
    was certified.  A spy on
    orbits._step_tower takes them: the tower step runs once per step, after
    the direct one, so on its return both have written the new state.
    """
    states = []
    step_tower = orbits._step_tower

    def spy(f, p, dcap, s, pos, fl):
        step_tower(f, p, dcap, s, pos, fl)
        keys = STEP_KEYS if s["depth"][0] else [k for k in STEP_KEYS if k != "phase"]
        states.append({**{k: s[k][0] for k in keys}, "cond": fl["cond"][0]})

    monkeypatch.setattr(orbits, "_step_tower", spy)

    def walk(f, z0, p=None):
        states.clear()
        res = classify_batch(f, [z0], p)
        return {k: res[k][0] for k in RESULT_KEYS}, list(states)

    return walk


@pytest.fixture
def step_sizes(monkeypatch):
    """The number of live orbits at each engine step, in order, taken by a
    spy on orbits._step_tower, which runs once per step."""
    sizes = []
    step_tower = orbits._step_tower

    def spy(f, p, dcap, s, pos, fl):
        sizes.append(s["z"].size)
        step_tower(f, p, dcap, s, pos, fl)

    monkeypatch.setattr(orbits, "_step_tower", spy)
    return sizes


@pytest.fixture(scope="session")
def cosh3():
    """e^{z^3} + e^{-z^3}: the workhorse two-term d=3 function."""
    return ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)])


@pytest.fixture(scope="session")
def sin3():
    return bundled_function("sin_z3")


@pytest.fixture(scope="session")
def sin2():
    return bundled_function("sin_z2")


@pytest.fixture(scope="session")
def sinz():
    return bundled_function("sin_z")


@pytest.fixture(scope="session")
def h_example():
    """exp(iz) sinh(z^3): the slow-wedge counterexample function."""
    return bundled_function("example_h")


@pytest.fixture(scope="session")
def hemke():
    """Q1 e^{z^3+z^2} + Q2 e^{-z^3-z^2}: a pi-gap pair with shared splitting."""
    return ExpPoly(
        3,
        [
            ExpPolyTerm(Poly([1]), 1 + 0j, Poly([0, 0, 1])),
            ExpPolyTerm(Poly([1]), -1 + 0j, Poly([0, 0, -1])),
        ],
    )


@pytest.fixture(scope="session")
def three_term():
    """Three cube roots of unity as frequencies: strict gaps, spread > pi."""
    return ExpPoly(
        3,
        [
            ExpPolyTerm(Poly([1]), cmath.exp(2j * math.pi * j / 3))
            for j in range(3)
        ],
    )
