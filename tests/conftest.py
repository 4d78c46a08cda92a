import cmath
import math

import numpy as np
import pytest

from expdyn import ExpPoly, ExpPolyTerm, Poly, bundled_function, classify_batch
from expdyn import exceptional, funcs, orbits

# The result arrays of classify_batch.
RESULT_KEYS = ("tag", "tag_code", "steps", "trapped", "final_depth", "final_val")
# The engine state of an orbit after each step: z in direct mode (0 in tower
# mode), depth (0 in direct mode) and val with |z| = exp^depth(val), and the
# carried unit direction u, which only tower mode defines and reads.
STEP_KEYS = ("z", "depth", "val", "u")


@pytest.fixture(autouse=True)
def clear_caches():
    """Clears the caches of quantities derived from a function's coefficients
    before each test, so a test that spies on a derivation sees it whatever
    ran earlier; the test may call the returned function to clear them again."""

    def clear():
        for cached in (funcs._term_consts, funcs._deriv_prefactors, exceptional._pair_polys, orbits.trap_at_0):
            cached.cache_clear()

    clear()
    return clear


def pool_columns(direct, tower, dfl, tfl, moved):
    """The two states of a pool and their flags after a step (the states
    that orbits._advance steps in place, and what it returns) as one table
    of columns, each live orbit once, direct orbits first: idx, z (0 in
    tower mode), depth (0 in direct mode), val, u (0 in direct mode), below
    (0 in tower mode), run (as of the step before: the pool updates it after
    the step) and cond.  The orbits at the mask moved of the direct state
    are in the tower state, and shown there only."""
    if moved is not None:
        direct, dfl = orbits._take(direct, ~moved), orbits._take(dfl, ~moved)
    nd, nt = direct["idx"].size, tower["idx"].size

    def cat(a, b):
        return np.concatenate([a, b])

    return {
        "idx": cat(direct["idx"], tower["idx"]),
        "z": cat(direct["z"], np.zeros(nt, complex)),
        "depth": cat(np.zeros(nd, np.int64), tower["depth"]),
        "val": cat(direct["val"], tower["val"]),
        "u": cat(np.zeros(nd, complex), tower["u"]),
        "below": cat(direct["below"], np.zeros(nt, np.int64)),
        "run": cat(direct["run"], tower["run"]),
        "cond": cat(dfl["cond"], tfl["cond"]),
    }


def spy_on_steps(monkeypatch, observe):
    """Calls observe(columns), with the pool_columns of the pool, after each
    engine step, by a spy on orbits._advance, which runs once per step."""
    advance = orbits._advance

    def spy(*args):
        out = advance(*args)
        observe(pool_columns(*args[-2:], *out))
        return out

    monkeypatch.setattr(orbits, "_advance", spy)


@pytest.fixture
def orbit_walk(monkeypatch):
    """walk(f, z0, p=None) -> (result, states): classify_batch on [z0].

    result maps each of RESULT_KEYS to the orbit's value, and states
    holds one dict per step taken, with the STEP_KEYS of the state after the
    step (u only in tower mode, depth > 0) and cond, whether the step was
    certified.
    """
    states = []

    def observe(cols):
        keys = STEP_KEYS if cols["depth"][0] else [k for k in STEP_KEYS if k != "u"]
        states.append({**{k: cols[k][0] for k in keys}, "cond": cols["cond"][0]})

    spy_on_steps(monkeypatch, observe)

    def walk(f, z0, p=None):
        states.clear()
        res = classify_batch(f, [z0], p)
        return {k: res[k][0] for k in RESULT_KEYS}, list(states)

    return walk


@pytest.fixture
def step_sizes(monkeypatch):
    """The number of live orbits at each engine step, in order."""
    sizes = []
    spy_on_steps(monkeypatch, lambda cols: sizes.append(cols["idx"].size))
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


@pytest.fixture(scope="session")
def four_term():
    """sum_{k<4} e^{i^k z^3}: four terms of comparable size near the origin,
    where a pairwise sum would group them differently from term order."""
    return ExpPoly(3, [ExpPolyTerm(Poly([1]), 1j**k) for k in range(4)])
