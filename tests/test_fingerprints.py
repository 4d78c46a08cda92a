"""Golden fingerprints of the orbit engine and the log-domain evaluator.

Each entry is the sha256 of the raw bytes of every result array of
classify_batch, or of every output of eval_log_batch (orders 0-2), on one
case of a small fixed corpus: five functions on circles r = 1 ... 1e200,
special start points, single-point batches with the engine state after
each step, 0-d evaluations and a 64-px figure grid.  A refactor of either engine that changes no bit keeps
every hash.  NaN payloads and signed zeros count.

The hashes hold for one numpy build on x86-64 (numpy 2.4); a numpy whose
libm rounds differently can move last bits, and then the hashes must be
recomputed from a tree known to be right.
"""

import cmath
import hashlib
import math

import numpy as np
import pytest
from conftest import RESULT_KEYS, STEP_KEYS

from expdyn import (
    ClassifyParams,
    ExpPoly,
    ExpPolyTerm,
    Poly,
    Viewport,
    bundled_function,
    classify_batch,
    eval_log_batch,
)
from expdyn.cli import main

RADII = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 1e3, 1e10, 1e50, 1e120, 1e200)
# Axis angles (ties between terms) and generic ones.
THETAS = 2.0 * math.pi * np.concatenate([np.arange(48), np.arange(48) + 0.37]) / 48.0
SPECIALS = np.array(
    [0j, complex(math.nan, 0), complex(math.inf, 0), complex(math.nan, 1.0), 1e155, -1e155j, 1e-300j]
)
PARAMS = {
    "default": ClassifyParams(),
    "short": ClassifyParams(alpha=0.5, escape_radius=20.0, max_iter=64, cert_steps=4),
}


def _three_term():
    """Three frequencies, a non-constant Q and non-zero P."""
    return ExpPoly(
        3,
        [
            ExpPolyTerm(Poly([1.0, 0.5]), 1 + 0j, Poly([0.0, 0.3j])),
            ExpPolyTerm(Poly([2j]), cmath.exp(2j * math.pi / 3)),
            ExpPolyTerm(Poly([-1.0]), cmath.exp(4j * math.pi / 3), Poly([0.1])),
        ],
    )


FUNCS = {
    "sin_z3": lambda: bundled_function("sin_z3"),
    "sin_z2": lambda: bundled_function("sin_z2"),
    "sin_z": lambda: bundled_function("sin_z"),
    "example_h": lambda: bundled_function("example_h"),
    "three_term": _three_term,
}


def _scan_points():
    circles = (np.array(RADII)[:, None] * np.exp(1j * THETAS)[None, :]).ravel()
    return np.concatenate([circles, SPECIALS])


def _digest(h, name, a):
    h.update(name.encode())
    a = np.asarray(a)
    if a.dtype == object:
        h.update("\0".join(map(str, a.ravel())).encode())
    else:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def _classify_hash(f, pts, p):
    h = hashlib.sha256()
    res = classify_batch(f, pts, p)
    for k in RESULT_KEYS:
        _digest(h, k, res[k])
    return h.hexdigest()


def _walk_hash(walk, f, z0, p):
    """sha256 of the results of one orbit and of its engine state after each
    step; the phase counts in tower mode only, where it is defined."""
    h = hashlib.sha256()
    res, states = walk(f, z0, p)
    for k in RESULT_KEYS:
        _digest(h, k, res[k])
    for n_step, state in enumerate(states, 1):
        for k in (*STEP_KEYS, "cond"):
            if k in state:
                _digest(h, f"{n_step}.{k}", state[k])
    return h.hexdigest()


def _eval_hash(f, pts, order, zero_d=False):
    h = hashlib.sha256()
    with np.errstate(all="ignore"):
        if zero_d:
            outs = [eval_log_batch(f, np.asarray(z), order=order) for z in pts]
        else:
            outs = [eval_log_batch(f, pts, order=order)]
    for out in outs:
        for name, a in zip(("logmod", "phase", "zero"), out):
            _digest(h, name, a)
    return h.hexdigest()


def corpus_hashes(name, walk):
    """{case: sha256} for one function of the corpus; walk is the orbit_walk fixture."""
    f = FUNCS[name]()
    pts = _scan_points()
    out = {}
    for pname, p in PARAMS.items():
        out[f"classify/{pname}"] = _classify_hash(f, pts, p)
    singles = np.concatenate([pts[::97], SPECIALS[:4]])
    h = hashlib.sha256()
    for z in singles:
        h.update(_walk_hash(walk, f, z, PARAMS["short"]).encode())
    out["classify/single"] = h.hexdigest()
    for order in (0, 1, 2):
        out[f"eval{order}"] = _eval_hash(f, pts, order)
        out[f"eval{order}/0d"] = _eval_hash(f, singles, order, zero_d=True)
    if name in ("sin_z3", "sin_z2"):
        grid = Viewport.square(0j, 4.0, 64).all_points().ravel()
        out["render64"] = _classify_hash(f, grid, PARAMS["default"])
    return out


GOLDEN = {
    "example_h": {
        "classify/default": "12f0b5edf5d520f966bbf425d2e1456b5d5d3e41fcbabfd318f5992fcddd2e4d",
        "classify/short": "49e1f12badf83be39c5de930ef1965f2232b52ba3f635595abe62850c9f958ff",
        "classify/single": "fee8fb185a8b9f3f25945275ddfd3ed9de8c62c76cfac0393083ab00542dc51f",
        "eval0": "5388ecbd6b47206c7d66141fba3b12c2e13e41770aad4c2962b18b35e3553326",
        "eval0/0d": "1ce8c7f5e519062d073055d64f6286ca37ca9ae1d59b298b1aa8e971a1dfc0ed",
        "eval1": "596c9e55663fd299a07c752f1962e4e2b7c7da01a83f6f76130b538473b69de5",
        "eval1/0d": "97ad1b914f8aaece236ed4949f5e764bf5934f0e43a56c2eff5c361d9bb3b00b",
        "eval2": "3f1d886d34440ed1183a33ece21db525e94815a40d881a0c3913db8445950e9e",
        "eval2/0d": "6e3327063c0732fc39be4b44fc182d158954f887219522501803b06ff69bf18b",
    },
    "sin_z": {
        "classify/default": "67311dd1b7e537e42c5b5b521e4a70195351d9f25decc3b7f9db46f500974f1a",
        "classify/short": "2ed5269662cbab2d89b30861feaac633b77a669b7d1645cd9245d55548799b2c",
        "classify/single": "9d889be4fcff0da59b9ab7a3bb15643b4efe88afc4dfb29fc82b8d29be88f907",
        "eval0": "7b63ae374791ffca8da18094ec909fa5b39c34006f048537da1a3292ba4a0aa5",
        "eval0/0d": "f8b221161e1d0a5aecc3addf4b1838923676f387fbe1e3ad0a6cc1e84671ee32",
        "eval1": "c8181a72d04ee40a6bf35404f83e121ae8a0d5db11f3277a50e254852a2f3e70",
        "eval1/0d": "5239c9a9cabea99cc0cc3056c3f7b5d9624fc0aa9616137c3bdf0607a018cdf0",
        "eval2": "44a4f9d64d5b5cea68b856b9fe41cd8d012250d2462ff1318f276a7ed90b6947",
        "eval2/0d": "76c048ac954a568ecdd34d7f9ca431ea04bb7bc5627cbaef1948ee7b57336e00",
    },
    "sin_z2": {
        "classify/default": "5b1f8209b6c1fced0d2a347c1358036871902f32d826fc1b38d1ff582501349d",
        "classify/short": "d3f417014fd0f99ba538ecf2c55f146bac8faf3417f9250b8dbf7e7c5b1bfb41",
        "classify/single": "b4a34cc85084d1c9bc6cdf3e3a8b2149cf084ec242e0c0011e37a450f32ea9c2",
        "eval0": "daaf81fa01635c75d37aac3ecf48f5eb46019f28110b774460c070cacf3e650d",
        "eval0/0d": "2cba4b0143ed47bfe60dade1e033808bd7813628eb85b71ff3f5236dea23c2f7",
        "eval1": "2aaa54c629e929ef5b8704a966fbcb6b6213f181308a5238d827f6903946ebb6",
        "eval1/0d": "06ec09953691b069e64565255a91bc4342645fd06f79391bb9ad9c10f1be0d55",
        "eval2": "bed19fb3dbfcca238852b699bb4f636a1f168c235224c299363a1c95d8fee2de",
        "eval2/0d": "78bffb994e9f48d2e948fce7fa15119239de7a86127f85a3ac71137d44a922e9",
        "render64": "5ea10f0dcc17779c095450c3871bceaa0726c9fbc5b52761a1fa0604c1182b90",
    },
    "sin_z3": {
        "classify/default": "446af116d5f7761f60173855871433accdfd478648b08d489603c6cd1f665537",
        "classify/short": "d12ab4b1d0b4e15e2fbd71b9c0b763125c0c48a8aed5c1c9fda293805f5c0b51",
        "classify/single": "d9c5ddce22da021000f4b2faee042d2194c496d1fb7f5566caede5c58336d720",
        "eval0": "4d86c8b7f07165015fca0edf3b399fea6f0793420d7c249d575609e9ac7001c2",
        "eval0/0d": "c4c7c53a9f8e74bb07423287ea14e2d7238dc578784c1a9dfab72732d63430c3",
        "eval1": "afbf80034f882a465d35647fe2e3625c7228593f687af488400c672013bc0f4f",
        "eval1/0d": "7de877386bf065baa6663d8dd0d1cbcfbb0289d6fc77be2bd79176496e3e5dd4",
        "eval2": "77c47e7aec6ff9b9477f46c0567a6e068fa51c40f138f691cde64b69bfc7680e",
        "eval2/0d": "92344da4aea996c4ce88de81f6223f8eff1fc9da5337705cc30a2336d063cc08",
        "render64": "8090f90d941adda2ea40e9b3c24f32505a8b4e9f0f28484cbde3e7d82b3ef663",
    },
    "three_term": {
        "classify/default": "c48b6e3b93cc7f8ab7c786bf72ea8f1e239840c97fd269de8d9c5be86343ccb6",
        "classify/short": "3b7d050e462c4cf4eec038506e531c273acb68f4a5cb1336ee104f78892f1e68",
        "classify/single": "89ac102d6a63d605131110d73cca6ddf0aa676aab559245e2f2ec45ec2d02fee",
        "eval0": "1c53453b4d7a9585e0c48fc65d47f96248b4e49f166cc700bf3700e589071d13",
        "eval0/0d": "77818874cd42bfe88df97688b69f04f59cacc18b8076216c85c79b15b198a1ca",
        "eval1": "4ade9724c28a0aea1fd6144b542a1c207877b406fc456f028d4904b786a7ceb3",
        "eval1/0d": "51da969f403dafbb8e93f57c6e10d54bf8e0d8034fccd801d892cb9e3dd2ee2c",
        "eval2": "c60acb1d172166f015c955cd44e20969d99f8474b685ef95d35eedd67f3557bd",
        "eval2/0d": "0879ce44fbceb68dd44ef83bc0b664a5c6b6008b49fe453f041517945bd29b7a",
    },
}


@pytest.mark.parametrize("name", sorted(FUNCS))
def test_engine_fingerprints(name, orbit_walk):
    got = corpus_hashes(name, orbit_walk)
    want = GOLDEN[name]
    assert sorted(got) == sorted(want)
    bad = [k for k in want if got[k] != want[k]]
    assert not bad, f"{name}: outputs changed in {bad}"


# ---------------------------------------------------------------------------
# Report files: sha256 of the --out file of each report command.

CLI_FILES = {
    "e2measure": (
        ["e2measure", "--fn", "sin_z3", "--r-min", "10", "--r-max", "20", "--nr", "16", "--ntheta", "256"],
        "5218d1384b1d6ea69d1bdcaa8eecbeb33c3186f22b4bdabfe8a57f7f7fafcb7c",
    ),
    "annulus-scan": (
        ["annulus-scan", "--fn", "sin_z3", "--r", "5", "--samples", "500"],
        "897b358b11ee85bb6e767cb227f64ff5a25213400a654f26df486a33df91aeef",
    ),
    "grid-bound": (
        ["grid-bound", "--fn", "sin_z3", "--r-lo", "10", "--r-hi", "20", "--count", "3"],
        "b388beebe2f544b87b0772b1802e60a3190564e0d6b99e24e26d35bb6230bf87",
    ),
}


@pytest.mark.parametrize("cmd", sorted(CLI_FILES))
def test_report_file_fingerprints(cmd, tmp_path, capsys):
    argv, want = CLI_FILES[cmd]
    path = tmp_path / "out.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


# Good-square decisions at far tiles: grid-bound out to r = 4000, where a
# tile side is of order 1e-9, as the sha256 of the --out file and of stdout.
FAR_GRID_BOUND = (
    ["grid-bound", "--fn", "example_h", "--r-lo", "10", "--r-hi", "4000", "--count", "60"],
    "413c05d9f6c398712ee5a9c91c7551253e8341bed4803405b2a4ae899a99f3c8",
    "db699981bd5057f5cf0e82dd57abfe87c7b152bb4dfd73808ca41763bf1fe866",
)


def test_far_grid_bound_fingerprint(tmp_path, capsys):
    argv, want_file, want_stdout = FAR_GRID_BOUND
    path = tmp_path / "out.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want_file
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want_stdout


# Two single orbits, as _walk_hash of their engine states: one that stays in
# direct mode and one that reaches tower depth 3.
ORBIT_WALKS = {
    "sin_z3 depth 0": (
        lambda: bundled_function("sin_z3"),
        2.0 + 0.1j,
        "524d1e6219a08723018e837e41589db83061e7cef8760a03fd1e75fd12275e36",
    ),
    "cosh3 depth 3": (
        lambda: ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)]),
        3.0 + 0.1j,
        "9275b4c9d662dd91d07ccfa406d9a66df030742b24fff99acc9058ab1c295593",
    ),
}


@pytest.mark.parametrize("case", sorted(ORBIT_WALKS))
def test_orbit_walk_fingerprints(case, orbit_walk):
    make, z0, want = ORBIT_WALKS[case]
    assert _walk_hash(orbit_walk, make(), z0, ClassifyParams()) == want
