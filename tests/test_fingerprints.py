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
    """sha256 of the results of one orbit and of its engine state after each step."""
    h = hashlib.sha256()
    res, states = walk(f, z0, p)
    for k in RESULT_KEYS:
        _digest(h, k, res[k])
    for n_step, state in enumerate(states, 1):
        for k in (*STEP_KEYS, "cond"):
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
        "classify/default": "0dbabaa84dd8e1a5d87132703641a274cd7c8bc1a31291ee2f72970c70649bcc",
        "classify/short": "d63bce21f13442cc442b35e98ad53244c74d9e3ff6f7642ae89a471777807a4f",
        "classify/single": "cb01252439d0bbccd86709024e4f307f7f04eb1a7417ecd9374ffcd022a89f7e",
        "eval0": "5388ecbd6b47206c7d66141fba3b12c2e13e41770aad4c2962b18b35e3553326",
        "eval0/0d": "1ce8c7f5e519062d073055d64f6286ca37ca9ae1d59b298b1aa8e971a1dfc0ed",
        "eval1": "596c9e55663fd299a07c752f1962e4e2b7c7da01a83f6f76130b538473b69de5",
        "eval1/0d": "97ad1b914f8aaece236ed4949f5e764bf5934f0e43a56c2eff5c361d9bb3b00b",
        "eval2": "3f1d886d34440ed1183a33ece21db525e94815a40d881a0c3913db8445950e9e",
        "eval2/0d": "6e3327063c0732fc39be4b44fc182d158954f887219522501803b06ff69bf18b",
    },
    "sin_z": {
        "classify/default": "dcb3aede485936762180bb8838f08056db958f97a2e567215b010de28c6aac26",
        "classify/short": "a555069f35c7a3912ab3be6800a2fc0fb622607cc45c4fbc6f1fce2c9a7ce55d",
        "classify/single": "117cbe281fe9dc9a0923286692bbf67173ca581bff737e5bfe9b091596436771",
        "eval0": "7b63ae374791ffca8da18094ec909fa5b39c34006f048537da1a3292ba4a0aa5",
        "eval0/0d": "f8b221161e1d0a5aecc3addf4b1838923676f387fbe1e3ad0a6cc1e84671ee32",
        "eval1": "c8181a72d04ee40a6bf35404f83e121ae8a0d5db11f3277a50e254852a2f3e70",
        "eval1/0d": "5239c9a9cabea99cc0cc3056c3f7b5d9624fc0aa9616137c3bdf0607a018cdf0",
        "eval2": "44a4f9d64d5b5cea68b856b9fe41cd8d012250d2462ff1318f276a7ed90b6947",
        "eval2/0d": "76c048ac954a568ecdd34d7f9ca431ea04bb7bc5627cbaef1948ee7b57336e00",
    },
    "sin_z2": {
        "classify/default": "81df1194b5db90c376218519b0bd1104bc5443d9ae4eb19165c8b807311435ea",
        "classify/short": "e64067eec47004770714eca7ef116871dae933481bcb23529dffdeb13673ce5c",
        "classify/single": "84efc594b22cbc285b7468e6228333c93c4cc6b190ac39e9ec0c8074538114f2",
        "eval0": "daaf81fa01635c75d37aac3ecf48f5eb46019f28110b774460c070cacf3e650d",
        "eval0/0d": "2cba4b0143ed47bfe60dade1e033808bd7813628eb85b71ff3f5236dea23c2f7",
        "eval1": "2aaa54c629e929ef5b8704a966fbcb6b6213f181308a5238d827f6903946ebb6",
        "eval1/0d": "06ec09953691b069e64565255a91bc4342645fd06f79391bb9ad9c10f1be0d55",
        "eval2": "bed19fb3dbfcca238852b699bb4f636a1f168c235224c299363a1c95d8fee2de",
        "eval2/0d": "78bffb994e9f48d2e948fce7fa15119239de7a86127f85a3ac71137d44a922e9",
        "render64": "cb9cb4e5014940a70f10a9b8b4f803f961b95b318f8b64db8b3412be844dd2a2",
    },
    "sin_z3": {
        "classify/default": "555977706da76d6102512866e4f883162371c15ecb44fcd4e1b456d0b4a55b08",
        "classify/short": "b26bf59810e7f6b1258dbcb25166e765a5ff88a45643b93c99849090658d987f",
        "classify/single": "c14dddbb79ed36e36d2d8e9926902ca8a6ae5b3b971eaecc0c2fb904804df211",
        "eval0": "4d86c8b7f07165015fca0edf3b399fea6f0793420d7c249d575609e9ac7001c2",
        "eval0/0d": "c4c7c53a9f8e74bb07423287ea14e2d7238dc578784c1a9dfab72732d63430c3",
        "eval1": "afbf80034f882a465d35647fe2e3625c7228593f687af488400c672013bc0f4f",
        "eval1/0d": "7de877386bf065baa6663d8dd0d1cbcfbb0289d6fc77be2bd79176496e3e5dd4",
        "eval2": "77c47e7aec6ff9b9477f46c0567a6e068fa51c40f138f691cde64b69bfc7680e",
        "eval2/0d": "92344da4aea996c4ce88de81f6223f8eff1fc9da5337705cc30a2336d063cc08",
        "render64": "be874ec652d34b6656245923b20ddbdccbe39f7476c9f51aa3a51af33e292f31",
    },
    "three_term": {
        "classify/default": "18f1ff3c99233910d3c11a30678940a6ab8aa2df4d3c10ec94af064f83a9c94f",
        "classify/short": "d14884e2b73e78affa5ef8ac3fddbe45780e3b76bf81a03519d9f7441d4c3d52",
        "classify/single": "042eb44a53306e397f64371625f3972cfcb9c401b7b5ca38da96147890353aa5",
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
        "87d75eb4dd610bbe4726e7c487a6127904808382f2251797d44bbc870302f279",
    ),
    "cosh3 depth 3": (
        lambda: ExpPoly(3, [ExpPolyTerm(Poly([1]), 1 + 0j), ExpPolyTerm(Poly([1]), -1 + 0j)]),
        3.0 + 0.1j,
        "38637b0ff135bbae9c604360c6b4ec0711398b51222ea5ab6fc43030684d40d0",
    ),
}


@pytest.mark.parametrize("case", sorted(ORBIT_WALKS))
def test_orbit_walk_fingerprints(case, orbit_walk):
    make, z0, want = ORBIT_WALKS[case]
    assert _walk_hash(orbit_walk, make(), z0, ClassifyParams()) == want
