"""Golden fingerprints of the orbit engine and the log-domain evaluator.

Each entry is the sha256 of the raw bytes of every result array of
classify_batch, or of every output of eval_log_batch (orders 0-2), on one
case of a small fixed corpus: five functions on circles r = 1 ... 1e200,
special start points, single-point batches with the engine state after
each step, 0-d evaluations and a 64-px figure grid.  A refactor of either engine that changes no bit keeps
every hash.  NaN payloads and signed zeros count.

Where a change is meant to move results, run this file as a script, from
the root of a checkout, to see which ones moved before re-pinning:

    PYTHONPATH=src python tests/test_fingerprints.py --dump OUT.npz [--fn NAME ...]
    PYTHONPATH=src python tests/test_fingerprints.py --diff A.npz B.npz

--dump writes the classify_batch arrays and start points of every classify
case of the corpus; --diff prints, per function and case, the number of
differing entries of each column, bit for bit, the largest relative
final_val change where tag, steps and final_depth agree, and the starts
whose tag moved, and exits 1 if any entry differs.

The hashes hold for one numpy build on x86-64 (numpy 2.4); a numpy whose
libm rounds differently can move last bits, and then the hashes must be
recomputed from a tree known to be right.
"""

import argparse
import cmath
import functools
import hashlib
import math
import sys

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
    step; the direction u counts in tower mode only, where it is defined."""
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


def classify_cases(name):
    """{case: (start points, params)} of the classify cases of one function
    of the corpus.  The single-point batches of classify/single are its
    points taken one at a time."""
    pts = _scan_points()
    cases = {f"classify/{pname}": (pts, p) for pname, p in PARAMS.items()}
    cases["classify/single"] = (np.concatenate([pts[::97], SPECIALS[:4]]), PARAMS["short"])
    if name in ("sin_z3", "sin_z2"):
        cases["render64"] = (Viewport.square(0j, 4.0, 64).all_points().ravel(), PARAMS["default"])
    return cases


def corpus_hashes(name, walk):
    """{case: sha256} for one function of the corpus; walk is the orbit_walk fixture."""
    f = FUNCS[name]()
    cases = classify_cases(name)
    out = {}
    for case, (pts, p) in cases.items():
        if case == "classify/single":
            h = hashlib.sha256()
            for z in pts:
                h.update(_walk_hash(walk, f, z, p).encode())
            out[case] = h.hexdigest()
        else:
            out[case] = _classify_hash(f, pts, p)
    pts, singles = cases["classify/default"][0], cases["classify/single"][0]
    for order in (0, 1, 2):
        out[f"eval{order}"] = _eval_hash(f, pts, order)
        out[f"eval{order}/0d"] = _eval_hash(f, singles, order, zero_d=True)
    return out


GOLDEN = {
    "example_h": {
        "classify/default": "2b6d7ac477bf64e2bb620c49bbe76041bd83749ca5d5b6e9a26822a21d687887",
        "classify/short": "260cdf9938f074d9d7b1224c78e62746615c443924d4649ab1be1d90ed869945",
        "classify/single": "a5d0f56f0eea523608fc8ded333fe56ffb65380c2f67a559f006fd025e6670f5",
        "eval0": "5388ecbd6b47206c7d66141fba3b12c2e13e41770aad4c2962b18b35e3553326",
        "eval0/0d": "1ce8c7f5e519062d073055d64f6286ca37ca9ae1d59b298b1aa8e971a1dfc0ed",
        "eval1": "596c9e55663fd299a07c752f1962e4e2b7c7da01a83f6f76130b538473b69de5",
        "eval1/0d": "97ad1b914f8aaece236ed4949f5e764bf5934f0e43a56c2eff5c361d9bb3b00b",
        "eval2": "3f1d886d34440ed1183a33ece21db525e94815a40d881a0c3913db8445950e9e",
        "eval2/0d": "6e3327063c0732fc39be4b44fc182d158954f887219522501803b06ff69bf18b",
    },
    "sin_z": {
        "classify/default": "3cf61c3c1818ee048abf0eed255ce57d32915360744dd44e7cea4a912c2c2afd",
        "classify/short": "181c418f61ca11e2366a6a0be980594b74c9ffe98e13621765096ab381881ee8",
        "classify/single": "f59fe6c7c0fbe99d078129bf628285ddff839dd1431cbac2cca6058e00ce76c9",
        "eval0": "7b63ae374791ffca8da18094ec909fa5b39c34006f048537da1a3292ba4a0aa5",
        "eval0/0d": "f8b221161e1d0a5aecc3addf4b1838923676f387fbe1e3ad0a6cc1e84671ee32",
        "eval1": "c8181a72d04ee40a6bf35404f83e121ae8a0d5db11f3277a50e254852a2f3e70",
        "eval1/0d": "5239c9a9cabea99cc0cc3056c3f7b5d9624fc0aa9616137c3bdf0607a018cdf0",
        "eval2": "44a4f9d64d5b5cea68b856b9fe41cd8d012250d2462ff1318f276a7ed90b6947",
        "eval2/0d": "76c048ac954a568ecdd34d7f9ca431ea04bb7bc5627cbaef1948ee7b57336e00",
    },
    "sin_z2": {
        "classify/default": "ed349ea62095bfd0a17361a9f28345bdd9adc2f9bdabd3a468ddfb7a48381445",
        "classify/short": "8a796ac4e12e1ec402b74c409837a09fe062964601ef6cdc17eb06754adfd92e",
        "classify/single": "6dc67e4e8b3dffe22d06c23e2dac7a56542d29b7963c1866a7e68cebc6d7e3bd",
        "eval0": "daaf81fa01635c75d37aac3ecf48f5eb46019f28110b774460c070cacf3e650d",
        "eval0/0d": "2cba4b0143ed47bfe60dade1e033808bd7813628eb85b71ff3f5236dea23c2f7",
        "eval1": "2aaa54c629e929ef5b8704a966fbcb6b6213f181308a5238d827f6903946ebb6",
        "eval1/0d": "06ec09953691b069e64565255a91bc4342645fd06f79391bb9ad9c10f1be0d55",
        "eval2": "bed19fb3dbfcca238852b699bb4f636a1f168c235224c299363a1c95d8fee2de",
        "eval2/0d": "78bffb994e9f48d2e948fce7fa15119239de7a86127f85a3ac71137d44a922e9",
        "render64": "4f2000951e5e410555a137514c0c9dc79ba8c274c02959648cf18faca753b1dd",
    },
    "sin_z3": {
        "classify/default": "1013b2083b43bd2e2f91b7fb3c397cef4455fa0d68f15c5718e6e5f416c59ee6",
        "classify/short": "91d3035c15d94961b1cfbf4f9037ed44b8a49571d87853f6e1f6d0b3c58f8a6d",
        "classify/single": "54baa3e6457acb93cb52e0ddd2140ea3c5faf9761a2387747ce06345ba8a572b",
        "eval0": "4d86c8b7f07165015fca0edf3b399fea6f0793420d7c249d575609e9ac7001c2",
        "eval0/0d": "c4c7c53a9f8e74bb07423287ea14e2d7238dc578784c1a9dfab72732d63430c3",
        "eval1": "afbf80034f882a465d35647fe2e3625c7228593f687af488400c672013bc0f4f",
        "eval1/0d": "7de877386bf065baa6663d8dd0d1cbcfbb0289d6fc77be2bd79176496e3e5dd4",
        "eval2": "77c47e7aec6ff9b9477f46c0567a6e068fa51c40f138f691cde64b69bfc7680e",
        "eval2/0d": "92344da4aea996c4ce88de81f6223f8eff1fc9da5337705cc30a2336d063cc08",
        "render64": "0db77e9c16d96fad28879d485927c65ed6ca439542d62ab073cb162adbfd293c",
    },
    "three_term": {
        "classify/default": "5d43b350cd34a8c324148417ddb5776e049d90501c63772137156b032b20ab8b",
        "classify/short": "8ce2e5baf02638f729d789b2e87a8f43684d37072cbf97ca1a5f70a7803ce43f",
        "classify/single": "06cfc908618719ae5e9aee3d0b3e942debedbdeaa81eddbbff305797c1505e16",
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
    # The hypothesis report of each bundled function; sin_z and sin_z2 are
    # both the d < 3 refusal.
    "check sin_z": (
        ["check", "--fn", "sin_z"],
        "f8783892a1c3273df675b35f1147e0a60c6ada4641b9d0c76d9a1a3da1913527",
    ),
    "check sin_z2": (
        ["check", "--fn", "sin_z2"],
        "f8783892a1c3273df675b35f1147e0a60c6ada4641b9d0c76d9a1a3da1913527",
    ),
    "check sin_z3": (
        ["check", "--fn", "sin_z3"],
        "bc4f047d3fe3eb4a149996e6a78d990f8a88ec6390865000b93f0a443e25671f",
    ),
    "check example_h": (
        ["check", "--fn", "example_h"],
        "e4ea23c1e2d30d70b8820d4f434fc24ee5309746c9f9181920bd7cb4434a38d8",
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
        "1116bb668c2a85c776cbabf82d20c60786bd1ec15920caaa15dd54e0f9ca4519",
    ),
}


@pytest.mark.parametrize("case", sorted(ORBIT_WALKS))
def test_orbit_walk_fingerprints(case, orbit_walk):
    make, z0, want = ORBIT_WALKS[case]
    assert _walk_hash(orbit_walk, make(), z0, ClassifyParams()) == want


# ---------------------------------------------------------------------------
# Script modes: dump the corpus's classify results and diff two dumps.

# The dumped result columns: every one but the tag strings, which tag_code codes.
DUMP_COLUMNS = RESULT_KEYS[1:]


def dump(path, names):
    """Write the start points and classify_batch arrays of every classify
    case of the functions names to the npz file path, under the keys
    "function|case|column", column "start" for the points."""
    arrays = {}
    for name in names:
        f = FUNCS[name]()
        for case, (pts, p) in classify_cases(name).items():
            res = classify_batch(f, pts, p)
            arrays[f"{name}|{case}|start"] = pts
            arrays.update({f"{name}|{case}|{k}": res[k] for k in DUMP_COLUMNS})
    np.savez(path, **arrays)


def _bits_differ(a, b):
    """Per entry, whether two equal-shape arrays differ in any bit."""
    return (a.view(np.uint8).reshape(a.size, -1) != b.view(np.uint8).reshape(b.size, -1)).any(axis=1)


def diff(path_a, path_b):
    """Print where the dumps path_a and path_b differ, as a markdown table
    with one row per function and case both hold, then the starts whose tag
    moved; returns the number of differing entries."""
    a, b = np.load(path_a), np.load(path_b)
    cases = sorted({k.rsplit("|", 1)[0] for k in a.files} & {k.rsplit("|", 1)[0] for k in b.files})
    print("| function | case | " + " | ".join(DUMP_COLUMNS) + " | max rel final_val |")
    print("|" + " --- |" * (len(DUMP_COLUMNS) + 3))
    total, moved = 0, []
    for key in cases:
        pts = a[f"{key}|start"]
        if pts.tobytes() != b[f"{key}|start"].tobytes():
            raise ValueError(f"{key}: the dumps hold different start points")
        cols = {k: (a[f"{key}|{k}"], b[f"{key}|{k}"]) for k in DUMP_COLUMNS}
        counts = {k: np.count_nonzero(_bits_differ(x, y)) for k, (x, y) in cols.items()}
        total += sum(counts.values())
        # Where tag, steps and depth agree, how far final_val moved.
        same = ~functools.reduce(np.logical_or, [_bits_differ(*cols[k]) for k in ("tag_code", "steps", "final_depth")])
        x, y = (v[same] for v in cols["final_val"])
        with np.errstate(all="ignore"):
            rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
        rel = rel[np.isfinite(rel)]
        name, case = key.split("|")
        cells = " | ".join(str(counts[k]) for k in DUMP_COLUMNS)
        print(f"| {name} | {case} | {cells} | {rel.max() if rel.size else 0.0:.2g} |")
        x, y = cols["tag_code"]
        for i in np.flatnonzero(x != y):
            moved.append(f"{name} {case} at {pts[i]!r}: tag {x[i]} -> {y[i]}")
    print(*moved, sep="\n")
    print(f"{total} differing entries")
    return total


def script_main(argv=None):
    ap = argparse.ArgumentParser(description="Dump the engine corpus's classify results, or diff two dumps.")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", metavar="OUT.npz")
    mode.add_argument("--diff", nargs=2, metavar=("A.npz", "B.npz"))
    ap.add_argument("--fn", action="append", choices=sorted(FUNCS), help="dump only these functions")
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.dump, args.fn or sorted(FUNCS))
        return 0
    return 1 if diff(*args.diff) else 0


def test_diff_of_a_dump_with_itself_is_empty(tmp_path, capsys):
    path = str(tmp_path / "sin_z.npz")
    assert script_main(["--dump", path, "--fn", "sin_z"]) == 0
    assert script_main(["--diff", path, path]) == 0
    out = capsys.readouterr().out
    assert "| sin_z | classify/default | 0 | 0 | 0 | 0 | 0 |" in out
    assert out.endswith("\n0 differing entries\n")


if __name__ == "__main__":
    sys.exit(script_main())
