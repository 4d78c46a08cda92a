"""Measurement: passes, set-up time, checks and the report (see run.py)."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy
from expdyn import cli

from refkernel import REF_S, reference
from tracing import Tracer, layer_metrics, median_metrics
from workloads import DEFAULT_SEED, Op, build, collect, oracle, render_fingerprint, scan_row

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_RUNS = 5
MIN_PASSES = 3  # untraced runs
MIN_PAIRS = 2  # traced runs: untraced and traced passes alternate

SETUP_CODE = """
import time
t0 = time.perf_counter()
import expdyn
for name in ("sin_z", "sin_z2", "sin_z3", "example_h"):
    expdyn.bundled_function(name)
print(time.perf_counter() - t0)
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_record() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def summary(values, unit) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    hi = None
    if n > 10:
        hi = {"q": round((n - 10) / n, 4), "value": vals[n - 11]}
    return {"median": statistics.median(vals), "p_hi": hi, "n": n, "unit": unit}


def run_op(op) -> tuple[float, int, str]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(op.argv)
    return time.perf_counter() - t0, rc, buf.getvalue()


def run_pass(ops, tracer=None) -> dict:
    """One pass of the workload with the reference kernel timed between operations.

    `norm` holds each operation's time at the reference speed, scaled by the
    kernel runs just before and just after it; `scale` is the pass's mean
    scale factor.  Outputs are collected after the timed loop.
    """
    times, refs, raw = [], [reference()], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with tracer.installed() if tracer else contextlib.nullcontext():
            for op in ops:
                if tracer:
                    tracer.op = op.id
                dt, rc, out = run_op(op)
                refs.append(reference())
                times.append(dt)
                raw.append((rc, out))
    fp = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
    norm = [t * 2.0 * REF_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]
    return {
        "wall": sum(times),
        "norm_wall": sum(norm),
        "times": times,
        "norm": norm,
        "scale": sum(norm) / sum(times),
        "outputs": [collect(op, rc, out) for op, (rc, out) in zip(ops, raw)],
        "fp_warnings": fp,
    }


def measure_setup() -> list[float]:
    """Set-up seconds of fresh interpreters, one at a time (raw: see refkernel.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout))
    return out


def check_outputs(workload, seed, ops, passes, golden) -> tuple[bool, list[dict], dict]:
    """Determinism, golden fingerprints and oracles; returns (correct, failed ops, details)."""
    rng = np.random.default_rng([seed, 7])  # oracle subsamples, a stream apart from the inputs
    first = passes[0]["outputs"]
    correct = True
    failed = []
    details = {"nondeterministic": [], "golden": {}}
    for i, op in enumerate(ops):
        if any(p["outputs"][i] != first[i] for p in passes[1:]):
            correct = False
            details["nondeterministic"].append(op.id)
        problems = oracle(op, first[i], rng)
        if problems:
            failed.append({"op": op.id, "problems": problems})

    # Golden fingerprints are those of the default seed.  Renders and grid
    # reports do not depend on the seed; scans are rerun at the default seed.
    if seed == DEFAULT_SEED:
        gold_ops = ops
    else:
        (WORK / "default").mkdir(exist_ok=True)
        gold_ops = build(workload, DEFAULT_SEED, WORK / "default")
    for i, op in enumerate(gold_ops):
        if op.id in golden["renders"]:
            want = golden["renders"][op.id]
            got = render_fingerprint(ops[i].out)
        elif op.id in golden["reports"]:
            want = golden["reports"][op.id]
            got = hashlib.sha256(first[i]["stdout"].encode()).hexdigest()
        elif op.id in golden["scans"]:
            want = golden["scans"][op.id]
            if seed == DEFAULT_SEED:
                out = first[i]
            else:
                _, rc, text = run_op(op)
                out = collect(op, rc, text)
            got = scan_row(out) if out["rc"] == 0 else {"rc": out["rc"]}
        else:
            continue
        ok = got == want
        details["golden"][op.id] = "match" if ok else {"want": want, "got": got}
        correct &= ok
    return correct, failed, details


def per_entry(ops, passes) -> dict:
    """Each entry point's share of a pass, and its single operations, at the reference speed."""
    out = {}
    for entry in sorted({op.entry for op in ops}):
        idx = [i for i, op in enumerate(ops) if op.entry == entry]
        out[f"{entry}_s"] = summary([sum(p["norm"][i] for i in idx) for p in passes], "s")
        out[f"{entry}_op_s"] = summary([p["norm"][i] for p in passes for i in idx], "s")
    return out


def thread_speedup(ops, untraced) -> tuple[float, bool]:
    """Render time at 1 thread over render time at nproc threads, and whether images agree."""
    renders = [(i, op) for i, op in enumerate(ops) if op.entry == "render"]
    if not renders:
        return 0.0, True
    one = sum(statistics.median(p["norm"][i] for p in untraced) for i, _ in renders)
    many = 0.0
    same = True
    for i, op in renders:
        argv = list(op.argv)
        argv[argv.index("--threads") + 1] = str(nproc())
        before = reference()
        dt, rc, _ = run_op(Op(op.id, op.entry, argv, op.out))
        many += dt * 2.0 * REF_S / (before + reference())
        same &= collect(op, rc, "")["sha256"] == untraced[0]["outputs"][i]["sha256"]
    return one / many, same


def benchmark(args):
    """Run one workload; returns (report, correct, attempted, failed, contract metrics)."""
    # Passes count numpy's RuntimeWarnings themselves; keep the oracles quiet.
    warnings.simplefilter("ignore", RuntimeWarning)
    WORK.mkdir(exist_ok=True)
    ops = build(args.workload, args.seed, WORK)
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

    untraced, traced, layer_per_pass = [], [], []
    tracer = Tracer() if args.trace else None
    min_passes = MIN_PAIRS if tracer else MIN_PASSES
    t_start = time.perf_counter()
    while len(untraced) < min_passes or time.perf_counter() - t_start < args.seconds:
        untraced.append(run_pass(ops))
        if tracer:
            lo = len(tracer.spans)
            traced.append(run_pass(ops, tracer))
            layer_per_pass.append(layer_metrics(tracer.spans, lo, len(tracer.spans), traced[-1]["scale"]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    speedup, threads_agree = thread_speedup(ops, untraced) if tracer else (None, True)
    passes = untraced + traced
    correct, failed, details = check_outputs(args.workload, args.seed, ops, passes, golden)
    correct &= threads_agree
    setup = measure_setup()

    attempted = len(ops) * len(passes)
    n_failed = len(failed) * len(passes)
    norm_wall = summary([p["norm_wall"] for p in untraced], "s")
    setup_s = summary(setup, "s")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "ops": [op.id for op in ops],
        "end_to_end": {
            "norm_wall_s": norm_wall,
            "setup_s": setup_s,
            "peak_rss_mb": {"value": peak_rss_mb, "n": 1, "unit": "MB"},
            "fail_frac": {"value": n_failed / attempted, "n": attempted, "unit": "ratio"},
            **per_entry(ops, untraced),
        },
        "raw": {
            "wall_s": summary([p["wall"] for p in untraced], "s"),
            "scale": summary([p["scale"] for p in untraced], "ratio"),
        },
        "failed_ops": failed,
        "checks": details,
        "fp_warnings": statistics.median(p["fp_warnings"] for p in untraced),
    }
    if tracer:
        layers = median_metrics(layer_per_pass)
        layers["raster.thread_speedup"] = speedup
        layers["fp_warnings"] = statistics.median(p["fp_warnings"] for p in traced)
        traced_wall = statistics.median(p["norm_wall"] for p in traced)
        layers["trace.overhead_frac"] = traced_wall / norm_wall["median"] - 1.0
        report["per_layer"] = layers
        report["traced_passes"] = len(traced)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = layers
    else:
        metrics = {"norm_wall_s": norm_wall["median"], "setup_s": setup_s["median"], "peak_rss_mb": peak_rss_mb}
    return report, correct, attempted, n_failed, metrics


def check_800() -> int:
    """Render the three 800-px figures and compare them with the counts in ROADMAP.md."""
    # (non-escape pixels, start of the pixel-payload sha256); none undetermined.
    want = {"sin_z3": (56640, "b70c2615"), "sin_z2": (91184, "21ed6da3"), "sin_z": (303920, "e9d020d7")}
    WORK.mkdir(exist_ok=True)
    results = {}
    for fn, (nonescape, sha) in want.items():
        out = WORK / f"check800-{fn}.ppm"
        argv = ["render", "--fn", fn, "--out", str(out), "--px", "800", "--threads", str(nproc())]
        dt, rc, _ = run_op(Op(f"render:{fn}@800", "render", argv, out))
        got = render_fingerprint(out) if rc == 0 else {"rc": rc}
        match = (
            got.get("nonescape") == nonescape
            and got.get("undetermined") == 0
            and got.get("pixels_sha256", "").startswith(sha)
        )
        results[fn] = {"want_nonescape": nonescape, "want_sha256_prefix": sha, **got, "seconds": dt, "match": match}
    ok = all(r["match"] for r in results.values())
    print(json.dumps({"check_800": results, "match": ok}))
    return 0 if ok else 1
