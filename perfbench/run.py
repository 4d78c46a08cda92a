"""expdyn benchmark: end-to-end and per-layer metrics of the command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {bounded,escape,geometry} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --check-800      # one-off: the full 800-px figure counts

One process drives `expdyn.cli.main` in a closed loop with a single client:
timed passes of the workload's operations, one after another, until S
seconds (and at least three passes, or two traced and two untraced) have
been measured.  The library runs on
one thread except where a render is asked for `nproc` threads.  Outputs are
checked after the timed passes: every pass must repeat the first byte for
byte, golden fingerprints of the default seed must match (`correct`), and
independent oracles mark wrong results as failed operations (`failed`).

Pass and operation times are reported in seconds at the reference speed:
the reference kernel (refkernel.py) is timed between operations, and each
operation's seconds are scaled by REF_S over the mean of the kernel runs
just before and after it.  On a shared
2-core Xeon host a pass's raw time drifts by up to 1.9x in waves lasting
minutes; the scaling removes most of that drift, and the raw seconds stay in
the report.

With --trace 0 the last line carries the end-to-end metrics: `norm_wall_s`
(the median pass), `setup_s` (raw seconds, the median of fresh interpreters
importing expdyn and loading the bundled functions, one at a time) and `peak_rss_mb` (this process's peak after
the timed passes, from getrusage).  With --trace 1 timed passes alternate
untraced and traced; the last line carries the per-layer metrics of the
traced passes (see tracing.py), the render speed-up at `nproc` threads, the
numpy warning count and the tracing overhead; a layer the workload does not
reach reports 0.  The line before the last is a
full report: machine record, per-entry-point times (`render_s`, `scan_s`,
`e2measure_s`, `gridbound_s`) with sample counts, `fail_frac`, raw times,
failed operations and checks.

Which per-layer metric should move which end-to-end metric:

    orbits.point_steps, orbits.ns_per_point_step  norm_wall_s of bounded (render, scan)
    orbits.full_budget_frac        ~0.5 on bounded, ~0 on escape: what a bounded-orbit exit saves
    funcs.eval_log_batch.ns_per_pt norm_wall_s of bounded
    funcs.eval_log_batch_deriv.ns_per_pt  norm_wall_s of geometry (grid-bound)
    exceptional.in_E_mask.*        norm_wall_s of escape and geometry, not bounded
    exceptional.e2_measure.ms_per_row     norm_wall_s of geometry (e2measure)
    grid.*                         norm_wall_s of geometry (grid-bound)
    towers.ladder_s                norm_wall_s of escape (render)
    measure.self_s                 norm_wall_s of escape (scan)
    raster.self_s, cli.self_s      colouring and output writing, all workloads
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The library sees at most nproc threads: keep numpy's own pools to one.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("bounded", "escape", "geometry"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-800", action="store_true", help="check the 800-px figure counts and exit")
    args = p.parse_args(argv)
    if not args.check_800 and args.workload is None:
        p.error("--workload is required")

    if not (SRC / "expdyn" / "__init__.py").is_file():
        print(f"error: no expdyn sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import expdyn

    if Path(expdyn.__file__).resolve().parent != SRC / "expdyn":
        print(f"error: imported expdyn from {expdyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    if args.check_800:
        return bench.check_800()

    report, correct, attempted, n_failed, metrics = bench.benchmark(args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer"] if args.trace else declared["end_to_end"]
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": n_failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
