"""Spans around the library's public functions, recorded from outside `src/`.

`Tracer.installed()` swaps each traced function for a wrapper at every place
the package binds it (the defining module and each module that imported the
name), and restores the originals on exit.  Spans are kept in memory as
``[name, start, end, parent, op, info]`` lists; `layer_metrics` turns the
spans of one pass into the per-layer metrics named in BENCHMARK.json.

Traced passes run single-threaded, so the open-span stack is a plain list.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import Counter

import numpy as np
from expdyn import ClassifyParams, cli, grid


def _classify_info(args, kwargs, out):
    p = args[2] if len(args) > 2 else kwargs.get("p")
    max_iter = (p or ClassifyParams()).max_iter
    steps = out["steps"]
    codes = out["tag_code"]
    return {
        "points": int(steps.size),
        "point_steps": int(steps.sum()),
        "full_budget": int(np.count_nonzero(steps >= max_iter)),
        "escape": int(np.count_nonzero(codes == 1)),
        "nonescape": int(np.count_nonzero(codes == 2)),
        "undetermined": int(np.count_nonzero(codes == 0)),
    }


def _eval_info(args, kwargs, out):
    order = args[2] if len(args) > 2 else kwargs.get("order", 0)
    return {"points": int(np.size(args[1])), "order": int(order)}


def _mask_info(args, kwargs, out):
    return {"points": int(np.size(args[1]))}


def _e2_info(args, kwargs, out):
    return {"rows": int(args[3] if len(args) > 3 else kwargs["nr"])}


def _good_info(args, kwargs, out):
    return {"hit": int(bool(out))}


# (span name, module, attribute, info extractor).  The span name's first
# component is the layer the time is charged to: `iterate_max_modulus` lives
# in orbits.py but runs the scalar TowerMag code, so it is charged to towers.
TRACED = [
    ("raster.render_classification", "expdyn.raster", "render_classification", None),
    ("measure.annulus_scan", "expdyn.measure", "annulus_scan", None),
    ("orbits.classify_batch", "expdyn.orbits", "classify_batch", _classify_info),
    ("towers.iterate_max_modulus", "expdyn.orbits", "iterate_max_modulus", None),
    ("funcs.eval_log_batch", "expdyn.funcs", "eval_log_batch", _eval_info),
    ("exceptional.in_E_mask", "expdyn.exceptional", "in_E_mask", _mask_info),
    ("exceptional.e2_measure", "expdyn.exceptional", "e2_measure", _e2_info),
    ("grid.is_good_square", "expdyn.grid", "is_good_square", _good_info),
    ("grid.square_density_bound", "expdyn.grid", "square_density_bound", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at all of its import sites."""
        undo = []
        modules = [m for n, m in sys.modules.items() if n == "expdyn" or n.startswith("expdyn.")]
        for name, modname, attr, info in TRACED:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig, info)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, orig))
        orig_tile_at = grid.Tiling.tile_at
        grid.Tiling.tile_at = self.wrap("grid.tile_at", orig_tile_at)
        undo.append((grid.Tiling, "tile_at", orig_tile_at))
        orig_commands = dict(cli._COMMANDS)
        for cmd, fn in orig_commands.items():
            cli._COMMANDS[cmd] = self.wrap(f"cli.{cmd}", fn)
        try:
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)
            cli._COMMANDS.update(orig_commands)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, info) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "op": op, "info": info}
                    )
                    + "\n"
                )


def self_times(spans, lo, hi):
    """Per-span duration minus the durations of its direct children, for spans[lo:hi]."""
    own = {i: spans[i][2] - spans[i][1] for i in range(lo, hi)}
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent is not None:
            own[parent] -= spans[i][2] - spans[i][1]
    return own


def layer_metrics(spans, lo, hi, scale) -> dict:
    """Per-layer metrics of the spans recorded in one pass, spans[lo:hi].

    Times are multiplied by `scale`, the pass's conversion to seconds at the
    reference speed (see refkernel.py).  A layer the pass never reached
    reports 0.
    """
    own = self_times(spans, lo, hi)
    total, calls, own_of, layer_self, n = Counter(), Counter(), Counter(), Counter(), Counter()
    for i in range(lo, hi):
        name, t0, t1, _, _, info = spans[i]
        calls[name] += 1
        own_of[name] += scale * own[i]
        layer_self[name.split(".", 1)[0]] += scale * own[i]
        if info and info.get("order"):
            name = "funcs.eval_log_batch_deriv"  # orders 1-2 are timed apart from order 0
        total[name] += scale * (t1 - t0)
        for key, val in (info or {}).items():
            n[f"{name}.{key}"] += val

    def per(num, den, scale):
        return scale * num / den if den else 0.0

    steps = n["orbits.classify_batch.point_steps"]
    good = calls["grid.is_good_square"]
    return {
        "orbits.point_steps": steps,
        "orbits.ns_per_point_step": per(total["orbits.classify_batch"], steps, 1e9),
        "orbits.full_budget_frac": per(
            n["orbits.classify_batch.full_budget"], n["orbits.classify_batch.points"], 1.0
        ),
        "orbits.classify_batch.calls": calls["orbits.classify_batch"],
        "orbits.classify_batch.self_s": own_of["orbits.classify_batch"],
        "orbits.tags.escape": n["orbits.classify_batch.escape"],
        "orbits.tags.nonescape": n["orbits.classify_batch.nonescape"],
        "orbits.tags.undetermined": n["orbits.classify_batch.undetermined"],
        "funcs.eval_log_batch.ns_per_pt": per(
            total["funcs.eval_log_batch"], n["funcs.eval_log_batch.points"], 1e9
        ),
        "funcs.eval_log_batch_deriv.ns_per_pt": per(
            total["funcs.eval_log_batch_deriv"], n["funcs.eval_log_batch_deriv.points"], 1e9
        ),
        "funcs.eval_log_batch.calls": calls["funcs.eval_log_batch"],
        "funcs.self_s": layer_self["funcs"],
        "exceptional.in_E_mask.ns_per_pt": per(
            total["exceptional.in_E_mask"], n["exceptional.in_E_mask.points"], 1e9
        ),
        "exceptional.in_E_mask.calls": calls["exceptional.in_E_mask"],
        "exceptional.e2_measure.ms_per_row": per(
            total["exceptional.e2_measure"], n["exceptional.e2_measure.rows"], 1e3
        ),
        "grid.tile_at.us_per_query": per(total["grid.tile_at"], calls["grid.tile_at"], 1e6),
        "grid.is_good_square.calls": good,
        "grid.good_square_hit_ratio": per(n["grid.is_good_square.hit"], good, 1.0),
        "grid.square_density_bound.ms_per_square": per(
            total["grid.square_density_bound"], calls["grid.square_density_bound"], 1e3
        ),
        "towers.ladder_s": total["towers.iterate_max_modulus"],
        "measure.self_s": layer_self["measure"],
        "raster.self_s": layer_self["raster"],
        "cli.self_s": layer_self["cli"],
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
