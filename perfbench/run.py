"""magcone benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload kernel-points --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; magcone is imported from its ``src``.
Each pass runs the workload's fixed op list (workloads.py); passes repeat
until --seconds have gone by.  Every op's time is rescaled by the ruler
samples around it (ruler.py): on a shared 2-vCPU Xeon VM the CPU speed
switches between regimes every few seconds, and the times are reported at
one reference speed (NOTES.md).  Times are medians over the passes.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics
(tracer.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines above it give
provenance, sample counts, raw times and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import bootstrap

# magcone, numpy and workloads are imported inside functions: set_up times
# their first import.

WORKLOADS = ("certify", "kernel-points", "spectral-lp")
SETUP_PROBES = 6  # fresh processes per run; with the run's own set-up, seven samples
MIN_PASSES = 2
MAX_TRACEBACKS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str, seed: int, workdir):
    """Import magcone, build the inputs and run one warm-up op of each kind.

    Returns the set-up time at the ruler's reference speed (the import,
    before the first sample, takes that sample's speed), the workload and
    the ruler, which goes on sampling through the run.
    """
    start = time.perf_counter()
    import magcone  # noqa: F401
    import workloads
    from ruler import Ruler

    ruler = Ruler()
    ruler.sample()
    ruler.start()
    workload = workloads.WORKLOADS[name](seed, workdir)
    for op in workload.warmups:
        op.call()
    end = time.perf_counter()
    ruler.stop()
    ruler.sample()
    return ruler.rescale(start, end)[0], workload, ruler


def probe_set_up(args) -> float:
    """Set-up time of a fresh process, which pays every import and cold cache."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {done.returncode}): {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class Pass:
    # per op, s at the ruler's reference speed
    wall: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    raw_wall: float = 0.0  # the pass's measured wall time, not rescaled
    status: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # workload's own per-pass counts
    layers: dict = field(default_factory=dict)  # traced passes only
    cache: tuple = (0, 0)  # genlaguerre_rule (hits, lookups) during the pass


def run_pass(workload, ruler, tracer, errors: list) -> Pass:
    from magcone import quadrature
    from workloads import FAIL

    out = Pass()
    workload.begin_pass()
    if tracer is not None:
        tracer.reset()
    timed = []  # per op: (start, end, cpu_s)
    before = quadrature.genlaguerre_rule.cache_info()
    ruler.sample()
    if tracer is None:
        ruler.start()
    for op in workload.ops:
        if tracer is not None:
            # between ops only, so that no span holds a sample
            ruler.sample_if_due()
            tracer.active = True
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op.call()
        except Exception:  # a raising op counts as failed; the run goes on
            result, status = None, FAIL
            errors.append(f"{op.kind}: {traceback.format_exc()}")
        else:
            status = None
        c1, w1 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.active = False
        if status is None:
            try:
                status = op.check(result)
            except Exception:
                status = FAIL
                errors.append(f"{op.kind} oracle: {traceback.format_exc()}")
        timed.append((w0, w1, c1 - c0))
        out.status.append(status)
    ruler.stop()
    ruler.sample()
    for start, end, cpu in timed:
        add_op(out, ruler, start, end, cpu)
    after = quadrature.genlaguerre_rule.cache_info()
    out.cache = (after.hits - before.hits,
                 after.hits + after.misses - before.hits - before.misses)
    out.counts = dict(workload.pass_counts)
    if tracer is not None:
        out.layers = {name: (s.calls, s.self_s, s.total_s, dict(s.counts))
                      for name, s in tracer.stats.items()}
    return out


def add_op(out: Pass, ruler, start: float, end: float, cpu: float) -> None:
    """Record one op less the ruler samples in it; its CPU time takes the rescaling of its wall time."""
    scaled, measured = ruler.rescale(start, end)
    cpu -= ruler.cpu_within(start, end)
    out.wall.append(scaled)
    out.cpu.append(cpu * scaled / measured if measured > 0.0 else cpu)
    out.raw_wall += measured


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


# ---------------------------------------------------------------------------
# layers and their metrics
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_values(counts, args, kwargs):
    # radial_profiles(cfg, k, m_max, r): (m_max + 1) values at each radius
    import numpy as np

    r = np.atleast_1d(_arg(args, kwargs, 3, "r"))
    counts["values"] += (int(_arg(args, kwargs, 2, "m_max")) + 1) * r.size


def _count_points(counts, args, kwargs):
    import numpy as np

    counts["points"] += np.size(_arg(args, kwargs, 0, "rho")) * np.size(_arg(args, kwargs, 1, "delta"))


def _track_cancellation(counts, result, args, kwargs):
    if abs(result.value) > 0.0:
        counts["max_cancellation"] = max(counts["max_cancellation"], result.largest_term / abs(result.value))


SWEEPS = ("weighted_dispersive_constant", "gaussian_heat_constant", "reduced_kernel_bound_scan",
          "angular_tail_l1_scan", "subordination_identity_check", "halfwave_decay_fit",
          "energy_conservation_check")

LAYERS = (
    [("spectrum", "radial_profiles", _count_values, None),
     ("spectrum", "expand", None, None),
     ("spectrum", "field_on_grid", None, None),
     ("spectrum", "spectral_apply", None, None),
     ("quadrature", "adaptive_panel", None, None),
     ("quadrature", "oscillatory_bessel_tail", None, None),
     ("kernels", "heat_kernel_series", None, _track_cancellation),
     ("kernels", "heat_kernel_closed", None, None),
     ("kernels", "schrodinger_kernel_series", None, _track_cancellation),
     ("kernels", "schrodinger_kernel_closed", None, None),
     ("kernels", "reduced_kernel_matrix", _count_points, None),
     ("kernels", "heat_closed_bracket_grid", None, None),
     ("kernels", "halfwave_kernel_grid", None, None),
     ("lpbesov", "bernstein_ratio", None, None),
     ("lpbesov", "besov_norm", None, None),
     ("lpbesov", "besov_report", None, None),
     ("lpbesov", "shell_project", None, None)]
    + [("verify", name, None, None) for name in SWEEPS + ("write_report",)]
    + [("cli", "main", None, None)]
)

# (metric, unit, layer, field): field is calls / self_s / total_s or a computed count
SPAN_METRICS = (
    [("spectrum.radial_profiles.calls", "count", "spectrum.radial_profiles", "calls"),
     ("spectrum.radial_profiles.values", "count", "spectrum.radial_profiles", "values"),
     ("spectrum.radial_profiles.self_s", "s", "spectrum.radial_profiles", "self_s"),
     ("spectrum.expand.self_s", "s", "spectrum.expand", "self_s"),
     ("spectrum.field_on_grid.self_s", "s", "spectrum.field_on_grid", "self_s"),
     ("spectrum.spectral_apply.calls", "count", "spectrum.spectral_apply", "calls"),
     ("quadrature.adaptive_panel.calls", "count", "quadrature.adaptive_panel", "calls"),
     ("quadrature.adaptive_panel.total_s", "s", "quadrature.adaptive_panel", "total_s"),
     ("quadrature.oscillatory_bessel_tail.self_s", "s", "quadrature.oscillatory_bessel_tail", "self_s")]
    + [(f"kernels.{name}.self_s", "s", f"kernels.{name}", "self_s")
       for name in ("heat_kernel_series", "heat_kernel_closed", "schrodinger_kernel_series",
                    "schrodinger_kernel_closed", "reduced_kernel_matrix", "heat_closed_bracket_grid",
                    "halfwave_kernel_grid")]
    + [("kernels.reduced_kernel_matrix.points", "count", "kernels.reduced_kernel_matrix", "points")]
    + [(f"lpbesov.{name}.self_s", "s", f"lpbesov.{name}", "self_s")
       for name in ("bernstein_ratio", "besov_norm", "besov_report")]
    + [("lpbesov.shell_project.calls", "count", "lpbesov.shell_project", "calls")]
    + [(f"verify.{name}.self_s", "s", f"verify.{name}", "self_s") for name in SWEEPS + ("write_report",)]
    + [("verify.weighted_dispersive_constant.calls", "count", "verify.weighted_dispersive_constant", "calls"),
       ("cli.main.self_s", "s", "cli.main", "self_s")]
)


def layer_value(snapshot: dict, layer: str, what: str) -> float:
    calls, self_s, total_s, counts = snapshot.get(layer, (0, 0.0, 0.0, {}))
    return {"calls": calls, "self_s": self_s, "total_s": total_s}.get(what, counts.get(what, 0))


def exact_counts(p: Pass) -> tuple:
    """Every count a traced pass makes; identical inputs must give identical counts."""
    layers = tuple(sorted((name, v[0], tuple(sorted(v[3].items())))
                          for name, v in p.layers.items()))
    return layers, p.cache, tuple(sorted(p.counts.items()))


def per_layer_metrics(untraced: list, traced: list) -> dict:
    first = traced[0]
    metrics = {}
    for metric, unit, layer, what in SPAN_METRICS:
        if what in ("self_s", "total_s"):
            value = statistics.median(layer_value(p.layers, layer, what) for p in traced)
        else:
            value = layer_value(first.layers, layer, what)
        metrics[metric] = {"value": value, "unit": unit}
    hits, lookups = first.cache
    metrics["quadrature.genlaguerre_rule.hit_ratio"] = {"value": hits / lookups if lookups else 0.0,
                                                        "unit": "ratio"}
    metrics["quadrature.genlaguerre_rule.lookups"] = {"value": lookups, "unit": "count"}
    metrics["kernels.series.max_cancellation"] = {
        "value": max(layer_value(first.layers, f"kernels.{n}", "max_cancellation")
                     for n in ("heat_kernel_series", "schrodinger_kernel_series")),
        "unit": "ratio"}
    for name, unit in (("verify.bytes_written", "bytes"), ("verify.artifacts_changed", "count")):
        metrics[name] = {"value": first.counts.get(name, 0), "unit": unit}
    failed, attempted, _, _ = failures(untraced + traced)
    metrics["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": pass_median(traced, "wall") - pass_median(untraced, "wall"),
                                   "unit": "s"}
    return metrics


def failures(passes: list) -> tuple:
    """(failed, attempted, known, unsteady) over the distinct ops of the op list.

    Every pass runs the same ops on the same inputs, so an op counts once:
    it failed if any pass failed it.  It is the known defect if every
    failure of it is; it is unsteady if the passes disagree on it.
    """
    from workloads import KNOWN, OK

    per_op = list(zip(*(p.status for p in passes)))
    failed_ops = [s for s in per_op if any(x != OK for x in s)]
    known = sum(all(x == KNOWN for x in s) for s in failed_ops)
    unsteady = sum(len(set(s)) > 1 for s in per_op)
    return len(failed_ops), len(per_op), known, unsteady


def pass_median(passes: list, what: str) -> float:
    """The median over passes of one pass's total time."""
    return statistics.median(sum(getattr(p, what)) for p in passes)


def op_medians(passes: list, what: str) -> list:
    """Each op's median time over the passes, in pass order."""
    return [statistics.median(times) for times in zip(*(getattr(p, what) for p in passes))]


def end_to_end_metrics(passes: list, setup_samples: list) -> dict:
    op_ms = sorted(1000.0 * w for w in op_medians(passes, "wall"))
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "wall_s": {"value": pass_median(passes, "wall"), "unit": "s"},
        "cpu_s": {"value": pass_median(passes, "cpu"), "unit": "s"},
        "op_p50_ms": {"value": nearest_rank(op_ms, 0.5), "unit": "ms"},
        "op_p90_ms": {"value": nearest_rank(op_ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def measure(args, workload, ruler, setup_samples: list) -> int:
    import magcone
    from ruler import NOMINAL_S
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(magcone, LAYERS)
    errors: list = []
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, ruler, None, errors))
        if tracer is not None:
            tracer.record_spans = not traced
            traced.append(run_pass(workload, ruler, tracer, errors))
        # stop at the pass end nearest to --seconds; an untraced run makes at
        # least MIN_PASSES so every op has a median of several samples
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(untraced)
        enough = tracer is not None or len(untraced) >= MIN_PASSES
        if enough and elapsed >= args.seconds - per_pass / 2.0:
            break

    passes = untraced + traced
    failed, attempted, known, unsteady = failures(passes)
    correct = failed == known and unsteady == 0
    print("provenance " + json.dumps(bootstrap.provenance(), sort_keys=True))
    n_ops = len(workload.ops)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced passes "
          f"of {n_ops} ops; times are medians over the untraced passes at the ruler's reference "
          f"speed; percentiles over {n_ops} ops ({n_ops - math.ceil(0.9 * n_ops)} beyond p90)")
    print("pass wall times (s), rescaled: " + ", ".join(f"{sum(p.wall):.4f}" for p in untraced))
    print("pass wall times (s), measured: " + ", ".join(f"{p.raw_wall:.4f}" for p in untraced))
    rs = sorted(1000.0 * s for s in ruler.values)
    print(f"ruler: {len(rs)} samples, min {rs[0]:.4f} / median {statistics.median(rs):.4f} / "
          f"max {rs[-1]:.4f} ms, reference {1000.0 * NOMINAL_S:g} ms")
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"failed {failed} of {attempted} distinct ops over {len(passes)} passes: {known} known "
          f"heat-series cancellation defect, {failed - known} other, {unsteady} with results "
          f"that differ between passes")
    for name, value in sorted(passes[0].counts.items()):
        print(f"{name} per pass: {value}")
    for text in errors[:MAX_TRACEBACKS]:
        print(text, file=sys.stderr)

    if tracer is not None:
        tracer.uninstall()
        if len({exact_counts(p) for p in traced}) != 1:
            print("computed counts differ between traced passes of the same inputs", file=sys.stderr)
            correct = False
        metrics = per_layer_metrics(untraced, traced)
        out_dir = bootstrap.ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"traced wall_s {pass_median(traced, 'wall'):.6g} s vs untraced "
              f"{pass_median(untraced, 'wall'):.6g} s; {len(tracer.spans)} spans "
              f"written to {spans.relative_to(bootstrap.ROOT)}")
    else:
        metrics = end_to_end_metrics(untraced, setup_samples)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bootstrap.prepare():
        print(f"error: no magcone sources under {bootstrap.SOURCE}", file=sys.stderr)
        return 2
    workdir = bootstrap.ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            seconds, _, _ = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        try:
            samples = [probe_set_up(args) for _ in range(SETUP_PROBES)]
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        own, workload, ruler = set_up(args.workload, args.seed, workdir)
        return measure(args, workload, ruler, samples + [own])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
