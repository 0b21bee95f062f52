"""spectruss benchmark: three workloads, output checks, outside-in layer timing.

Run from the root of a source checkout (the package is imported from ./src):

    python3 bench/run.py --workload lattice --seed 0 --seconds 25 --trace 0

Workloads: lattice, random-trusses, wavefront (see workloads.py). A run repeats
passes over the workload's inputs for --seconds and reports medians. Times are
scaled to a reference host speed by a probe loop that a timer runs while the
calls run (see hostspeed.py); the raw wall times are printed beside them. With --trace 0 the
result holds the end-to-end metrics; with --trace 1 untraced and traced passes
alternate, and the result holds the per-layer metrics and the tracing
overhead. Every run checks the outputs of its first pass. The last
line of standard output is the result as one JSON object; the lines before it
repeat the metrics, the checks and the environment for a reader.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 7
STAGES = ("sweep_s", "modes_s", "fem_s", "reverb_s", "simulate_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("lattice", "random-trusses", "wavefront"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced inputs, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "library_threads": 1,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_probe(args):
    """Import the package and build the workload's trusses, as a fresh process would.

    Returns the wall time and that time at the reference host speed.
    """
    from hostspeed import SpeedLog

    speed = SpeedLog()
    with speed.running():
        t0 = time.perf_counter()
        import spectruss  # noqa: F401
        import workloads

        workloads.build_inputs(args.workload, args.seed, small=args.small)
        speed.record("setup", t0, time.perf_counter())
    raw, scaled = speed.totals()
    return raw["setup"], scaled["setup"]


def setup_samples(args, root: Path):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    samples = []  # (wall seconds, seconds at reference speed)
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return samples


def fingerprint(workload, res):
    """Outputs of a pass reduced to what must repeat exactly from pass to pass."""
    if workload == "wavefront":
        return [(len(out["sim"].events), out["sim"].events[-1].time) if "sim" in out else None
                for out in res.outputs]
    return [
        (tuple(out["sweep"].omegas) if "sweep" in out else None,
         tuple(len(v) for v in out["modes"].values()),
         tuple(out.get("fem_consistent", ())), tuple(out.get("fem_lumped", ())),
         tuple(out.get("reverb", ())))
        for out in res.outputs
    ]


def summarize(workload, res):
    """Counts read from a pass's outputs, kept when the outputs themselves are dropped."""
    outs = res.outputs
    sims = [o["sim"] for o in outs if "sim" in o]
    res.summary = {
        "roots": sum(len(o["sweep"]) for o in outs if "sweep" in o),
        "roots.minima_accepted": sum(len(o.get("reverb", ())) for o in outs),
        "scattering.sim_events": sum(len(s.events) for s in sims),
        # fronts are read from the simulation's private history; left out if it goes away
        "scattering.sim_fronts": (sum(len(s._history) for s in sims)
                                  if all(hasattr(s, "_history") for s in sims) else None),
    }
    res.fingerprint = fingerprint(workload, res)


def timed_passes(workload, cases, budget, on_first, tracer=None, rebuild=None):
    """Passes until the next one would overrun the budget; at least one.

    With a tracer, untraced and traced passes alternate, so that both sample
    the same spells of machine load; every traced pass rebuilds the inputs
    under the tracer, for the model layer's metrics. on_first(res) receives
    the first pass's outputs. The outputs of every pass are dropped before the
    next one starts, so that a retained heap does not slow the garbage
    collector in later passes.
    """
    from workloads import run_pass

    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        traced = tracer is not None and len(passes) % 2 == 1
        if not traced:
            t0 = time.perf_counter()
            res = run_pass(workload, cases)
            dt = time.perf_counter() - t0
        else:
            tracer.reset()
            with tracer.installed():
                traced_cases = rebuild()
                t0 = time.perf_counter()
                res = run_pass(workload, traced_cases, span=tracer.span)
                dt = time.perf_counter() - t0
            res.layers = tracer.metrics()
            res.missing = list(tracer.missing)
        res.traced = traced
        res.seconds = sum(res.stages.values())  # wall time of the calls, without probes
        res.scaled_s = sum(res.scaled.values())
        summarize(workload, res)
        if not passes:
            on_first(res)
        res.outputs = None
        passes.append(res)
        elapsed = time.perf_counter() - start
        if elapsed + dt > budget and (tracer is None or len(passes) >= 2):
            return passes


class Checker:
    """Checks the first pass's outputs and then that every later pass repeats them.

    The x3-subdivided reference sweeps of random-trusses need more memory than
    the workload itself, so they run after the last pass, once its peak
    resident memory has been read; they keep only the root lists they compare.
    """

    def __init__(self, workload, cases):
        import checks

        self.workload, self.cases = workload, cases
        self.log = checks.CheckLog()
        self.info = {}
        self.deferred = []

    def first(self, res):
        import checks
        from workloads import WAVE_MIN_AMPLITUDE

        outputs = res.outputs
        if self.workload == "lattice":
            self.info = checks.check_lattice(self.log, self.cases[0], outputs[0])
        elif self.workload == "wavefront":
            self.info = checks.check_wavefront(self.log, self.cases[0], outputs[0],
                                               WAVE_MIN_AMPLITUDE)
        else:
            self.deferred = outputs

    def finish(self, passes):
        import checks
        from spectruss import find_natural_frequencies, subdivide

        for res in passes[1:]:
            self.log.record("repeatable", res.fingerprint == passes[0].fingerprint)
        for i, (case, out) in enumerate(zip(self.cases, self.deferred)):
            reference = find_natural_frequencies(subdivide(case.truss, 3), case.window).omegas
            checks.check_random(self.log, case, out, reference, f"draw {i}")
        self.deferred = []
        return self.log, self.info


def median(values):
    return statistics.median(values) if values else 0.0


def stage_medians(passes, times="scaled"):
    """Median over passes of each stage's seconds, scaled to reference speed or raw."""
    out = {}
    for stage in STAGES:
        parts = ("simulate_s", "profile_s") if stage == "simulate_s" else (stage,)
        out[stage] = median([sum(getattr(r, times).get(p, 0.0) for p in parts) for r in passes])
    return out


def layer_metrics(passes):
    """Median over traced passes of every per-layer metric, plus counts read from outputs."""
    per_pass = []
    for res in passes:
        layers = dict(res.layers)
        summary = res.summary
        if "spectrum.d_evals" in layers:
            roots = summary["roots"]
            layers["spectrum.d_evals_per_root"] = (
                layers["spectrum.d_evals"][0] / roots if roots else 0.0, "evals/root")
        for name in ("roots.minima_accepted", "scattering.sim_events", "scattering.sim_fronts"):
            if summary[name] is not None:
                layers[name] = (summary[name], "count")
        per_pass.append(layers)
    return {
        name: (median([p[name][0] for p in per_pass]), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported anywhere in this process
        os.environ[var] = "1"
    root = Path.cwd()
    src = root / "src"
    if not (src / "spectruss" / "__init__.py").is_file():
        print(f"error: {src / 'spectruss'} not found; run from the root of a spectruss "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_probe:
        print(json.dumps(setup_probe(args)))
        return 0

    import spectruss

    if Path(spectruss.__file__).resolve().parent != (src / "spectruss").resolve():
        print(f"error: imported spectruss from {spectruss.__file__}, not {src}", file=sys.stderr)
        return 2
    import checks
    from hostspeed import REF_PROBE_S
    from tracing import Tracer
    from workloads import build_inputs, run_pass

    def rebuild():
        return build_inputs(args.workload, args.seed, small=args.small)

    cases = rebuild()
    setup = setup_samples(args, root)
    # untimed warm-up on reduced inputs: lazy imports and first-call set-up
    # inside numpy and scipy happen here rather than in the first timed pass
    run_pass(args.workload, build_inputs(args.workload, args.seed, small=True))
    checker = Checker(args.workload, cases)
    passes = timed_passes(args.workload, cases, args.seconds, checker.first,
                          Tracer() if args.trace else None, rebuild)
    plain = [r for r in passes if not r.traced]
    traced = [r for r in passes if r.traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log, info = checker.finish(passes)

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    errors = [e for r in passes for e in r.errors]
    pass_norm_s = median([r.scaled_s for r in plain])
    stages = stage_medians(plain)
    if args.trace:
        metrics = {name: (value, "s") for name, value in stages.items()}
        metrics["trace.overhead_s"] = (median([r.scaled_s for r in traced]) - pass_norm_s, "s")
        metrics.update(layer_metrics(traced))
        metrics["check_fail_frac"] = (log.failed / log.attempted if log.attempted else 0.0,
                                      "ratio")
        metrics["checks.failed"] = (log.failed, "count")
        metrics["checks.attempted"] = (log.attempted, "count")
        metrics["checks.settled"] = (len(log.settled), "count")
    else:
        metrics = {
            "pass_norm_s": (pass_norm_s, "s"),
            "setup_s": (median([scaled for _, scaled in setup]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced pass(es), "
          "seconds at reference speed (wall): "
          + ", ".join(f"{r.scaled_s:.3f} ({r.seconds:.3f})" for r in plain)
          + (f"; {len(passes) - len(plain)} traced" if args.trace else ""))
    probes = [b - a for r in plain for a, b in zip(r.speed.starts, r.speed.ends)]
    print(f"host speed probe: median {median(probes) * 1e3:.2f} ms, quartiles "
          + ", ".join(f"{q * 1e3:.2f}" for q in statistics.quantiles(probes, n=4))
          + f" ms over {len(probes)}; reference {REF_PROBE_S * 1e3:.2f} ms")
    print("setup samples, seconds at reference speed (wall): "
          + ", ".join(f"{scaled:.3f} ({raw:.3f})" for raw, scaled in setup))
    print("stages (median s per pass at reference speed): "
          + ", ".join(f"{k}={v:.4f}" for k, v in stages.items()))
    print("stages (median wall s per pass): "
          + ", ".join(f"{k}={v:.4f}" for k, v in stage_medians(plain, "stages").items()))
    known = {k: n for k, n in log.failures.items() if k in checks.KNOWN}
    print(f"check_fail_frac = {log.failed}/{log.attempted}"
          f" = {log.failed / max(log.attempted, 1):.6f}; known defects {dict(known)};"
          f" unexplained {log.unexplained}")
    for kind, what in checks.KNOWN.items():
        if kind in known:
            print(f"  known: {kind} x{known[kind]}: {what}")
    for note in log.notes:
        print(f"  {note}")
    for note in log.settled:
        print(f"  settled by the inertia count: {note}")
    if info:
        print("check info: " + json.dumps(info))
    if args.trace and traced[0].missing:
        print("hooks absent: " + ", ".join(traced[0].missing))
    print(f"operations: {attempted} attempted, {failed} raised")
    for e in errors[:10]:
        print(f"  {e}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and log.unexplained == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
