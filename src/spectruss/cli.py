"""Command-line frontend: frequency sweeps, modes, method comparison, benchmarks,
wavefront simulation and oracle verification.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import sys
import time
from pathlib import Path

from . import fem, scattering, spectrum, validation
from .model import TrussError, builtin_structure, load_truss, truss_to_json
from .scattering import EventExplosionError
from .spectrum import FrequencyWindow, NotARootError

METHODS = ("laplacian", "reverberation", "fem-consistent", "fem-lumped")

EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_truss(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TrussError(f"cannot read '{path}': {exc}") from exc
    return load_truss(text)


def _window(truss, args) -> FrequencyWindow:
    tau_min = truss.tau_min
    omega_min = args.omega_min if args.omega_min is not None else 0.05 / tau_min
    omega_max = args.omega_max if args.omega_max is not None else 1.2 * math.pi / tau_min
    return FrequencyWindow(omega_min, omega_max)


def _sweep(truss, method, window, divisions, threads):
    """Sorted (omega, kind) rows for one method; the network method lists each frequency once per mode kind."""
    if method == "laplacian":
        result = spectrum.find_natural_frequencies(truss, window, threads=threads)
        rows = []
        for m in result.modes:
            if not rows or rows[-1][1] != m.kind or abs(m.omega - rows[-1][0]) > window.tol_at(m.omega):
                rows.append((m.omega, m.kind))
        return rows
    if method == "reverberation":
        return [(w, "") for w in scattering.reverberation_frequencies(truss, window, threads=threads)]
    kind = method.split("-", 1)[1]
    freqs = fem.fem_frequencies(truss, window, kind=kind, divisions=divisions, threads=threads)
    return [(w, "") for w in freqs]


# -- subcommands -----------------------------------------------------------------


def cmd_example(args) -> int:
    sys.stdout.write(truss_to_json(builtin_structure(args.name, scale=args.scale)))
    return 0


def cmd_freqs(args) -> int:
    truss = _read_truss(args.file)
    window = _window(truss, args)
    rows = _sweep(truss, args.method, window, args.divisions, args.threads)
    if args.count is not None:
        rows = rows[: args.count]
    if args.format == "json":
        doc = [{"omega": w, "kind": kind} for w, kind in rows]
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print("index,omega,kind")
        for i, (w, kind) in enumerate(rows):
            print(f"{i},{_fmt(w)},{kind}")
    return 0


def cmd_modes(args) -> int:
    truss = _read_truss(args.file)
    try:
        modes = spectrum.extract_modes(truss, args.omega)
    except NotARootError as exc:
        hint = _nearest_root_hint(truss, args.omega, _window(truss, args))
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_NUMERICAL
    doc = []
    for mode in modes:
        doc.append(
            {
                "omega": mode.omega,
                "kind": mode.kind,
                "resonant_order": mode.resonant_order,
                "displacements": {j: list(v) for j, v in mode.displacements.items()},
                "anchor_forces": {j: list(v) for j, v in (mode.anchor_forces or {}).items()},
                "rod_amplitudes": mode.rod_amplitudes,
            }
        )
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _nearest_root_hint(truss, omega, window) -> str:
    lo = max(window.omega_min, omega * 0.7)
    hi = min(window.omega_max, omega * 1.3)
    if hi <= lo:
        return ""
    try:
        sweep = spectrum.find_natural_frequencies(truss, FrequencyWindow(lo, hi))
    except Exception:
        return ""
    if not sweep.modes:
        return " (no roots within 30% of this frequency; run `freqs` to locate them)"
    nearest = min(sweep.modes, key=lambda m: abs(m.omega - omega))
    return f" (nearest root: omega={_fmt(nearest.omega)})"


def cmd_compare(args) -> int:
    truss = _read_truss(args.file)
    window = _window(truss, args)
    divisions = _parse_divisions(args.divisions)
    count = args.count

    lap = [w for w, _ in _sweep(truss, "laplacian", window, 1, args.threads)][:count]
    print("method,divisions,index,omega,rel_error_vs_laplacian")
    for d in divisions:
        for i, w in enumerate(lap):
            print(f"laplacian,{d},{i},{_fmt(w)},0")
        for method in ("fem-consistent", "fem-lumped"):
            rows = _sweep(truss, method, window, d, args.threads)[:count]
            for i, (w, _) in enumerate(rows):
                err = min(abs(w - ref) / ref for ref in lap) if lap else float("nan")
                print(f"{method},{d},{i},{_fmt(w)},{_fmt(err)}")
    return 0


def cmd_bench(args) -> int:
    truss = _read_truss(args.file)
    window = _window(truss, args)
    divisions = _parse_divisions(args.divisions)

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    t_lap = timed(lambda: spectrum.find_natural_frequencies(truss, window, threads=args.threads))
    t_rev = timed(lambda: scattering.reverberation_frequencies(truss, window, threads=args.threads))
    print("divisions,laplacian_s,reverberation_s,fem_consistent_s,fem_lumped_s")
    for d in divisions:
        t_fc = timed(lambda: fem.fem_frequencies(truss, window, "consistent", d, threads=args.threads))
        t_fl = timed(lambda: fem.fem_frequencies(truss, window, "lumped", d, threads=args.threads))
        print(f"{d},{_fmt(t_lap)},{_fmt(t_rev)},{_fmt(t_fc)},{_fmt(t_fl)}")
    return 0


def cmd_simulate(args) -> int:
    if args.bins < 1:
        raise ValueError(f"--bins must be >= 1, got {args.bins}")
    truss = _read_truss(args.file)
    impulses = [_parse_impulse(truss, text) for text in args.impulse]
    sim = scattering.simulate_wavefronts(
        truss,
        impulses,
        t_max=args.t_max,
        min_amplitude=args.min_amplitude,
        front_cap=args.front_cap,
    )
    # every snapshot time is checked, and every file written, before the event log
    # is printed: a refused time or an unwritable prefix leaves stdout empty
    profiles = [(t, sim.stress_profile(t)) for t in args.snapshot or []]
    for t, profile in profiles:
        path = Path(f"{args.snapshot_prefix}{t:g}.csv")
        lines = ["rod,z_over_L,stress\n"]
        for rod in truss.rods:
            length = truss.rod_properties(rod).length
            segments = profile[rod.id]
            starts = [z0 for z0, _, _ in segments]
            for b in range(args.bins):
                z = (b + 0.5) / args.bins * length
                k = bisect.bisect_right(starts, z) - 1
                sigma = segments[k][2] if k >= 0 and z < segments[k][1] else 0.0
                lines.append(f"{rod.id},{_fmt(z / length)},{_fmt(sigma)}\n")
        try:
            path.write_text("".join(lines))
        except OSError as exc:
            raise ValueError(f"cannot write snapshot '{path}': {exc.strerror or exc}") from exc
        print(f"wrote {path}", file=sys.stderr)
    print("time,joint,rod_in,rod_out,amplitude")
    for ev in sim.events:
        rod_in = ";".join(r for r, _ in ev.incoming)
        for rod_out, amp in ev.outgoing:
            print(f"{_fmt(ev.time)},{ev.joint},{rod_in},{rod_out},{_fmt(amp)}")
    return 0


def _parse_impulse(truss, text: str):
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise TrussError(
            f"impulse '{text}' must be ROD:LAUNCH_JOINT:STRESS[:START_TIME]"
        )
    rod_id, joint_id, stress = parts[0], parts[1], float(parts[2])
    start = float(parts[3]) if len(parts) == 4 else 0.0
    try:
        rod = truss.rod(rod_id)
    except KeyError:
        raise TrussError(f"impulse references unknown rod '{rod_id}'") from None
    if joint_id == rod.joints[0]:
        direction = scattering.TOWARD_END
    elif joint_id == rod.joints[1]:
        direction = scattering.TOWARD_START
    else:
        raise TrussError(f"joint '{joint_id}' is not an endpoint of rod '{rod_id}'")
    return scattering.Impulse(rod=rod_id, direction=direction, stress_amplitude=stress, start_time=start)


def cmd_verify(args) -> int:
    checks = []
    if args.builtin:
        truss = builtin_structure(args.builtin)
        if args.builtin == "square":
            checks.extend(validation.verify_square(truss))
        else:
            checks.extend(validation.verify_bridge(truss))
        checks.extend(validation.verify_generic(truss))
    else:
        if not args.file:
            print("error: provide a structure file or --builtin", file=sys.stderr)
            return EXIT_INPUT
        truss = _read_truss(args.file)
        checks.extend(validation.verify_generic(truss))

    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"{c.name:<{width}}  expected={c.expected:<12.6g} actual={c.actual:<12.6g} "
            f"abs_err={c.abs_err:.3e} rel_err={c.rel_err:.3e}  {status}"
        )
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_NUMERICAL if failed else 0


def _parse_divisions(text: str):
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise TrussError(f"invalid divisions list '{text}'") from None
    if not values or any(v < 1 for v in values):
        raise TrussError(f"divisions must be positive integers, got '{text}'")
    return values


def _parse_snapshot_times(text: str):
    return [float(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectruss",
        description="Frequency-domain dynamics of elastic truss networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="print a built-in structure file")
    p.add_argument("name", choices=("square", "bridge"))
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_example)

    def add_window(p):
        p.add_argument("--omega-min", type=float, default=None)
        p.add_argument("--omega-max", type=float, default=None)
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("freqs", help="natural frequencies in a window")
    p.add_argument("file")
    p.add_argument("--method", choices=METHODS, default="laplacian")
    p.add_argument("--divisions", type=int, default=1, help="rod subdivisions (FEM methods)")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_window(p)
    p.set_defaults(func=cmd_freqs)

    p = sub.add_parser("modes", help="mode shapes and anchor forces at a natural frequency")
    p.add_argument("file")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--omega-min", type=float, default=None)  # the window of the nearest-root hint
    p.add_argument("--omega-max", type=float, default=None)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("compare", help="frequency vs subdivision table for all methods")
    p.add_argument("file")
    p.add_argument("--divisions", default="1,2,4,8")
    p.add_argument("--count", type=int, default=5)
    add_window(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="wall-time comparison of the four methods")
    p.add_argument("file")
    p.add_argument("--divisions", default="1,2,4,8")
    add_window(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="event-driven wavefront propagation")
    p.add_argument("file")
    p.add_argument(
        "--impulse", action="append", required=True,
        help="ROD:LAUNCH_JOINT:STRESS[:START_TIME]; negative stress = compression",
    )
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--min-amplitude", type=float, default=0.0)
    p.add_argument("--front-cap", type=int, default=1_000_000)
    p.add_argument("--snapshot", type=_parse_snapshot_times, default=None,
                   help="comma-separated times; one CSV written per time")
    p.add_argument("--snapshot-prefix", default="snapshot_")
    p.add_argument("--bins", type=int, default=100)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="closed-form oracle report")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", choices=("square", "bridge"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotARootError, EventExplosionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # TrussError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
