"""Outside-in tracing: spans around calls into each layer of the package.

Nothing in the package knows it is traced. For one traced pass the Tracer
replaces module-level names with wrappers, under the name each caller looks
them up by, and restores every one of them afterwards. A hook whose target no
longer exists is skipped and the metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

# benchmark stage span -> layer whose sweep it runs, for attributing _roots.batched_eval
SWEEPS = {"sweep_s": "spectrum", "fem_s": "fem", "reverb_s": "scattering"}


class _ModuleProxy:
    """Stands in for a module inside another module's namespace, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _label(owner, attr) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.patched = []  # (owner, attribute, original) in patch order
        self.missing = []  # hook targets that do not exist
        self.reset()

    def reset(self):
        self.stack = []  # open spans: [name, seconds covered by children]
        self.total = Counter()  # name -> inclusive seconds
        self.self_time = Counter()  # name -> seconds not covered by child spans
        self.child = Counter()  # (parent, child) -> seconds
        self.calls = Counter()  # name -> spans closed
        self.counts = Counter()  # counter name -> value
        self.peak = Counter()  # counter name -> maximum value

    # -- spans ------------------------------------------------------------------

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            self.total[name] += dt
            self.self_time[name] += dt - frame[1]
            self.calls[name] += 1
            if parent is not None:
                parent[1] += dt
                self.child[(parent[0], name)] += dt

    def sweep(self) -> str:
        """Layer whose sweep is running, innermost first."""
        for name, _ in reversed(self.stack):
            if name in SWEEPS:
                return SWEEPS[name]
        return "none"

    def parent(self) -> str:
        return self.stack[-1][0] if self.stack else "none"

    def inside(self, name) -> bool:
        return any(frame[0] == name for frame in self.stack)

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr, replacement, original):
        setattr(owner, attr, replacement)
        self.patched.append((owner, attr, original))

    def hook(self, owner, attr, name, after=None):
        """Wrap owner.attr in a span; after(args, result) may record counts."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(_label(owner, attr))
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name(args) if callable(name) else name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper, original)
        return True

    def traced_builder(self, build, name, counter):
        """Wrap a batched matrix builder: count points and the largest batch in bytes."""

        def traced(omegas, *args, **kwargs):
            with self.span(name):
                out = build(omegas, *args, **kwargs)
            self.counts[f"{counter}_points"] += out.shape[0]
            self.counts[f"{counter}_points/{self.sweep()}"] += out.shape[0]
            self.peak[f"{counter}_bytes"] = max(self.peak[f"{counter}_bytes"], out.nbytes)
            return out

        return traced

    def install(self):
        from spectruss import _roots, fem, model, scattering, spectrum

        self.missing = []
        count = self.counts

        def add(key, fn=len):
            def after(args, result):
                count[key] += fn(result)
            return after

        self.hook(model.Truss, "__init__", "model.build")
        self.hook(fem, "subdivide", "model.subdivide")
        for attr in ("assemble_stiffness", "assemble_mass", "_free_basis"):
            self.hook(fem, attr, "fem.setup")

        def wrap_result(owner, attr, name, counter):
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(_label(owner, attr))
                return

            @functools.wraps(original)
            def evaluator(*args, **kwargs):
                return self.traced_builder(original(*args, **kwargs), name, counter)

            self._patch(owner, attr, evaluator, original)

        wrap_result(spectrum, "laplacian_evaluator", "assembly.batch", "assembly.batch")
        wrap_result(scattering, "matching_evaluator", "scattering.matching", "scattering.matching")
        self.hook(spectrum, "assemble_laplacian", "assembly.single")
        self.hook(spectrum, "resonant_mode_check", "spectrum.resonant",
                  after=lambda args, result: count.update(
                      {"spectrum.poles_checked": 1, "spectrum.resonant_modes": len(result)}))

        def batched_name(args):
            points = len(args[1])
            count[f"roots.batched_points/{self.sweep()}"] += points
            count[f"roots.batched_points@{self.parent()}"] += points
            return f"roots.batched_eval/{self.sweep()}"

        self.hook(_roots, "batched_eval", batched_name)
        self.hook(_roots, "find_brackets", "roots.find_brackets",
                  after=add("roots.brackets", lambda r: len(r[1])))
        self.hook(_roots, "bisect_brackets", "roots.bisect_brackets")
        self.hook(_roots, "_even_roots", "roots.even_roots", after=add("roots.even_accepted"))
        self.hook(_roots, "modulus_minima", "roots.modulus_minima", after=add("roots.minima_found"))

        optimize = getattr(_roots, "optimize", None)
        if optimize is None or not hasattr(optimize, "minimize_scalar"):
            self.missing.append("_roots.optimize.minimize_scalar")
        else:
            def minimize_scalar(*args, **kwargs):
                if self.inside("roots.even_roots"):
                    count["roots.even_dips"] += 1
                return optimize.minimize_scalar(*args, **kwargs)

            self._patch(_roots, "optimize", _ModuleProxy(optimize, minimize_scalar=minimize_scalar),
                        optimize)

    def uninstall(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- metrics ----------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset.

        A metric whose hook target is missing is left out.
        """
        t, s, c, n, child = self.total, self.self_time, self.counts, self.calls, self.child
        missing = set(self.missing)

        def needs(*targets):
            return not any(x in missing for x in targets)

        out = {}

        def put(name, unit, value, *targets):
            if needs(*targets):
                out[name] = (value, unit)

        put("model.build_s", "s", t["model.build"], "Truss.__init__")
        put("model.subdivide_s", "s", t["model.subdivide"], "fem.subdivide")
        batch = ("spectrum.laplacian_evaluator",)
        put("assembly.batch_s", "s", t["assembly.batch"], *batch)
        put("assembly.batch_points", "count", c["assembly.batch_points"], *batch)
        put("assembly.batch_peak_bytes", "bytes", self.peak["assembly.batch_bytes"], *batch)
        put("assembly.single_s", "s", t["assembly.single"], "spectrum.assemble_laplacian")
        put("assembly.single_calls", "count", n["assembly.single"], "spectrum.assemble_laplacian")
        det = "roots.batched_eval/spectrum"
        put("spectrum.factor_s", "s", t[det] - child[(det, "assembly.batch")],
            "_roots.batched_eval", *batch)
        put("spectrum.d_evals", "count", c["assembly.batch_points/spectrum"], *batch)
        resonant = "spectrum.resonant_mode_check"
        put("spectrum.resonant_s", "s", t["spectrum.resonant"], resonant)
        put("spectrum.poles_checked", "count", c["spectrum.poles_checked"], resonant)
        put("spectrum.resonant_modes", "count", c["spectrum.resonant_modes"], resonant)
        put("spectrum.modes_self_s", "s", t["modes_s"] - child[("modes_s", "assembly.single")],
            "spectrum.assemble_laplacian")
        put("roots.grid_s", "s", s["roots.find_brackets"], "_roots.find_brackets",
            "_roots.batched_eval")
        put("roots.grid_points", "count", c["roots.batched_points@roots.find_brackets"],
            "_roots.find_brackets", "_roots.batched_eval")
        put("roots.brackets", "count", c["roots.brackets"], "_roots.find_brackets")
        put("roots.bisect_s", "s", s["roots.bisect_brackets"], "_roots.bisect_brackets",
            "_roots.batched_eval")
        put("roots.bisect_evals", "count", c["roots.batched_points@roots.bisect_brackets"],
            "_roots.bisect_brackets", "_roots.batched_eval")
        put("roots.even_s", "s", t["roots.even_roots"], "_roots._even_roots")
        put("roots.even_dips", "count", c["roots.even_dips"], "_roots._even_roots",
            "_roots.optimize.minimize_scalar")
        put("roots.even_accepted", "count", c["roots.even_accepted"], "_roots._even_roots")
        put("roots.minima_s", "s", t["roots.modulus_minima"], "_roots.modulus_minima")
        put("roots.minima_found", "count", c["roots.minima_found"], "_roots.modulus_minima")
        put("fem.setup_s", "s", t["fem.setup"], "fem.assemble_stiffness", "fem.assemble_mass",
            "fem._free_basis")
        put("fem.det_s", "s", t["roots.batched_eval/fem"], "_roots.batched_eval")
        put("fem.det_points", "count", c["roots.batched_points/fem"], "_roots.batched_eval")
        matching = ("scattering.matching_evaluator",)
        put("scattering.matching_s", "s", t["scattering.matching"], *matching)
        put("scattering.matching_points", "count", c["scattering.matching_points"], *matching)
        put("scattering.sim_s", "s", t["simulate_s"])
        put("scattering.profile_s", "s", t["profile_s"])
        return out
