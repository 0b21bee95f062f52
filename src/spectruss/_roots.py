"""Sign-sweep bracketing, vectorized bisection and |det| minimum refinement.

One code path serves the network-matrix sweep, the FEM det(K - w^2 M) sweep and
the modulus sweep of the wave-amplitude matching system, so timing comparisons
between methods measure the matrices, not the root finder.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import optimize

# Largest stack of matrices, in bytes, that one determinant evaluation builds;
# longer grids are evaluated chunk by chunk.
BATCH_BYTES = 16 * 2**20


def _concatenate(parts):
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def batched_eval(func, xs: np.ndarray, threads: int = 1):
    """Evaluate func over xs, optionally split across a thread pool.

    func maps a 1-D array to a tuple of equally sized 1-D arrays. Results are
    concatenated in input order, so output is independent of thread count.
    """
    if threads <= 1 or xs.size < 4 * threads:
        return func(xs)
    chunks = np.array_split(xs, threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(func, chunks))
    return _concatenate(parts)


def chunked(func, point_bytes: int):
    """func applied to consecutive chunks of xs, each within BATCH_BYTES.

    func maps a 1-D array to a tuple of equally sized 1-D arrays and builds a
    stack of point_bytes per point. Every point is evaluated on its own, so
    the result does not depend on where the chunks split.
    """
    step = max(1, BATCH_BYTES // max(1, point_bytes))

    def run(xs):
        xs = np.asarray(xs)
        if xs.size <= step:
            return func(xs)
        return _concatenate([func(xs[i : i + step]) for i in range(0, xs.size, step)])

    return run


def grid_count(lo: float, hi: float, tau_min: float, density: float, minimum: int = 16) -> int:
    return max(minimum, int(math.ceil(density * (hi - lo) * tau_min)))


def find_brackets(func, lo, hi, n_points, threads=1, refine=16,
                  sigma_fn=None, sigma_tol=1e-7, tol_at=None):
    """Grid stage of a determinant sweep: exact/even roots plus sign brackets.

    func(xs) -> (sign array, log|f| array), as from slogdet. Each bracketing
    grid cell is refined once; a cell holding more than one sign change after
    refinement is reported in the returned warnings.

    Even-multiplicity roots produce a |f| dip without a sign change; when
    sigma_fn(x) -> (sigma_min, sigma_max) of the underlying matrix is supplied,
    such dips are refined by golden-section on sigma_min and accepted as roots
    when sigma_min <= sigma_tol * sigma_max.
    """
    warnings = []
    grid = np.linspace(lo, hi, max(int(n_points), 2))
    sign, logabs = batched_eval(func, grid, threads)

    roots = [float(x) for x, s in zip(grid, sign) if s == 0.0]
    if sigma_fn is not None:
        if tol_at is None:
            tol_at = lambda x: 1e-12 * max(abs(x), 1.0)
        roots.extend(_even_roots(grid, sign, logabs, sigma_fn, sigma_tol, tol_at))
    change = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if change.size == 0:
        return roots, [], warnings

    # one refinement level inside every bracketing cell
    brackets = []
    fine = np.linspace(0.0, 1.0, refine + 1)
    fine_x = grid[change, None] + (grid[change + 1] - grid[change])[:, None] * fine[None, :]
    fine_sign, _ = batched_eval(func, fine_x.ravel(), threads)
    fine_sign = fine_sign.reshape(fine_x.shape)
    for row_x, row_s in zip(fine_x, fine_sign):
        cells = np.nonzero(row_s[:-1] * row_s[1:] < 0)[0]
        if cells.size > 1:
            warnings.append(
                f"grid too coarse near [{row_x[0]:.6g}, {row_x[-1]:.6g}]: "
                f"{cells.size} sign changes in one cell"
            )
        roots.extend(float(x) for x, s in zip(row_x, row_s) if s == 0.0)
        brackets.extend((row_x[c], row_x[c + 1], row_s[c]) for c in cells)
    return roots, brackets, warnings


def bisect_brackets(func, brackets, tol_at, threads=1):
    """Vectorized bisection of sign-change brackets down to tol_at(x).

    Brackets whose |f| grows while the bracket shrinks are discarded as odd
    pole crossings rather than roots.
    """
    if not brackets:
        return []
    lo_b = np.array([b[0] for b in brackets])
    hi_b = np.array([b[1] for b in brackets])
    slo = np.array([b[2] for b in brackets])
    first_log = np.full(lo_b.shape, np.nan)
    last_log = np.full(lo_b.shape, np.nan)
    for _ in range(200):
        mid = 0.5 * (lo_b + hi_b)
        active = (hi_b - lo_b) > np.array([tol_at(x) for x in mid])
        if not active.any():
            break
        smid, logmid = batched_eval(func, mid[active], threads)
        idx = np.nonzero(active)[0]
        first_log[idx] = np.where(np.isnan(first_log[idx]), logmid, first_log[idx])
        last_log[idx] = logmid
        go_left = slo[idx] * smid < 0
        hi_b[idx[go_left]] = mid[idx[go_left]]
        lo_b[idx[~go_left]] = mid[idx[~go_left]]

    roots = []
    for l, h, f0, f1 in zip(lo_b, hi_b, first_log, last_log):
        if np.isfinite(f0) and np.isfinite(f1) and f1 > f0 + 2.0:
            continue  # |f| grew as the bracket shrank: odd-order pole, not a root
        roots.append(0.5 * float(l + h))
    return roots


def sign_sweep_roots(func, lo, hi, n_points, tol_at, threads=1, refine=16,
                     sigma_fn=None, sigma_tol=1e-7):
    """All roots of a smooth function on [lo, hi] visible to a determinant sweep."""
    roots, brackets, warnings = find_brackets(
        func, lo, hi, n_points, threads=threads, refine=refine,
        sigma_fn=sigma_fn, sigma_tol=sigma_tol, tol_at=tol_at,
    )
    roots.extend(bisect_brackets(func, brackets, tol_at, threads=threads))
    return sorted(roots), warnings


def _even_roots(grid, sign, logabs, sigma_fn, sigma_tol, tol_at):
    """Sharp |f| dips without a sign change, refined on sigma_min of the matrix.

    Near an even-order zero sigma_min falls linearly (a V), so golden-section
    locates it to far better accuracy than the flat-bottomed |f| minimum.
    """
    dips = []
    depth = 1.5  # natural-log units a grid point must undercut its neighbors
    for i in range(1, len(grid) - 1):
        if sign[i - 1] * sign[i] < 0 or sign[i] * sign[i + 1] < 0 or sign[i] == 0:
            continue
        if logabs[i] > logabs[i + 1] or logabs[i] >= logabs[i - 1]:
            continue
        if max(logabs[i - 1], logabs[i + 1]) - logabs[i] < depth:
            continue
        dips.append(i)

    roots = []
    for i in dips:
        bracket = (grid[i - 1], grid[i], grid[i + 1])

        def smin(x):
            lo_sv, _ = sigma_fn(float(x))
            return lo_sv

        try:
            res = optimize.minimize_scalar(
                smin, bracket=bracket, method="golden",
                options={"xtol": tol_at(grid[i]) / max(abs(grid[i]), 1e-30), "maxiter": 200},
            )
            x_star = float(res.x)
        except (ValueError, RuntimeError):
            x_star = float(grid[i])
        lo_sv, hi_sv = sigma_fn(x_star)
        if hi_sv > 0 and lo_sv <= sigma_tol * hi_sv:
            roots.append(x_star)
    return roots


def dedupe_sorted(values, tol_at):
    out = []
    for v in values:
        if out and abs(v - out[-1]) <= tol_at(v):
            continue
        out.append(v)
    return out


def modulus_minima(func_log, lo, hi, n_points, xtol_at, threads=1):
    """Refined local minima of log|f| on [lo, hi] via golden-section.

    func_log(xs) -> log|f| array. Returns (x, log|f|(x)) pairs; the caller
    decides which minima are actual zeros.
    """
    grid = np.linspace(lo, hi, max(int(n_points), 3))
    (vals,) = batched_eval(lambda xs: (func_log(xs),), grid, threads)
    minima = []
    interior = np.nonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1

    def scalar(x):
        return float(func_log(np.array([x]))[0])

    for i in interior:
        bracket = (grid[i - 1], grid[i], grid[i + 1])
        try:
            res = optimize.minimize_scalar(
                scalar, bracket=bracket, method="golden",
                options={"xtol": xtol_at(grid[i]) / max(abs(grid[i]), 1e-30), "maxiter": 200},
            )
            x = float(res.x)
            minima.append((x, float(res.fun)))
        except (ValueError, RuntimeError):
            minima.append((float(grid[i]), float(vals[i])))
    return minima
