"""Sign-sweep bracketing, vectorized bisection and |det| minimum refinement.

One sign sweep serves the network-matrix and the FEM det(K - w^2 M) sweeps, and
the modulus sweep of the wave-amplitude matching system shares its grid rule and
golden-section refiner, so timing comparisons between methods measure the
matrices, not the root finder.
"""

from __future__ import annotations

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


def find_brackets(func, segments, tol_at, threads=1, refine=16, sigma_fn=None, sigma_tol=1e-7):
    """Grid stage of a determinant sweep: exact/even roots plus sign brackets.

    Every (lo, hi, n_points) segment gets its own linspace grid, and all grids
    are evaluated in one batched_eval call. The cell from one segment's end to
    the next one's start crosses a seam (where a pole may sit), so it yields
    no bracket and no dip. func(xs) -> (sign array, log|f| array), as from
    slogdet. Every bracketing cell is refined once, all in one more call; a
    cell holding more than one sign change after that is reported in the
    returned warnings.

    Even-multiplicity roots produce a |f| dip without a sign change; when
    sigma_fn(x) -> (sigma_min, sigma_max) of the underlying matrix is supplied,
    such dips are refined by golden-section on sigma_min and accepted as roots
    when sigma_min <= sigma_tol * sigma_max.

    Returns (roots, brackets, warnings); a bracket is (lo, hi, sign at lo).
    """
    if not segments:
        return [], [], []
    grids = [np.linspace(lo, hi, max(int(n), 2)) for lo, hi, n in segments]
    grid = np.concatenate(grids)
    inner = np.ones(grid.size - 1, dtype=bool)  # cell (i, i + 1) lies inside one segment
    inner[np.cumsum([g.size for g in grids])[:-1] - 1] = False
    sign, logabs = batched_eval(func, grid, threads)

    roots = grid[sign == 0.0].tolist()
    if sigma_fn is not None:
        roots.extend(_even_roots(grid, sign, logabs, inner, sigma_fn, sigma_tol, tol_at))
    change = np.nonzero((sign[:-1] * sign[1:] < 0) & inner)[0]
    if change.size == 0:
        return roots, [], []

    # one refinement level inside every bracketing cell
    fine = np.linspace(0.0, 1.0, refine + 1)
    fine_x = grid[change, None] + (grid[change + 1] - grid[change])[:, None] * fine[None, :]
    fine_sign, _ = batched_eval(func, fine_x.ravel(), threads)
    fine_sign = fine_sign.reshape(fine_x.shape)
    crossing = fine_sign[:, :-1] * fine_sign[:, 1:] < 0
    counts = crossing.sum(axis=1)
    warnings = [
        f"grid too coarse near [{fine_x[i, 0]:.6g}, {fine_x[i, -1]:.6g}]: "
        f"{counts[i]} sign changes in one cell"
        for i in np.nonzero(counts > 1)[0]
    ]
    roots.extend(fine_x[fine_sign == 0.0].tolist())
    rows, cols = np.nonzero(crossing)
    brackets = list(zip(fine_x[rows, cols], fine_x[rows, cols + 1], fine_sign[rows, cols]))
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


def sign_sweep_roots(func, segments, tol_at, threads=1, refine=16,
                     sigma_fn=None, sigma_tol=1e-7):
    """Sorted, deduplicated roots of func over (lo, hi, n_points) segments, and warnings.

    One find_brackets pass covers every segment, one bisection pass every
    bracket. func must be smooth inside each segment; poles belong on seams.
    """
    roots, brackets, warnings = find_brackets(func, segments, tol_at, threads, refine,
                                              sigma_fn, sigma_tol)
    roots.extend(bisect_brackets(func, brackets, tol_at, threads=threads))
    return dedupe_sorted(sorted(roots), tol_at), warnings


def _golden(f, bracket, tol, fallback=None):
    """(x, f(x)) at the golden-section minimum of f in bracket (a, b, c), to about tol.

    When the bracket holds no minimum, returns (b, fallback).
    """
    b = bracket[1]
    try:
        res = optimize.minimize_scalar(
            f, bracket=bracket, method="golden",
            options={"xtol": tol / max(abs(b), 1e-30), "maxiter": 200},
        )
    except (ValueError, RuntimeError):
        return float(b), fallback
    return float(res.x), float(res.fun)


def _even_roots(grid, sign, logabs, inner, sigma_fn, sigma_tol, tol_at):
    """Sharp |f| dips without a sign change, refined on sigma_min of the matrix.

    A dip is a grid point whose two cells lie inside its segment (inner) and
    whose log|f| undercuts both neighbors by `depth`. Near an even-order zero
    sigma_min falls linearly (a V), so golden-section locates it to far better
    accuracy than the flat-bottomed |f| minimum.
    """
    depth = 1.5  # natural-log units a grid point must undercut its neighbors
    s_prev, s, s_next = sign[:-2], sign[1:-1], sign[2:]
    l_prev, l, l_next = logabs[:-2], logabs[1:-1], logabs[2:]
    skip = ((s_prev * s < 0) | (s * s_next < 0) | (s == 0) | (l > l_next) | (l >= l_prev)
            | (np.maximum(l_prev, l_next) - l < depth))
    dips = np.nonzero(inner[:-1] & inner[1:] & ~skip)[0] + 1

    roots = []
    for i in dips:
        x_star, _ = _golden(lambda x: sigma_fn(float(x))[0], tuple(grid[i - 1 : i + 2]),
                            tol_at(grid[i]))
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
    interior = np.nonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1

    def scalar(x):
        return float(func_log(np.array([x]))[0])

    return [_golden(scalar, tuple(grid[i - 1 : i + 2]), xtol_at(grid[i]), float(vals[i]))
            for i in interior]
