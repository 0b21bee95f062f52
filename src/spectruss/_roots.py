"""Determinant evaluators, the counting sweep, secant root polish, |det| minimum refinement.

All three sweeps ask where a stack of matrices goes singular, and one
counting sweep serves them: a count of the roots each interval holds, then a
polish on the sign of a real determinant, so timing comparisons between the
methods measure the matrices, not the root finder. determinant gives count
and sign for real symmetric stacks, bordered_determinant for the Schur
complement of a bordered one, unitary_determinant for the matching system.
modulus_minima, a grid search of |det| minima, is the reference the
tests hold the matching sweep to.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import optimize

# Largest stack of matrices, in bytes, that one determinant evaluation builds;
# longer lists of frequencies are evaluated chunk by chunk.
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


def _chunked(build, point_bytes, reduce, budget=None):
    """reduce(xs, build(xs)) -> arrays over chunks of xs that each build at most budget bytes.

    budget defaults to the BATCH_BYTES in force now. Every point is reduced
    on its own, so chunk seams do not change results.
    """
    step = max(1, (BATCH_BYTES if budget is None else budget) // max(1, point_bytes))

    def evaluate(xs):
        xs = np.asarray(xs, dtype=float)
        chunks = [xs[i : i + step] for i in range(0, max(xs.size, 1), step)]
        return _concatenate([reduce(chunk, build(chunk)) for chunk in chunks])

    return evaluate


def determinant(build, point_bytes: int):
    """(func, count) of the real symmetric matrix stack build(xs) -> (m, n, n), in chunks.

    func(xs) -> (sign, log|det|) arrays. count(xs) -> (negative eigenvalue
    counts,), which rise by one at each simple root of det between poles
    (Wittrick & Williams, Q. J. Mech. Appl. Math. 24 (1971) 263-284).
    """

    def negative(xs, stack):
        return (np.count_nonzero(np.linalg.eigvalsh(stack) < 0.0, axis=-1),)

    slogdet = _chunked(build, point_bytes, lambda xs, stack: np.linalg.slogdet(stack))
    return slogdet, _chunked(build, point_bytes, negative)


def bordered_determinant(build, widths, size: int):
    """determinant's (func, count) for the Schur complement D = F - Q C^-1 Q^T of bordered stacks.

    widths(xs) -> the border width k of each point; build(xs, k) -> (B, c)
    for points of width k: B = [[F, Q], [Q^T, diag(c)]] as an
    (m, size + k, size + k) stack and c as (m, k), with k = 0 for D itself.
    The points of each width are evaluated together, in chunks of their own
    size within the BATCH_BYTES in force when func and count are made. D
    itself is never formed: det D = det B / prod(c) and, by Haynsworth's
    inertia additivity, D has N(B) - N(diag(c)) negative eigenvalues. So
    where the entries of D diverge as c -> 0, its sign, log|det| and count
    come from the finite B.
    """
    budget = BATCH_BYTES

    def by_width(reduce):
        def at(xs, w):
            return _chunked(lambda chunk: build(chunk, w), 8 * (size + w) ** 2, reduce, budget)(xs)

        def evaluate(xs):
            xs = np.asarray(xs, dtype=float)
            k = widths(xs)
            if not k.any():
                return at(xs, 0)
            out = None
            for w in set(k.tolist()):
                rows = k == w
                values = at(xs[rows], w)
                out = out or tuple(np.empty(xs.size, dtype=v.dtype) for v in values)
                for column, value in zip(out, values):
                    column[rows] = value
            return out

        return evaluate

    def slogdet(xs, built):
        stack, corner = built
        sign, logabs = np.linalg.slogdet(stack)
        if not corner.size:
            return sign, logabs
        return sign * np.prod(np.sign(corner), axis=-1), logabs - np.log(np.abs(corner)).sum(axis=-1)

    def negative(xs, built):
        stack, corner = built
        below = np.count_nonzero(np.linalg.eigvalsh(stack) < 0.0, axis=-1)
        return (below - np.count_nonzero(corner < 0.0, axis=-1),)

    return by_width(slogdet), by_width(negative)


def unitary_determinant(build, point_bytes: int, delay: float):
    """(func, count) of build(xs) = I - V(x), V(x) = V(0) diag(exp(-i x tau_k)), in chunks.

    V(0) must be real orthogonal up to a real diagonal similarity, and delay =
    sum_k tau_k. V's eigenvalues exp(i theta_j) then lie on the unit circle
    and turn clockwise (d theta_j/dx = -v_j* diag(tau) v_j < 0), and a root is
    where one passes through 1.

    count(xs) -> (floor(y + 1/4),), y = (sum_j arg0 lambda_j + x delay) / 2 pi
    with arg0 in [0, 2 pi): as sum_j theta_j = arg det V(0) - x delay and
    det V(0) = +-1, y is an integer or an integer plus 1/2, and it rises by k
    at a root of multiplicity k. func(xs) -> (sign, log|det|), the sign being
    that of the real secular function det(I - V) exp(i x delay / 2) / u,
    u = (-i)^n sqrt(det V(0)), which is prod_j 2 sin(theta_j / 2) up to a
    constant sign (Kottos & Smilansky, Ann. Phys. 274 (1999) 76-124).
    """
    m0 = build(np.zeros(1))[0]
    u = (-1j) ** len(m0) * np.sqrt(complex(np.linalg.det(np.eye(len(m0)) - m0).real))

    def secular(xs, stack):
        sign, logabs = np.linalg.slogdet(stack)
        return np.sign((sign * np.exp(0.5j * delay * xs) / u).real), logabs

    def winding(xs, stack):
        turns = (np.angle(1.0 - np.linalg.eigvals(stack)) % (2.0 * math.pi)).sum(axis=-1)
        return (np.floor((turns + xs * delay) / (2.0 * math.pi) + 0.25).astype(int),)

    return _chunked(build, point_bytes, secular), _chunked(build, point_bytes, winding)


def find_brackets(count, segments, tol_at, threads=1, ends=None):
    """Count stage of the sweep: one-root brackets, multiple roots and warnings.

    count(xs) -> (counts,) must rise by one at every simple root inside each
    (lo, hi) segment and have no jump elsewhere, as the number of negative
    eigenvalues of D(omega) between two poles (the Wittrick-Williams count
    less its constant rod term) or of K - w^2 M, or a winding count. Every
    segment's ends are counted in one batched_eval call, unless the caller
    passes their counts as ends (in np.ravel(segments) order). Then every
    interval that holds two or more roots is halved, one call per level,
    until it holds one root (a bracket) or is narrower than tol_at, where
    _even_roots reports its roots once. An interval whose count falls is
    reported in the returned warnings and dropped; halving never crosses a
    seam between segments.

    Returns (roots, brackets, warnings); a bracket is (lo, hi).
    """
    if not segments:
        return [], [], []
    lo, hi = np.array(segments, dtype=float).T
    if ends is None:
        (ends,) = batched_eval(count, np.ravel(segments), threads)
    n_lo, n_hi = np.reshape(ends, (-1, 2)).T
    roots, brackets, falls = [], [], []
    while True:
        k = n_hi - n_lo
        falls.extend(
            (lo[i], f"count falls from {n_lo[i]} to {n_hi[i]} across [{lo[i]:.10g}, {hi[i]:.10g}]")
            for i in np.flatnonzero(k < 0)
        )
        one = k == 1
        brackets.extend(zip(lo[one], hi[one]))
        mid = 0.5 * (lo + hi)
        many = k > 1
        narrow = many & (hi - lo <= np.array([tol_at(x) for x in mid]))
        if narrow.any():
            roots.extend(_even_roots(lo[narrow], hi[narrow]))
        split = many & ~narrow
        if not split.any():
            break
        lo, hi, n_lo, n_hi, mid = (a[split] for a in (lo, hi, n_lo, n_hi, mid))
        (n_mid,) = batched_eval(count, mid, threads)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        n_lo, n_hi = np.concatenate([n_lo, n_mid]), np.concatenate([n_mid, n_hi])
    return roots, brackets, [message for _, message in sorted(falls)]


def _even_roots(lo, hi):
    """The k >= 2 step: one root per interval narrower than the tolerance.

    The count rises by k >= 2 across each such interval, which holds a root
    of multiplicity k or k roots closer than the tolerance; either is
    reported once, at its midpoint.
    """
    return (0.5 * (lo + hi)).tolist()


def _secant_step(a, b, c, width, shrunk, tol):
    """The next point of one bracket; a, b and c are (x, sign, log|f|) points.

    The secant through b and c if it falls between b and the midpoint and the
    bracket is at most half as wide as two steps ago (shrunk), else the
    midpoint; the step moves at least half a tolerance from b, toward a. The
    secant takes f(c)/f(b) from the log-moduli, so no |f| over- or underflows.
    """
    mid = 0.5 * (a[0] + b[0])
    try:
        x = b[0] - (b[0] - c[0]) / (1.0 - c[1] * b[1] * math.exp(min(c[2] - b[2], 700.0)))
    except ZeroDivisionError:
        x = mid
    if not ((x - b[0]) * (x - mid) <= 0.0 and width <= 0.5 * shrunk):
        x = mid
    if abs(x - b[0]) < 0.5 * tol:
        x = b[0] + math.copysign(0.5 * tol, a[0] - b[0])
    return x


def bisect_brackets(func, brackets, tol_at, threads=1):
    """The root of each one-root bracket (lo, hi), to tol_at(x); in bracket order.

    func(xs) -> (sign, log|f|). Brent's safeguarded secant (_secant_step) on
    each bracket, all brackets in one batched_eval call per step: b is the end
    of smaller |f|, a the end across the root and c the point the secant pairs
    with b (the previous b, or the newest point if that is not the best). The
    count stage has put one root and no pole in each bracket, so each one ends
    as a root: the midpoint of a bracket narrower than the tolerance.
    """
    if not brackets:
        return []
    ends = np.array(brackets, dtype=float).ravel()
    sign, logf = batched_eval(func, ends, threads)
    points = list(zip(ends.tolist(), sign.tolist(), logf.tolist()))
    # per bracket [a, b, c, width two steps ago, width one step ago]; the first
    # step bisects, since a secant from ends of very unequal |f| (one beside a
    # pole) barely moves
    state = []
    for p, q in zip(points[::2], points[1::2]):
        a, b = (q, p) if p[2] < q[2] else (p, q)
        state.append([a, b, a, 0.0, math.inf])
    roots = [0.0] * len(state)
    active = range(len(state))
    while True:
        stepping, xs = [], []
        for i in active:
            a, b, c, shrunk, previous = state[i]
            tol, width = tol_at(b[0]), abs(b[0] - a[0])
            if width <= tol:
                roots[i] = 0.5 * (a[0] + b[0])
            else:
                stepping.append(i)
                xs.append(_secant_step(a, b, c, width, shrunk, tol))
                state[i][3:] = previous, width
        if not stepping:
            return roots
        sign, logf = batched_eval(func, np.array(xs), threads)
        for i, new in zip(stepping, zip(xs, sign.tolist(), logf.tolist())):
            a, b = state[i][:2]
            if a[1] * new[1] >= 0:  # then b is the end across the root from the new point
                a = b
            # a new point that is not the best leaves b, and the next secant pairs b with it
            state[i][:3] = (new, a, new) if a[2] < new[2] else (a, new, b)
        active = stepping


def sign_sweep_roots(func, count, segments, tol_at, threads=1, ends=None):
    """Sorted, deduplicated roots of det over (lo, hi) segments, and warnings.

    The count stage (find_brackets, which takes ends) covers every segment,
    and one polish (bisect_brackets) every one-root bracket. func and count
    come from one determinant or unitary_determinant call; count must not
    fall inside a segment, so poles belong on seams.
    """
    roots, brackets, warnings = find_brackets(count, segments, tol_at, threads, ends)
    roots.extend(bisect_brackets(func, brackets, tol_at, threads=threads))
    return dedupe_sorted(sorted(roots), tol_at), warnings


def window_roots(func, count, window, threads=1):
    """sign_sweep_roots over a FrequencyWindow with no poles, as one segment; warnings are logged."""
    roots, warnings = sign_sweep_roots(
        func, count, [(window.omega_min, window.omega_max)], window.tol_at, threads=threads
    )
    for message in warnings:
        logging.getLogger("spectruss").warning(message)
    return roots


def _golden(f, bracket, tol):
    """The golden-section minimum of f in bracket (a, b, c), to about tol; b if it holds none."""
    b = bracket[1]
    try:
        res = optimize.minimize_scalar(
            f, bracket=bracket, method="golden",
            options={"xtol": tol / max(abs(b), 1e-30), "maxiter": 200},
        )
    except (ValueError, RuntimeError):
        return float(b)
    return float(res.x)


def dedupe_sorted(values, tol_at):
    out = []
    for v in values:
        if out and abs(v - out[-1]) <= tol_at(v):
            continue
        out.append(v)
    return out


def modulus_minima(func_log, lo, hi, n_points, xtol_at, threads=1):
    """Refined local minima of log|f| on [lo, hi] via golden-section.

    No sweep calls this grid search, nor _golden; tests keep it as the
    reference that the matching system's counting sweep is compared against.
    func_log(xs) -> log|f| array. An end grid point that undercuts its one
    neighbor may sit beside a minimum inside the end cell, which is then
    searched within the cell's bounds. Returns the minima's x; the caller
    decides which of them are actual zeros.
    """
    grid = np.linspace(lo, hi, max(int(n_points), 3))
    (vals,) = batched_eval(lambda xs: (func_log(xs),), grid, threads)
    interior = np.nonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1

    def scalar(x):
        return float(func_log(np.array([x]))[0])

    minima = [_golden(scalar, tuple(grid[i - 1 : i + 2]), xtol_at(grid[i])) for i in interior]
    for end, inner in ((0, 1), (-1, -2)):
        if vals[end] < vals[inner]:
            # searched in t = (x - end) / (inner - end) in [0, 1]: the bounded
            # method's tolerance has a term relative to |t|, which x would make
            # ~1e-8 relative to omega, too coarse for the zero test
            x0, width = grid[end], grid[inner] - grid[end]
            res = optimize.minimize_scalar(
                lambda t: scalar(x0 + t * width), bounds=(0.0, 1.0), method="bounded",
                options={"xatol": xtol_at(x0) / abs(width)},
            )
            minima.append(float(x0 + res.x * width))
    return minima
