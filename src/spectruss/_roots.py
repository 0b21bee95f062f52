"""Determinant evaluators, the counting sweep, secant root polish, |det| minimum refinement.

All three sweeps ask where a stack of matrices goes singular, and one
counting sweep serves them: a count of the roots each interval holds, then a
polish on the sign of a real determinant, so timing comparisons between the
methods measure the matrices, not the root finder. determinant gives count
and sign for real symmetric stacks, bordered_determinant for the Schur
complement of a bordered one, unitary_determinant for the matching system.
Every count gives one record per point, (count, sign, log|det|): a real
symmetric count is the inertia of one Bunch-Kaufman LDL^T per matrix
(_ldl_inertia), which also gives the sign and log|det| there, and the
matching count's eigenvalues of I - V give them as their product. A sweep
keeps the records in one dict, so the polish starts from bracket ends the
count has evaluated and factors, by LU, only the points it adds: a banded LU
(band_slogdet) of the unbordered D where its pattern is narrow, built
straight into band storage (band_layout, whose one rule on the size and
half-bandwidth decides), a dense one (slogdet) elsewhere. near_null gives
the modes their null space from a partial eigensolve: the eigenpairs near
zero only.
modulus_minima, a grid search of |det| minima, is the reference the
tests hold the matching sweep to. scipy loads at the first factorization,
never on import: the module __getattr__ binds the attribute lapack
(scipy.linalg.lapack, which _ldl_inertia, band_slogdet and near_null call)
and optimize (scipy.optimize, which only modulus_minima uses) when each is
first read. So the wavefront simulator, which factors nothing, runs without
scipy.
"""

from __future__ import annotations

import importlib
import logging
import math
import numbers
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

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


def threaded(threads, *evaluators):
    """The evaluators, each calling batched_eval, the one place that splits work over threads.

    Each sweep wraps its (func, count) so where it makes them, and the root
    search takes them as plain evaluators. threads must be an integer >= 1:
    batched_eval would run 0, -1 or 2.5 serially.
    """
    if not (isinstance(threads, numbers.Integral) and not isinstance(threads, bool) and threads >= 1):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    return [lambda xs, func=func: batched_eval(func, xs, threads) for func in evaluators]


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


def _ldl_inertia(stack):
    """(negative eigenvalue counts, sign, log|det|) of each symmetric matrix of an (m, n, n) stack.

    One Bunch-Kaufman LDL^T per matrix (scipy.linalg.lapack.dsytrf, on the
    lower triangle, as eigvalsh reads it): A = P U D U^T P^T with D block
    diagonal, so by Sylvester's law of inertia A has D's negative eigenvalues,
    and det A = det D (Bunch & Kaufman, Math. Comp. 31 (1977) 163-179). Each
    2 x 2 block [[p, q], [q, r]], marked by two negative pivots, is replaced on
    the diagonal by a pair with its determinant and its negative eigenvalues;
    then every count, sign and log|det| is read off the diagonal. An exact
    zero pivot gives sign 0 and log|det| -inf.
    """
    m, n = stack.shape[:2]
    diag, upper = np.ones((m, n)), np.zeros((m, max(n - 1, 0)))
    pivots = np.ones((m, n), dtype=np.int32)
    if n:
        lapack = _scipy("lapack")
        lwork = int(lapack.dsytrf_lwork(n)[0])
        for i, a in enumerate(stack):
            lu, pivots[i], _ = lapack.dsytrf(a.T, lwork=lwork)  # a.T's upper triangle is a's lower
            diag[i], upper[i] = lu.diagonal(), lu.diagonal(1)
    if pivots.min(initial=1) < 0:
        # a block's pivots are consecutive, so its first has an odd count of negatives up to it
        two = pivots < 0
        i, k = np.nonzero(two & (np.cumsum(two, axis=1) % 2 == 1))
        p, q, r = diag[i, k], upper[i, k], diag[i, k + 1]
        det = p * r - q * q
        # det < 0: one negative eigenvalue; else both have the sign of the trace
        s = np.where(det < 0.0, 1.0, np.sign(p + r))
        diag[i, k], diag[i, k + 1] = det * s, s
    with np.errstate(divide="ignore"):
        logabs = np.log(np.abs(diag)).sum(axis=1)
    return np.count_nonzero(diag < 0.0, axis=1), np.prod(np.sign(diag), axis=1), logabs


def band_layout(rows, n):
    """(kl, positions) of the band storage for the flat positions rows (i * n + j) of an
    n x n matrix, or None where that matrix is factored dense.

    kl is the half-bandwidth, max |i - j| over rows. A band stack holds each
    matrix as an (n, 3 kl + 1) array whose transpose is LAPACK's band storage
    for dgbtrf (kl sub- and super-diagonals and kl more rows for the fill-in
    of pivoting): entry (i, j) at [j, 2 kl + i - j]; positions are those of
    rows in the flattened array. The band is taken where n >= 64 and
    3 kl <= n: there, on braced lattices, assembly and banded LU per point
    were 1.3 (n / kl = 3.4) to 9 (480 DOF, kl 35) times faster than with
    the dense LU, on one thread. Below 64 DOF they were up to 2 times
    slower, and below n / kl = 3 their gain was small and unsteady.
    """
    i, j = np.divmod(np.asarray(rows), n)
    kl = int(np.abs(i - j).max(initial=0))
    if not (n >= 64 and 3 * kl <= n):
        return None
    return kl, j * (3 * kl + 1) + 2 * kl + i - j


def band_slogdet(stack):
    """(sign, log|det|) of each matrix of a band stack (m, n, 3 kl + 1) (band_layout), as slogdet gives.

    One banded LU with partial pivoting per matrix (LAPACK dgbtrf; Golub &
    Van Loan, Matrix Computations, 4th ed. (2013) 4.3): det = (-1)^s prod diag(U),
    s the number of rows ipiv exchanges, U's diagonal in row 2 kl of the band
    storage. An exact zero pivot (info > 0) gives sign 0 and log|det| -inf.
    The stack is overwritten.
    """
    m, n, width = stack.shape
    kl = (width - 1) // 3
    diag, pivots = np.ones((m, n)), np.zeros((m, n), dtype=np.int32)
    lapack = _scipy("lapack")
    for k, band in enumerate(stack):
        lu, pivots[k], info = lapack.dgbtrf(band.T, kl, kl, overwrite_ab=1)
        _lapack_check(min(info, 0), "dgbtrf")
        diag[k] = 0.0 if info else lu[2 * kl]
    exchanges = np.count_nonzero(pivots != np.arange(n), axis=1)
    with np.errstate(divide="ignore"):
        logabs = np.log(np.abs(diag)).sum(axis=1)
    return (1 - 2 * (exchanges % 2)) * np.prod(np.sign(diag), axis=1), logabs


def _lapack_check(info, routine):
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine} returned info = {info}")


def near_null(matrix, tol):
    """(smax, values, vectors) of a symmetric matrix: smax = max |eigenvalue|, and the
    eigenpairs of |eigenvalue| <= tol * smax, values ascending, vectors as columns.

    A partial eigensolve (Demmel, Applied Numerical Linear Algebra (1997)
    5.3): one Householder reduction to a tridiagonal T (dsytrd, on the lower
    triangle, as eigh reads it); Sturm-sequence bisection on T (dstebz) for
    its least and greatest eigenvalues, then for those in the window, whose
    lower end is widened by one ulp since dstebz takes (vl, vu]; inverse
    iteration on T (dstein) for their eigenvectors only, which the reflectors
    map back to the matrix's coordinates (dormqr). Raises
    np.linalg.LinAlgError where a LAPACK call fails.
    """
    n = len(matrix)
    if not n:
        return 0.0, np.zeros(0), np.zeros((0, 0))
    lapack = _scipy("lapack")
    c, d, e, tau, info = lapack.dsytrd(matrix, lower=1, lwork=int(lapack.dsytrd_lwork(n, lower=1)[0]))
    _lapack_check(info, "dsytrd")
    e = e if n > 1 else np.zeros(1)  # the wrappers take an off-diagonal of at least one entry
    abstol = 2.0 * np.finfo(float).tiny  # dstebz's most accurate setting, for dstein
    ends = []
    for i in (1, n):  # range 2: by index
        _, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 0.0, i, i, abstol, b"E")
        _lapack_check(info, "dstebz")
        ends.append(w[0])
    smax = max(-ends[0], ends[1])
    bound = tol * smax
    # range 1: by value; order "B" groups them by split-off block, as dstein needs
    m, w, block, split, info = lapack.dstebz(d, e, 1, math.nextafter(-bound, -math.inf), bound, 0, 0, abstol, b"B")
    _lapack_check(info, "dstebz")
    if not m:
        return smax, np.zeros(0), np.zeros((n, 0))
    z, info = lapack.dstein(d, e, w[:m], block, split)
    _lapack_check(info, "dstein")
    if n > 1:  # Q = diag(1, H_1 ... H_{n-1}), the reflectors below c's subdiagonal
        # lwork m, the least: the unblocked form, which suits the window's few columns
        z[1:], _, info = lapack.dormqr(b"L", b"N", c[1:, : n - 1], tau, z[1:], m)
        _lapack_check(info, "dormqr")
    order = np.argsort(w[:m], kind="stable")
    return smax, w[order], z[:, order]


def determinant(build, point_bytes: int):
    """(func, count) of the real symmetric matrix stack build(xs) -> (m, n, n), in chunks.

    func(xs) -> (sign, log|det|) arrays, by LU (slogdet). count(xs) ->
    (counts, sign, log|det|), a record per point from one LDL^T per matrix
    (_ldl_inertia): the negative eigenvalue counts, which rise by one at each
    simple root of det between poles (Wittrick & Williams, Q. J. Mech. Appl.
    Math. 24 (1971) 263-284), with the sign and log|det| that func gives.
    """
    slogdet = _chunked(build, point_bytes, lambda xs, stack: np.linalg.slogdet(stack))
    return slogdet, _chunked(build, point_bytes, lambda xs, stack: _ldl_inertia(stack))


def _unborder(corner, sign, logabs):
    """B's sign and log|det| less those of its corner diag(c), c as (m, k): D's, by the Schur complement."""
    if not corner.size:
        return sign, logabs
    return sign * np.prod(np.sign(corner), axis=-1), logabs - np.log(np.abs(corner)).sum(axis=-1)


def bordered_determinant(build, widths, size: int, band=None):
    """determinant's (func, count) for the Schur complement D = F - Q C^-1 Q^T of bordered stacks.

    widths(xs) -> the border width k of each point; build(xs, k) -> (B, c)
    for points of width k: B = [[F, Q], [Q^T, diag(c)]] as an
    (m, size + k, size + k) stack and c as (m, k), with k = 0 for D itself.
    The points of each width are evaluated together, in chunks of their own
    size within the BATCH_BYTES in force when func and count are made. D
    itself is never formed: det D = det B / prod(c) and, by Haynsworth's
    inertia additivity, D has N(B) - N(diag(c)) negative eigenvalues. So
    where the entries of D diverge as c -> 0, the record count gives, its
    count, sign and log|det|, comes from the finite B. band is None where D
    is factored dense, else (width, build_band), build_band(xs) -> D's band
    stack (m, size, width) (band_layout) for points of border width 0, whose
    func then takes one banded LU each (band_slogdet).
    """
    budget = BATCH_BYTES

    def by_width(reduce, unbordered=None):
        def at(xs, w):
            if w == 0 and unbordered:
                return unbordered(xs)
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
        return _unborder(corner, *np.linalg.slogdet(stack))

    def inertia(xs, built):
        stack, corner = built
        below, sign, logabs = _ldl_inertia(stack)
        return (below - np.count_nonzero(corner < 0.0, axis=-1), *_unborder(corner, sign, logabs))

    banded = band and _chunked(band[1], 8 * size * band[0], lambda xs, stack: band_slogdet(stack), budget)
    return by_width(slogdet, banded), by_width(inertia)


def unitary_determinant(build, point_bytes: int, delay: float):
    """(func, count) of build(xs) = I - V(x), V(x) = V(0) diag(exp(-i x tau_k)), in chunks.

    V(0) must be real orthogonal up to a real diagonal similarity, and delay =
    sum_k tau_k. V's eigenvalues exp(i theta_j) then lie on the unit circle
    and turn clockwise (d theta_j/dx = -v_j* diag(tau) v_j < 0), and a root is
    where one passes through 1.

    count(xs) -> (floor(y + 1/4), sign, log|det|), y = (sum_j arg0 lambda_j +
    x delay) / 2 pi with arg0 in [0, 2 pi): as sum_j theta_j = arg det V(0) -
    x delay and det V(0) = +-1, y is an integer or an integer plus 1/2, and
    it rises by k at a root of multiplicity k. func(xs) -> (sign, log|det|),
    the sign being that of the real secular function det(I - V) exp(i x
    delay / 2) / u, u = (-i)^n sqrt(det V(0)), which is prod_j 2 sin(theta_j
    / 2) up to a constant sign (Kottos & Smilansky, Ann. Phys. 274 (1999)
    76-124). func takes them from one LU (slogdet); count from the
    eigenvalues mu_j of I - V it has for y, as det(I - V) = prod_j mu_j: one
    complex log sum, whose real part is log|det| and whose imaginary part its
    phase. An exact zero mu_j gives log|det| -inf.
    """
    m0 = build(np.zeros(1))[0]
    u = (-1j) ** len(m0) * np.sqrt(complex(np.linalg.det(np.eye(len(m0)) - m0).real))
    arg_u = np.angle(u)

    def secular(xs, stack):
        sign, logabs = np.linalg.slogdet(stack)
        return np.sign((sign * np.exp(0.5j * delay * xs) / u).real), logabs

    def winding(xs, stack):
        mu = np.linalg.eigvals(stack)
        turns = (np.angle(1.0 - mu) % (2.0 * math.pi)).sum(axis=-1)
        with np.errstate(divide="ignore"):
            log = np.log(mu).sum(axis=-1)
        return (
            np.floor((turns + xs * delay) / (2.0 * math.pi) + 0.25).astype(int),
            np.sign(np.cos(log.imag + 0.5 * delay * xs - arg_u)),
            log.real,
        )

    return _chunked(build, point_bytes, secular), _chunked(build, point_bytes, winding)


def record_counts(count, xs, known):
    """count's counts at xs; each point's (count, sign, log|det|) is put in known."""
    values = count(xs)
    known.update(zip(xs.tolist(), zip(*(v.tolist() for v in values))))
    return values[0]


def find_brackets(count, segments, tol_at, known=None):
    """Count stage of the sweep: one-root brackets, multiple roots and warnings.

    count(xs) -> (counts, sign, log|det|) must rise by one at every simple
    root inside each (lo, hi) segment and have no jump elsewhere, as the
    number of negative eigenvalues of D(omega) between two poles (the
    Wittrick-Williams count less its constant rod term) or of K - w^2 M, or a
    winding count. Every counted point's record is put in the dict known, x
    -> (count, sign, log|det|), which the caller may pre-fill: the segment
    ends it lacks are counted in one call. Then every interval
    that holds two or more roots is halved, one call per level, until it
    holds one root (a bracket) or is narrower than tol_at, where _even_roots
    reports its roots. An interval whose count falls is reported in the
    returned warnings and dropped; halving never crosses a seam between
    segments.

    Returns (roots, brackets, warnings); a bracket is (lo, hi).
    """
    if not segments:
        return [], [], []
    known = {} if known is None else known
    ends = np.ravel(segments).tolist()
    missing = [x for x in dict.fromkeys(ends) if x not in known]
    if missing:
        record_counts(count, np.array(missing), known)
    lo, hi = np.array(segments, dtype=float).T
    n_lo, n_hi = np.reshape([known[x][0] for x in ends], (-1, 2)).T
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
            roots.extend(_even_roots(lo[narrow], hi[narrow], k[narrow]))
        split = many & ~narrow
        if not split.any():
            break
        lo, hi, n_lo, n_hi, mid = (a[split] for a in (lo, hi, n_lo, n_hi, mid))
        n_mid = record_counts(count, mid, known)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        n_lo, n_hi = np.concatenate([n_lo, n_mid]), np.concatenate([n_mid, n_hi])
    return roots, brackets, [message for _, message in sorted(falls)]


def _even_roots(lo, hi, k):
    """The k >= 2 step: k roots per interval narrower than the tolerance.

    The count rises by k >= 2 across each such interval, which holds a root
    of multiplicity k or k roots closer than the tolerance; either is
    reported k times, at its midpoint.
    """
    return np.repeat(0.5 * (lo + hi), k).tolist()


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


def bisect_brackets(func, brackets, tol_at, known):
    """The root of each one-root bracket (lo, hi), to tol_at(x); in bracket order.

    func(xs) -> (sign, log|f|). Both ends of every bracket are in the dict
    known, x -> (count, sign, log|f|), as find_brackets records them, so the
    polish evaluates only the points it adds. Brent's safeguarded secant
    (_secant_step) on each bracket, all brackets in one call of func per
    step: b is the end of smaller |f|, a the end across the root and c the
    point the secant pairs with b (the previous b, or the newest point if
    that is not the best). The count stage has put one root and no pole in
    each bracket, so each one ends as a root: the midpoint of a bracket
    narrower than the tolerance.
    """
    if not brackets:
        return []
    points = [(x, *known[x][1:]) for x in np.ravel(brackets).tolist()]
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
        sign, logf = func(np.array(xs))
        for i, new in zip(stepping, zip(xs, sign.tolist(), logf.tolist())):
            a, b = state[i][:2]
            if a[1] * new[1] >= 0:  # then b is the end across the root from the new point
                a = b
            # a new point that is not the best leaves b, and the next secant pairs b with it
            state[i][:3] = (new, a, new) if a[2] < new[2] else (a, new, b)
        active = stepping


def sign_sweep_roots(func, count, segments, tol_at, known=None):
    """Sorted roots of det over (lo, hi) segments, k times a k-fold one, and warnings.

    The count stage (find_brackets) covers every segment and records each
    counted point in known, which the caller may pre-fill; one polish
    (bisect_brackets) then starts every one-root bracket from those records.
    func and count come from one determinant, bordered_determinant or
    unitary_determinant call; count must not fall inside a segment, so
    poles belong on seams.
    """
    known = {} if known is None else known
    roots, brackets, warnings = find_brackets(count, segments, tol_at, known)
    roots.extend(bisect_brackets(func, brackets, tol_at, known))
    return sorted(roots), warnings


def window_roots(func, count, window):
    """sign_sweep_roots over a pole-free FrequencyWindow as one segment, each root once; logs warnings."""
    roots, warnings = sign_sweep_roots(func, count, [(window.omega_min, window.omega_max)], window.tol_at)
    log_warnings(warnings)
    return dedupe_sorted(roots, window.tol_at)


def log_warnings(messages):
    """Each of a sweep's warnings, through the "spectruss" logger."""
    for message in messages:
        logging.getLogger("spectruss").warning(message)


# The scipy modules bound on first read, by attribute name: imported with the
# package, they would take most of every start-up's time and half its memory.
_SCIPY = {"lapack": "scipy.linalg.lapack", "optimize": "scipy.optimize"}


def __getattr__(name):
    """Import _SCIPY[name] on the first read of the attribute name (lapack or optimize)
    and bind it here.

    A module __getattr__ (PEP 562) is consulted only for names not yet bound.
    """
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_SCIPY[name])
    globals()[name] = module
    return module


def _scipy(name):
    """The module attribute name (lapack or optimize): its scipy module, or whatever has replaced it.

    A bare name inside the module never consults __getattr__, so its users
    read it through the module.
    """
    return getattr(sys.modules[__name__], name)


def _golden(f, bracket, tol):
    """The golden-section minimum of f in bracket (a, b, c), to about tol; b if it holds none."""
    b = bracket[1]
    try:
        res = _scipy("optimize").minimize_scalar(
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


def modulus_minima(func_log, lo, hi, n_points, xtol_at):
    """Refined local minima of log|f| on [lo, hi] via golden-section.

    No sweep calls this grid search, nor _golden; tests keep it as the
    reference that the matching system's counting sweep is compared against.
    func_log(xs) -> log|f| array. An end grid point that undercuts its one
    neighbor may sit beside a minimum inside the end cell, which is then
    searched within the cell's bounds. Returns the minima's x; the caller
    decides which of them are actual zeros.
    """
    grid = np.linspace(lo, hi, max(int(n_points), 3))
    vals = func_log(grid)
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
            res = _scipy("optimize").minimize_scalar(
                lambda t: scalar(x0 + t * width), bounds=(0.0, 1.0), method="bounded",
                options={"xatol": xtol_at(x0) / abs(width)},
            )
            minima.append(float(x0 + res.x * width))
    return minima
