"""Batched fiber root solver.

Quadratic fibers are solved in closed form by the cancellation-free
quadratic formula, fibers of degree 3 and above by batched companion-matrix
eigenvalues.  Either way a few guarded Newton polishing sweeps then push
residuals to solver tolerance.  Fibers are returned in canonical order
(lexicographic by real part, then imaginary part), which numpy's complex
sort implements directly.  That is :func:`solve_fibers`, the one general
solve; :func:`track_fibers` solves a base's sample fibers by continuation
from every 16th row, with Weierstrass sweeps (Kerner 1966) certified by
inclusion discs (Braess & Hadeler 1973); rows they do not certify, as near
a coalescence, keep its bits.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"      # the solver's name, recorded in every verdict.json

_STRIDE = 16           # track_fibers solves rows 0, 16, 32, ... by solve_fibers
_SWEEPS = 8            # Weierstrass sweeps before a row falls back to solve_fibers
_RADIUS = 1e-10        # largest accepted disc radius, relative to max(1, |z|)


def _reduce_slots(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` of a (rows, n) array, n >= 1, one column
    at a time: numpy's reduction over a short trailing axis costs several
    times the work it reduces.  Bit for bit with ``np.logical_or`` and
    ``np.logical_and``, and with ``np.maximum`` and ``np.minimum`` on
    non-negative floats and NaN; where +0.0 and -0.0 meet, numpy's order
    can pick the other zero from n = 8.  Sums stay with numpy, which adds
    pairwise from n = 8."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Monic p at z, one array updated in place; coeffs are c_0..c_{n-1} per row."""
    p = np.ones(z.shape, dtype=np.result_type(coeffs, z))
    for k in range(coeffs.shape[1] - 1, -1, -1):
        p *= z
        p += coeffs[:, k, None]
    return p


def polish(coeffs: np.ndarray, roots: np.ndarray, sweeps: int = 3) -> np.ndarray:
    """Guarded Newton sweeps; steps are skipped where p' underflows, and
    where a step reaches half way to the root's nearest neighbour in the
    input row: near a multiple root Newton can throw one copy far off.
    Every sweep runs in place on the arrays allocated once here."""
    z = roots.copy()
    half_gap = np.full(z.shape, np.inf)
    for i in range(z.shape[1]):
        for j in range(i + 1, z.shape[1]):
            gap = 0.5 * np.abs(z[:, i] - z[:, j])
            np.minimum(half_gap[:, i], gap, out=half_gap[:, i])
            np.minimum(half_gap[:, j], gap, out=half_gap[:, j])
    p, dp, step = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    bound, size = np.empty(z.shape), np.empty(z.shape)
    ok = np.empty(z.shape, dtype=bool)
    for _ in range(sweeps):
        p.fill(1.0)                 # p and p' by Horner's rule
        dp.fill(0.0)
        for k in range(coeffs.shape[1] - 1, -1, -1):
            dp *= z
            dp += p
            p *= z
            p += coeffs[:, k, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(p, dp, out=step)       # a step too large is skipped below
        np.abs(z, out=bound)        # min(0.5 (1 + |z|), half_gap)
        bound += 1.0
        bound *= 0.5
        np.minimum(bound, half_gap, out=bound)
        np.greater(np.abs(dp, out=size), 1e-300, out=ok)
        ok &= np.less(np.abs(step, out=size), bound)
        np.subtract(z, step, out=z, where=ok)
    return z


def solve_fibers(coeffs: np.ndarray) -> np.ndarray:
    """Roots (with multiplicity) of monic fibers, one row per fiber.

    ``coeffs[s]`` holds the lower coefficients c_0..c_{n-1} of the monic
    degree-n polynomial at sample s.  The result row is sorted canonically.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)
    m, n = coeffs.shape
    if n == 0:
        return np.empty((m, 0), dtype=complex)
    if n == 1:
        return -coeffs.copy()
    if n == 2:
        # t^2 + b t + c0: q = -(b + s d)/2 with d = sqrt(b^2 - 4 c0) and the sign s
        # that makes |b + s d| largest, so q loses no digits to cancellation; the
        # other root is c0 / q (both are 0 where q is 0, i.e. b = c0 = 0)
        c0, b = coeffs[:, 0], coeffs[:, 1]
        d = np.sqrt(b * b - 4.0 * c0)
        roots = np.empty((m, 2), dtype=complex)
        q = roots[:, 0]
        np.multiply(np.where((b * d.conj()).real >= 0, b + d, b - d), -0.5, out=q)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(c0, q, out=roots[:, 1])
        roots[q == 0] = 0.0
        # the division can leave -0.0 where eigenvalues give +0.0; adding +0.0
        # keeps every other value and makes those zeros positive
        roots += 0.0
    else:
        comp = np.zeros((m, n, n), dtype=complex)
        idx = np.arange(1, n)
        comp[:, idx, idx - 1] = 1.0
        comp[:, :, n - 1] = -coeffs
        roots = np.linalg.eigvals(comp)
    roots = polish(coeffs, roots)
    return np.sort(roots, axis=1)


def track_fibers(coeffs: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """:func:`solve_fibers` for rows in base-sample order, by continuation:
    rows 0, 16, 32, ... by :func:`solve_fibers`, every other row by
    Weierstrass sweeps z_i -= W_i = p(z_i) / prod_{j != i} (z_i - z_j) from
    the roots of the nearest of them.  A row is polished and sorted once its
    discs D(z_i, n|W_i|), |p(z_i)| raised by Horner's rounding bound, have
    radii at most 1e-10 max(1, |z_i|) and are disjoint, so each holds one
    root; a row not accepted in 8 sweeps is solved by :func:`solve_fibers`.
    Given ascending ``rows``, only those are solved, from the same anchors
    and row by row, so the result is ``track_fibers(coeffs)[rows]``."""
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)
    m, n = coeffs.shape
    rows = np.arange(m) if rows is None else np.asarray(rows, dtype=np.intp)
    if not rows.size:
        return np.empty((0, n), dtype=complex)
    if n <= 2:          # the closed form, row by row; only a subset is copied
        return solve_fibers(coeffs[rows] if len(rows) < m else coeffs)
    near = np.minimum((rows + _STRIDE // 2) // _STRIDE, (m - 1) // _STRIDE) * _STRIDE
    first = np.diff(near, prepend=-1) != 0       # each anchor's rows are one run
    roots = np.take(solve_fibers(coeffs[near[first]]), np.cumsum(first) - 1, axis=0)
    left = np.flatnonzero(rows % _STRIDE)        # positions of the rows to track
    z, c, done = roots[left], coeffs[rows[left]], np.zeros(len(rows), dtype=bool)
    for _ in range(_SWEEPS):
        if not left.size:
            break
        with np.errstate(all="ignore"):
            p = horner(c, z)
            q = np.ones_like(z)             # prod_{j != i} (z_i - z_j)
            for j in range(n):
                d = z - z[:, j, None]
                d[:, j] = 1.0
                q *= d
            w = p / q
            lim = _RADIUS * np.maximum(1.0, np.abs(z))
            ok = _reduce_slots(np.logical_and, n * np.abs(w) <= lim)
            # where the discs are small, |p| plus Horner's rounding bound
            # 4n eps Σ|c_k||z|^k must keep them small, and disjoint
            k = np.flatnonzero(ok)
            zk = z[k]
            radius = n * (np.abs(p[k]) + 4 * n * np.finfo(float).eps
                          * horner(np.abs(c[k]), np.abs(zk))) / np.abs(q[k])
            fits = radius <= lim[k]
            for j in range(n):
                apart = np.abs(zk - zk[:, j, None]) > radius + radius[:, j, None]
                apart[:, j] = True
                fits &= apart
            ok[k] = np.all(fits, axis=1)     # on these few rows numpy measured as fast
        z -= w
        roots[left[ok]], done[left[ok]] = z[ok], True
        left, z, c = left[~ok], z[~ok], c[~ok]
    roots[done] = np.sort(polish(coeffs[rows[done]], roots[done]), axis=1)
    if left.size:
        roots[left] = solve_fibers(coeffs[rows[left]])
    return roots


def residuals(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    return np.abs(horner(np.ascontiguousarray(coeffs, dtype=complex), roots))
