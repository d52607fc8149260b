"""Seeded random instances, fixtures and per-sample walk helpers for the
test suites."""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from rootlift import is_admissible, sample_selfmap
from rootlift.base import BaseSpaceError
from rootlift.bundle import BundleError, RootBundle, build_bundle, poly_from_exprs
from rootlift.monodromy import loop_monodromy, permutation_cycles


def _fmt(x):
    return repr(float(x))


def _coef_text(rng, var, scale=0.8):
    """A low-order random trigonometric coefficient expression."""
    a = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    terms = [f"({_fmt(a[0].real)}+{_fmt(a[0].imag)}i)"
             .replace("+-", "-")]
    for k, coef in enumerate(a[1:], start=1):
        re, im = _fmt(coef.real), _fmt(coef.imag)
        terms.append(f"({re}+{im}i)*cos({k}*{var})".replace("+-", "-"))
        terms.append(f"({re}+{im}i)*sin({k}*{var})".replace("+-", "-"))
    return "+".join(terms)


def random_admissible_poly(base, degree, rng, max_tries=60):
    """Random admissible polynomial with trigonometric coefficients."""
    var = "x" if base.kind == "interval" else "theta"
    for _ in range(max_tries):
        texts = [_coef_text(rng, var) for _ in range(degree)]
        poly = poly_from_exprs(base, texts)
        if not is_admissible(poly).admissible:
            continue
        try:
            build_bundle(poly)
        except BundleError:
            continue
        return poly
    raise RuntimeError("no admissible random polynomial found")


def random_circle_selfmap(base, rng, max_winding=2):
    """Random self-map of winding degree in [-max_winding, max_winding]."""
    d = int(rng.integers(-max_winding, max_winding + 1))
    a = float(rng.uniform(0.0, 2 * np.pi))
    b = float(rng.uniform(0.0, 0.8))
    c = float(rng.uniform(0.0, 2 * np.pi))
    text = f"{d}*theta+{_fmt(a)}+{_fmt(b)}*sin(theta+{_fmt(c)})"
    return sample_selfmap(base, text)


def random_interval_selfmap(base, rng):
    """Random continuous self-map of [0, 1] (images stay in [0.05, 0.95])."""
    a = float(rng.uniform(0.3, 0.7))
    b = float(rng.uniform(0.0, 0.25))
    c = float(rng.uniform(0.0, 2 * np.pi))
    text = f"{_fmt(a)}+{_fmt(b)}*sin(3*x+{_fmt(c)})"
    return sample_selfmap(base, text)


def random_tree(n_vertices: int, rng) -> list[tuple[int, int]]:
    """Uniform-attachment random tree edges on ``n_vertices`` vertices."""
    return [(int(rng.integers(0, v)), v) for v in range(1, n_vertices)]


# -- fixtures -----------------------------------------------------------------------


@dataclass
class Monodromy:
    """Sheet permutations induced by the base's loop basis.

    ``perms[k]`` acts at the basepoint of loop k: slot i continues to slot
    perms[k][i] after one traversal.  Recomputing at a different basepoint
    conjugates the permutation, leaving the cycle type unchanged.
    """

    basepoints: list[int]
    perms: list[np.ndarray]

    def cycle_types(self) -> list[tuple[int, ...]]:
        return [tuple(sorted(len(c) for c in permutation_cycles(p)))
                for p in self.perms]


def bundle_monodromy(bundle: RootBundle) -> Monodromy:
    base = bundle.base
    basepoints = []
    perms = []
    for loop in base.loop_basis:
        basepoints.append(base.walk_samples(loop)[0])
        perms.append(loop_monodromy(bundle, loop))
    return Monodromy(basepoints, perms)


def synthetic_strip_bundle(circle, windings, radius: float = 1.0,
                           spacing: float = 4.0) -> RootBundle:
    """A branch-free circle bundle with prescribed strip windings.

    Strip k of winding a sits on a circle of the given radius around a
    center spaced ``spacing`` apart from its neighbors, so strips never
    interact.  Fibers are stored strip-by-strip (not canonically sorted);
    edge permutations are identity except at the seam, where each strip
    advances one sheet.
    """
    if circle.kind != "circle":
        raise BaseSpaceError("synthetic strips are built over circle bases")
    S = circle.n_samples
    n = sum(windings)
    fibers = np.empty((S, n), dtype=complex)
    thetas = np.asarray(circle.coords)
    offset = 0
    for si, a in enumerate(windings):
        center = spacing * si
        for k in range(a):
            fibers[:, offset + k] = center + radius * np.exp(
                1j * (thetas + 2 * np.pi * k) / a)
        offset += a
    perms = np.tile(np.arange(n, dtype=np.intp), (circle.n_edges, 1))
    seam = np.empty(n, dtype=np.intp)
    offset = 0
    for a in windings:
        for k in range(a):
            seam[offset + k] = offset + (k + 1) % a
        offset += a
    perms[circle.n_edges - 1] = seam
    return RootBundle(circle, n, fibers, perms,
                      np.zeros(S, dtype=bool), poly=None)


# -- reference matching -------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def exhaustive_match(tails, heads):
    """Exhaustive sheet matching, the reference for ``bundle._match_edges``.

    Per row of ``tails`` and ``heads`` (shape (m, n), or (n,) for one row),
    every permutation tail slot -> head slot is costed, in lexicographic
    order, by its squared distances summed in slot order; the first whose
    cost is within a relative 1e-12 of the least wins, so ties, exact or
    by rounding, go to the lexicographically first optimum.  The runner-up
    is the least cost once the winner's is removed (equal to the best on an
    exact tie).  Returns ``(perms, best, second)``, ``best`` being the
    winner's cost.

    Costs are built prefix by prefix: each of the n!/(n-k-1)! prefixes of
    length k+1 adds slot k's distance to its parent prefix's cost, so a
    permutation's cost is the same slot-order sum at a fraction of the
    work of summing every permutation's n terms.
    """
    tails, heads = np.atleast_2d(tails), np.atleast_2d(heads)
    m, n = tails.shape
    perms = _permutations(n)
    dist = np.abs(tails[:, :, None] - heads[:, None, :]) ** 2   # [row, tail slot, head slot]
    out = np.empty((m, n), dtype=np.intp)
    best, second = np.empty(m), np.empty(m)
    step = max(1, (1 << 18) // len(perms))
    for lo in range(0, m, step):
        block = dist[lo:lo + step]
        costs = np.zeros((len(block), 1))
        for k in range(n):
            heads_k = perms[::math.factorial(n - k - 1), k]
            costs = (costs[:, :, None]
                     + block[:, k, heads_k].reshape(len(block), -1, n - k)).reshape(len(block), -1)
        rows = np.arange(len(block))
        least = np.min(costs, axis=1, keepdims=True)
        first = np.argmax(costs <= least * (1.0 + 1e-12), axis=1)
        out[lo:lo + step], best[lo:lo + step] = perms[first], costs[rows, first]
        costs[rows, first] = np.inf
        second[lo:lo + step] = np.min(costs, axis=1)
    return out, best, second


# -- reference discriminant ---------------------------------------------------------


def root_discriminant(p) -> np.ndarray:
    """Discriminant as the product of squared root differences of each of
    ``p``'s sample fibers."""
    fibers = p.fibers
    prod = np.ones(p.base.n_samples, dtype=complex)
    for i, j in itertools.combinations(range(p.degree), 2):
        prod *= (fibers[:, i] - fibers[:, j]) ** 2
    return prod


def resultant_discriminant(p) -> np.ndarray:
    """Discriminant via the Sylvester resultant of p and p', the reference
    for :func:`root_discriminant`."""
    n = p.degree
    S = p.base.n_samples
    desc = np.concatenate([np.ones((S, 1), dtype=complex),
                           p.coeff_values[:, ::-1]], axis=1)      # t^n .. t^0
    k = np.arange(n, 0, -1, dtype=float)
    ddesc = desc[:, :n] * k[None, :]                              # derivative, deg n-1
    size = 2 * n - 1
    syl = np.zeros((S, size, size), dtype=complex)
    for i in range(n - 1):
        syl[:, i, i : i + n + 1] = desc
    for j in range(n):
        syl[:, n - 1 + j, j : j + n] = ddesc
    det = np.linalg.det(syl)
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    return sign * det


# -- per-sample walks -----------------------------------------------------------------


def incident(base, sample: int) -> list[tuple[int, int]]:
    """Edges at ``sample`` as (edge_id, direction), read from its row of
    the CSR adjacency; +1 when it is the tail."""
    lo, hi = base.adjacency.indptr[sample], base.adjacency.indptr[sample + 1]
    return list(zip(base.adj_edge[lo:hi].tolist(), base.adj_dir[lo:hi].tolist()))


def edge_endpoint(base, edge_id: int, direction: int) -> tuple[int, int]:
    """The (start, end) samples of an edge traversed in ``direction``."""
    a, b = base.edges[edge_id].tolist()
    return (a, b) if direction > 0 else (b, a)
