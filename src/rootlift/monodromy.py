"""Loop monodromy, strip decomposition, and bundle components."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import BaseSpaceError, node_components
from .bundle import RootBundle


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


@dataclass
class StripDecomposition:
    """Monodromy cycles of a circle bundle: (basepoint slots, winding)."""

    strips: list[tuple[tuple[int, ...], int]]

    @property
    def windings(self) -> list[int]:
        return sorted(k for _, k in self.strips)


def permutation_cycles(perm: np.ndarray) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = int(perm[start])
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = int(perm[cur])
        cycles.append(tuple(cyc))
    return cycles


def loop_monodromy(bundle: RootBundle, loop) -> np.ndarray:
    """Composition of edge permutations along a closed walk."""
    base = bundle.base
    samples = base.walk_samples(loop)
    if samples[0] != samples[-1]:
        raise BaseSpaceError("monodromy walk is not closed")
    perm = np.arange(bundle.degree, dtype=np.intp)
    for eid, direction in loop:
        perm = bundle.step_perm(eid, direction)[perm]
    return perm


def bundle_monodromy(bundle: RootBundle) -> Monodromy:
    base = bundle.base
    basepoints = []
    perms = []
    for loop in base.loop_basis:
        basepoints.append(base.walk_samples(loop)[0])
        perms.append(loop_monodromy(bundle, loop))
    return Monodromy(basepoints, perms)


def strips(bundle: RootBundle) -> StripDecomposition:
    """Cycle decomposition of the circle monodromy."""
    if bundle.base.kind != "circle":
        raise BaseSpaceError("strip decomposition is defined over circle bases")
    perm = loop_monodromy(bundle, bundle.base.loop_basis[0])
    cycles = permutation_cycles(perm)
    return StripDecomposition([(cyc, len(cyc)) for cyc in cycles])


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


def components(bundle: RootBundle) -> list[set[tuple[int, int]]]:
    """Connected components of bundle points (sample, slot).

    Edge-matched slots are connected; slots that coincide in value at a
    branch-flagged sample are also connected there.
    """
    n = bundle.degree
    edges = bundle.base.edges
    # bundle point (s, i) is node s * n + i
    matched = np.column_stack([(edges[:, 0, None] * n + np.arange(n)).ravel(),
                               (edges[:, 1, None] * n + bundle.edge_perms).ravel()])
    merged = [(s * n + cluster[0], s * n + i)
              for s in np.flatnonzero(bundle.branch_flags).tolist()
              for cluster in bundle.merge_clusters(s) for i in cluster[1:]]
    pairs = np.concatenate([matched, np.asarray(merged, dtype=np.intp).reshape(-1, 2)])
    out = []
    for g in node_components(bundle.base.n_samples * n, pairs):
        samples, slots = divmod(g, n)
        out.append(set(zip(samples.tolist(), slots.tolist())))
    return out
