"""Loop monodromy, strip decomposition, and bundle components."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import BaseSpaceError, node_components
from .bundle import RootBundle


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
    steps = np.asarray(loop, dtype=np.intp).reshape(-1, 2)
    perm = np.arange(bundle.degree, dtype=np.intp)
    for step in bundle.directed_perms(steps[:, 0], steps[:, 1]):
        perm = step[perm]
    return perm


def strips(bundle: RootBundle) -> StripDecomposition:
    """Cycle decomposition of the circle monodromy."""
    if bundle.base.kind != "circle":
        raise BaseSpaceError("strip decomposition is defined over circle bases")
    perm = loop_monodromy(bundle, bundle.base.loop_basis[0])
    cycles = permutation_cycles(perm)
    return StripDecomposition([(cyc, len(cyc)) for cyc in cycles])


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
              for s, clusters in bundle.merge_clusters.items()
              for cluster in clusters for i in cluster[1:]]
    pairs = np.concatenate([matched, np.asarray(merged, dtype=np.intp).reshape(-1, 2)])
    out = []
    for g in node_components(bundle.base.n_samples * n, pairs):
        samples, slots = divmod(g, n)
        out.append(set(zip(samples.tolist(), slots.tolist())))
    return out
