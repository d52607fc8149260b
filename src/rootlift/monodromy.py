"""Loop monodromy, strip decomposition, and bundle components."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _reduce_slots
from .base import BaseSpaceError, node_components, node_labels
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
    """Composition of edge permutations along a closed walk, an (L, 2)
    array of (edge_id, direction) steps or a sequence of pairs; a step
    whose permutation is the identity is skipped."""
    steps = np.asarray(loop, dtype=np.intp).reshape(-1, 2)
    samples = bundle.base.walk_samples(steps)
    if samples[0] != samples[-1]:
        raise BaseSpaceError("monodromy walk is not closed")
    n = bundle.degree
    # a permutation is the identity exactly when its inverse is, so the
    # test needs no direction
    steps = steps[_reduce_slots(np.logical_or, bundle.edge_perms[steps[:, 0]] != np.arange(n))]
    perm = np.arange(n, dtype=np.intp)
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


def _point_graph(bundle: RootBundle) -> tuple[int, np.ndarray]:
    """The graph on bundle points (sample, slot), point (s, i) as node
    s * n + i: edge-matched slots are joined, and so are slots that
    coincide in value at a branch-flagged sample.  Returns the node count
    and the (P, 2) joined pairs."""
    n = bundle.degree
    edges = bundle.base.edges
    matched = np.column_stack([(edges[:, 0, None] * n + np.arange(n)).ravel(),
                               (edges[:, 1, None] * n + bundle.edge_perms).ravel()])
    merged = [(s * n + cluster[0], s * n + i)
              for s, clusters in bundle.merge_clusters.items()
              for cluster in clusters for i in cluster[1:]]
    pairs = np.concatenate([matched, np.asarray(merged, dtype=np.intp).reshape(-1, 2)])
    return bundle.base.n_samples * n, pairs


def components(bundle: RootBundle) -> list[set[tuple[int, int]]]:
    """Connected components of bundle points (sample, slot), as sets, in
    order of smallest point (see :func:`_point_graph`)."""
    out = []
    for g in node_components(*_point_graph(bundle)):
        samples, slots = divmod(g, bundle.degree)
        out.append(set(zip(samples.tolist(), slots.tolist())))
    return out


def component_count(bundle: RootBundle) -> int:
    """``len(components(bundle))``, read from the component labels alone."""
    return node_labels(*_point_graph(bundle))[0]
