"""Discretized compact base spaces and sampled continuous self-maps.

A :class:`BaseSpace` is a finite 1-complex standing in for a compact
space: an interval, a circle, a subdivided multigraph, or a torus grid.
Samples carry coordinates, oriented edges carry the adjacency, and
``loop_basis`` generates the discrete fundamental group.  Edges and the
adjacency are arrays, and every graph walk (breadth-first search, hop
distances, connected components) runs on them in ``scipy.sparse.csgraph``.
A :class:`SelfMap` on a base with a coordinate chart (interval, circle,
torus) is its coordinate expressions and their exact values at the samples;
on a graph, which has no chart, it is each sample's image location (edge +
parameter).  Images need not land on sample points; ``image_samples``
names the sample nearest each image, and ``on_samples`` whether every image
is that sample up to rounding, so a pullback can tell when the map only
sends samples to samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra

from . import funcspec

TWO_PI = 2.0 * math.pi


class BaseSpaceError(ValueError):
    """Invalid construction parameters or continuity violations."""


@dataclass
class BaseSpace:
    """A sampled 1-complex.

    ``edges`` is an ``(E, 2)`` intp array of oriented (tail, head) sample
    indices; constructors may pass any sequence of pairs.  ``adjacency``
    is the (S, S) compressed sparse row matrix built from it once: row
    ``s`` lists the neighbours of sample ``s`` in edge-id order, one entry
    per incident edge (parallel edges stay separate entries), and
    ``adj_edge`` / ``adj_dir`` hold each entry's edge id and direction
    (+1 when ``s`` is the tail).
    """

    kind: str                      # interval | circle | graph | torus2
    coords: np.ndarray             # (S,) float for interval/circle, (S,2) for torus2/graph
    edges: np.ndarray              # (E, 2) intp oriented (tail, head) sample indices
    loop_basis: list[np.ndarray] = field(default_factory=list)
    # each loop is a closed walk: an (L, 2) intp array of (edge_id, direction)
    # steps, direction +-1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        S = self.n_samples
        edges = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= S):
            raise BaseSpaceError("edge references a sample outside the base")
        self_loops = np.flatnonzero(edges[:, 0] == edges[:, 1])
        if self_loops.size:
            raise BaseSpaceError(f"edge {int(self_loops[0])} connects a sample to itself")
        self.edges = edges
        # entries interleaved as (tail side, head side) per edge, so a stable
        # sort by sample keeps every row in edge-id order
        rows = edges.ravel()
        order = np.argsort(rows, kind="stable")
        E = len(edges)
        self.adj_edge = np.repeat(np.arange(E, dtype=np.intp), 2)[order]
        self.adj_dir = np.tile(np.array([1, -1], dtype=np.intp), E)[order]
        indptr = np.zeros(S + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=S), out=indptr[1:])
        self.adjacency = csr_matrix(
            (np.ones(2 * E), edges[:, ::-1].ravel()[order], indptr), shape=(S, S))
        self._trees: dict[int, tuple[np.ndarray, np.ndarray]] = {}   # spanning_tree by root
        self._check_loops()

    def _check_loops(self):
        for loop in self.loop_basis:
            if not len(loop):
                raise BaseSpaceError("empty loop in loop_basis")
            walk = self.walk_samples(loop)
            if walk[0] != walk[-1]:
                raise BaseSpaceError("loop_basis entry is not a closed walk")

    # -- structure ---------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return len(self.coords)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def walk_samples(self, walk) -> np.ndarray:
        """(L + 1,) samples visited by a walk of L (edge_id, direction)
        steps, given as an (L, 2) array or a sequence of pairs."""
        steps = np.asarray(walk, dtype=np.intp).reshape(-1, 2)
        ends = self.edges[steps[:, 0]]
        forward = steps[:, 1] > 0
        tails = np.where(forward, ends[:, 0], ends[:, 1])
        heads = np.where(forward, ends[:, 1], ends[:, 0])
        if np.any(tails[1:] != heads[:-1]):
            raise BaseSpaceError("walk is not edge-connected")
        return np.concatenate([tails[:1], heads])

    def bfs(self, sources) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first search from one sample or a sequence of samples.

        Samples are claimed as a FIFO queue seeded with ``sources`` claims
        them: the sources first, in the given order, then every other
        sample by the first claimed sample that reaches it, neighbours
        scanned in edge-id order.  Returns ``(order, pred)``: the claimed
        samples in claim order, and each sample's claimer (-1 for the
        sources and for samples no source reaches).
        """
        S = self.n_samples
        sources = np.atleast_1d(np.asarray(sources, dtype=np.intp))
        adj = self.adjacency
        # a virtual sample S whose row lists the sources seeds the queue
        seeded = csr_matrix(
            (np.ones(adj.nnz + len(sources)), np.concatenate([adj.indices, sources]),
             np.append(adj.indptr, adj.nnz + len(sources))), shape=(S + 1, S + 1))
        order, pred = breadth_first_order(seeded, S, directed=True,
                                          return_predecessors=True)
        pred = pred[:S].astype(np.intp)
        pred[(pred < 0) | (pred == S)] = -1
        return order[1:].astype(np.intp), pred

    def hops(self, source, mask=None, limit: float = np.inf) -> np.ndarray:
        """Edge count of a shortest path from ``source`` to every sample,
        ``inf`` where there is none or it is longer than ``limit``, one row
        per source when ``source`` is an array; with ``mask``, paths stay on
        the samples where it is True."""
        adj = self.adjacency
        if mask is not None:
            rows = np.repeat(np.arange(self.n_samples), np.diff(adj.indptr))
            keep = mask[rows] & mask[adj.indices]
            adj = csr_matrix((adj.data[keep], (rows[keep], adj.indices[keep])),
                             shape=adj.shape)
        return dijkstra(adj, directed=True, indices=source, unweighted=True, limit=limit)

    def components(self, mask) -> list[np.ndarray]:
        """Connected components of the samples where ``mask`` is True,
        joined by the edges with both ends there: one ascending sample
        array per component, in order of smallest sample."""
        mask = np.asarray(mask, dtype=bool)
        inside = np.flatnonzero(mask)
        position = np.cumsum(mask) - 1          # sample -> its index in ``inside``
        ends = self.edges[mask[self.edges[:, 0]] & mask[self.edges[:, 1]]]
        return [inside[c] for c in node_components(len(inside), position[ends])]

    def spanning_tree(self, root: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """BFS spanning tree from ``root``.

        Returns ``(tree, order)``: ``order`` is the (S,) BFS visit order
        including the root, and row k of the (S-1, 3) array ``tree`` is
        ``(sample, parent_edge, direction)`` for the k-th non-root sample in
        that order, giving the edge used to reach it (direction +1 means
        traversed tail->head).  Neighbours are visited in edge-id order and
        the parent edge is the lowest-id edge from the BFS predecessor.
        The pair is built once per root and kept, both arrays read-only.
        """
        root = int(root)
        if root in self._trees:
            return self._trees[root]
        S = self.n_samples
        order, pred = self.bfs(root)
        if len(order) != S:
            raise BaseSpaceError("base space is not connected")
        adj = self.adjacency
        rows = np.repeat(np.arange(S), np.diff(adj.indptr))
        hits = np.flatnonzero(pred[adj.indices] == rows)    # entries pred[c] -> c
        # a row lists its entries in edge-id order, so the first hit per
        # child is its lowest-id edge from the predecessor
        first = np.full(S, len(hits), dtype=np.intp)
        np.minimum.at(first, adj.indices[hits], np.arange(len(hits)))
        nodes = order[1:]
        entry = hits[first[nodes]]
        tree = np.column_stack([nodes, self.adj_edge[entry], self.adj_dir[entry]])
        tree.flags.writeable = order.flags.writeable = False
        self._trees[root] = tree, order
        return tree, order

    # -- coordinates -------------------------------------------------------

    def sample_locations(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical location of every sample as ``(edges, params)``:
        parameter 0 on its lowest-id outgoing edge, else parameter 1 on its
        lowest-id incoming edge."""
        E = self.n_edges
        ids = np.arange(E, dtype=np.intp)
        first_out = np.full(self.n_samples, E, dtype=np.intp)
        np.minimum.at(first_out, self.edges[:, 0], ids)
        first_in = np.full(self.n_samples, E, dtype=np.intp)
        np.minimum.at(first_in, self.edges[:, 1], ids)
        has_out = first_out < E
        return np.where(has_out, first_out, first_in), np.where(has_out, 0.0, 1.0)

    def location_coordinates(self, edges, params) -> np.ndarray:
        """Exact coordinates of locations given as edge and parameter arrays.

        Shape (K,) on interval and circle, (K, 2) on torus2.  Endpoint
        parameters return the sample coordinate bit-exactly, so a snapped
        sample location evaluates like the sample itself.
        """
        ends = self.edges[np.asarray(edges, dtype=np.intp)]
        t = np.asarray(params, dtype=float)
        ca, cb = self.coords[ends[:, 0]], self.coords[ends[:, 1]]
        if self.kind == "torus2":
            t = t[:, None]
        if self.kind == "interval":
            inner = ca + t * (cb - ca)
        else:
            inner = (ca + t * ((cb - ca) % TWO_PI)) % TWO_PI
        return np.where(t == 0.0, ca, np.where(t == 1.0, cb, inner))

    @property
    def spacing(self) -> float:
        """Coordinate length of each edge of an interval or circle."""
        return 1.0 / (self.n_samples - 1) if self.kind == "interval" else TWO_PI / self.n_samples

    def wrap(self, coords):
        """Interval or circle coordinates brought into the chart: clipped
        to [0, 1] on an interval, taken mod 2π on a circle."""
        return np.mod(coords, TWO_PI) if self.kind == "circle" else np.clip(coords, 0.0, 1.0)

    def coordinate_locations(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`location_coordinates` for coordinate-charted kinds."""
        coords = np.asarray(coords, dtype=float)
        n = self.n_samples
        if self.kind == "interval":
            pos = np.minimum(np.maximum(coords, 0.0), 1.0) * (n - 1)
            e = np.minimum(pos.astype(np.intp), n - 2)
        elif self.kind == "circle":
            pos = (coords % TWO_PI) / TWO_PI * n
            e = np.minimum(pos.astype(np.intp), n - 1)
        else:
            raise BaseSpaceError(f"no global chart for base kind {self.kind!r}")
        return e, pos - e

    def nearest_samples(self, edges, params) -> np.ndarray:
        """The sample nearest each location: the edge's tail where the
        parameter is below 0.5, its head otherwise."""
        ends = self.edges[np.asarray(edges, dtype=np.intp)]
        return np.where(np.asarray(params) < 0.5, ends[..., 0], ends[..., 1])

    def edge_ids(self, tails, heads) -> np.ndarray:
        """The lowest-id edge with tail ``tails[k]`` and head ``heads[k]``,
        or -1 where there is none: each tail's outgoing edges are tried in
        edge-id order, one per pass, the last pass first."""
        tails, heads = np.asarray(tails, dtype=np.intp), np.asarray(heads, dtype=np.intp)
        out_edges, first = self._out_edges
        start = first[tails]
        count = first[tails + 1] - start
        found = np.full(len(tails), -1, dtype=np.intp)
        for k in reversed(range(int(count.max(initial=0)))):
            e = np.take(out_edges, start + k, mode="clip")
            found = np.where((np.take(self.edges[:, 1], e) == heads) & (k < count), e, found)
        return found

    @functools.cached_property
    def _out_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Every sample's outgoing edges in edge-id order, grouped by sample
        (the adjacency's tail-side entries), and the (S + 1,) offsets of the
        groups; kept once per base, as :meth:`spanning_tree` keeps its trees."""
        first = np.zeros(self.n_samples + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.edges[:, 0], minlength=self.n_samples), out=first[1:])
        return self.adj_edge[self.adj_dir > 0], first


def node_components(n: int, pairs) -> list[np.ndarray]:
    """Connected components of the graph on nodes ``0..n-1`` whose edges
    are the rows of ``pairs``: one ascending node array per component, in
    order of smallest node."""
    if n == 0:
        return []
    _, labels = node_labels(n, pairs)
    nodes = np.argsort(labels, kind="stable")       # ascending within each label
    groups = np.split(nodes, np.cumsum(np.bincount(labels))[:-1])
    return sorted(groups, key=lambda g: int(g[0]))


def node_labels(n: int, pairs) -> tuple[int, np.ndarray]:
    """The component count and (n,) component label of each node of the
    graph on nodes ``0..n-1`` whose edges are the rows of ``pairs``."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    graph = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return connected_components(graph, directed=False)


@dataclass
class SelfMap:
    """A continuous self-map of a base, sampled at every sample.

    On interval, circle and torus2 bases the map is its parsed coordinate
    expressions ``exprs``, and ``image_coords`` holds their values at the
    samples as :meth:`image_coords_array` computes them: shape (S,) on
    interval and circle, (S, 2) on torus2.  A graph base has no chart, so
    there the map is a location table: sample ``s`` maps to parameter
    ``image_params[s]`` along edge ``image_edges[s]``.  Images need not land
    on sample points; :attr:`image_samples` is the sample nearest each.
    """

    base: BaseSpace
    exprs: tuple | None = None
    image_coords: np.ndarray | None = field(default=None, repr=False)
    image_edges: np.ndarray | None = None
    image_params: np.ndarray | None = None

    def image_coords_array(self, coords: np.ndarray) -> np.ndarray:
        """Exact image coordinates of the expressions at a coordinate array."""
        return _expression_images(self.base.kind, self.exprs, np.asarray(coords, dtype=float))

    @functools.cached_property
    def image_samples(self) -> np.ndarray:
        """(S,) the sample nearest each image: on a chart, each image
        coordinate rounded to the grid (modulo the sample count on a
        circle's or torus's coordinate); on a graph, the nearer end of the
        image's edge; :attr:`on_samples` tests it against rounding."""
        base = self.base
        if base.kind == "graph":
            return base.nearest_samples(self.image_edges, self.image_params)
        if base.kind == "interval":
            return np.rint(self.image_coords * (base.n_samples - 1)).astype(np.intp)
        sides = base.meta.get("shape", (base.n_samples,))
        steps = self.image_coords.reshape(base.n_samples, -1) / TWO_PI * np.array(sides)
        return np.ravel_multi_index(tuple(np.rint(steps).astype(np.intp).T), sides, mode="wrap")

    @functools.cached_property
    def on_samples(self) -> bool:
        """Whether each image coordinate lies within 4·eps·L of its
        :attr:`image_samples` entry's, L the chart period: 1 on the interval,
        2π per circle or torus coordinate, measured around the circle.
        False on a graph, which has no chart."""
        base = self.base
        if base.kind == "graph":
            return False
        S, period = base.n_samples, 1.0 if base.kind == "interval" else TWO_PI
        off = np.abs(self.image_coords.reshape(S, -1)
                     - np.take(base.coords.reshape(S, -1), self.image_samples, axis=0))
        # around the circle; on the interval off is at most half a step
        return bool(np.all(np.minimum(off, period - off) <= 4.0 * np.finfo(float).eps * period))


def _expression_images(kind: str, exprs, coords: np.ndarray):
    """Image coordinates of an expression self-map at ``coords``, clamped to
    [0, 1] on the interval and reduced mod 2*pi on circle coordinates.

    Each expression's value must be finite (:class:`funcspec.EvalError`),
    real and, on the interval, inside [0, 1] (:class:`BaseSpaceError`); the
    error raised is the first failing check at the first failing point.
    """
    names = funcspec.COORDINATES.get(kind)
    if names is None:
        raise BaseSpaceError(f"expression self-maps unsupported on kind {kind!r}")
    if len(exprs) != len(names):
        raise BaseSpaceError(
            f"a {kind} self-map takes {len(names)} coordinate expression(s) "
            f"({', '.join(names)}), got {len(exprs)}")
    env = funcspec.coordinate_env(kind, coords)
    shape = coords.shape[:1]
    checks, images = [], []
    with np.errstate(invalid="ignore"):
        for expr in exprs:
            v = np.broadcast_to(np.asarray(funcspec._eval(expr, env), dtype=complex), shape)
            x = v.real
            checks.append((~np.isfinite(v), lambda s: funcspec.not_finite(env, s)))
            checks.append((np.abs(v.imag) > 1e-9, lambda s, v=v: BaseSpaceError(
                f"self-map image {complex(v[s])} is not a real coordinate")))
            if kind == "interval":
                checks.append(((x < -1e-9) | (x > 1.0 + 1e-9), lambda s, x=x: BaseSpaceError(
                    f"self-map image {float(x[s])} outside [0, 1]")))
                images.append(np.minimum(np.maximum(x, 0.0), 1.0))
            else:
                images.append(x % TWO_PI)
    bad = np.stack([mask for mask, _ in checks])
    hits = np.flatnonzero(bad.any(axis=0))
    if hits.size:
        raise checks[int(np.argmax(bad[:, hits[0]]))][1](int(hits[0]))
    return images[0] if len(images) == 1 else np.stack(images, axis=-1)


# -- constructors ------------------------------------------------------------


def make_interval(n: int) -> BaseSpace:
    """Path of ``n`` samples at coordinates i/(n-1) on [0, 1]."""
    if n < 2:
        raise BaseSpaceError("interval needs at least 2 samples")
    coords = np.linspace(0.0, 1.0, n)
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return BaseSpace("interval", coords, edges)


def make_circle(n: int) -> BaseSpace:
    """Cycle of ``n`` samples at angles 2*pi*i/n."""
    if n < 3:
        raise BaseSpaceError("circle needs at least 3 samples")
    coords = TWO_PI * np.arange(n) / n
    edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    loop = _forward_walk(np.arange(n))
    return BaseSpace("circle", coords, edges, [loop])


def make_torus2(n: int, m: int) -> BaseSpace:
    """n x m wraparound grid with the two generator loops.

    Sample ``s = i*m + j`` sits at (2*pi*i/n, 2*pi*j/m).  Edge ``2s`` is the
    right edge of sample ``s`` (to ``((i+1) % n)*m + j``) and edge ``2s+1``
    its up edge (to ``i*m + (j+1) % m``), both with ``s`` as the tail.
    """
    if n < 3 or m < 3:
        raise BaseSpaceError("torus grid needs at least 3 samples per direction")
    i = np.repeat(np.arange(n), m)
    j = np.tile(np.arange(m), n)
    coords = np.column_stack([TWO_PI * i / n, TWO_PI * j / m])
    edges = np.empty((2 * n * m, 2), dtype=np.intp)
    edges[:, 0] = np.repeat(np.arange(n * m), 2)
    edges[0::2, 1] = ((i + 1) % n) * m + j
    edges[1::2, 1] = i * m + (j + 1) % m
    loop1 = _forward_walk(2 * m * np.arange(n))
    loop2 = _forward_walk(2 * np.arange(m) + 1)
    return BaseSpace("torus2", coords, edges, [loop1, loop2], meta={"shape": (n, m)})


def make_graph(n_vertices: int, cedges: list[tuple[int, int]], samples_per_edge: int) -> BaseSpace:
    """Subdivide a connected multigraph into a sampled 1-complex.

    Each combinatorial edge becomes ``samples_per_edge`` segments.  The loop
    basis comes from the co-tree edges of a spanning tree, so its size is
    ``len(cedges) - n_vertices + 1``.
    """
    if samples_per_edge < 2:
        raise BaseSpaceError("samples_per_edge must be at least 2")
    if n_vertices < 1:
        raise BaseSpaceError("graph needs at least one vertex")
    ends = np.asarray(cedges, dtype=np.intp).reshape(-1, 2)
    unknown = np.flatnonzero(((ends < 0) | (ends >= n_vertices)).any(axis=1))
    if unknown.size:
        raise BaseSpaceError(f"combinatorial edge {unknown[0]} references unknown vertex")
    # the vertices, then edge c's inner samples k = 1 .. m - 1 at (c, k/m),
    # joined in a chain from its first vertex to its second
    C, m = len(ends), samples_per_edge
    inner = n_vertices + np.arange(C * (m - 1)).reshape(C, m - 1)
    chains = np.column_stack([ends[:, 0], inner, ends[:, 1]])
    coords = np.concatenate([
        np.column_stack([np.full(n_vertices, -1.0), np.arange(n_vertices, dtype=float)]),
        np.column_stack([np.repeat(np.arange(C, dtype=float), m - 1),
                         np.tile(np.arange(1, m) / m, C)])])
    edges = np.stack([chains[:, :-1], chains[:, 1:]], axis=2).reshape(-1, 2)
    base = BaseSpace("graph", coords, edges, meta={"cedges": list(cedges)})
    tree, _ = base.spanning_tree(0)   # also checks connectivity
    nodes, tree_edges, dirs = tree.T
    pred = np.full(base.n_samples, -1, dtype=np.intp)      # tree parent, -1 at the root
    pred[nodes] = base.edges[tree_edges, (dirs < 0).astype(np.intp)]
    step = np.zeros((base.n_samples, 2), dtype=np.intp)   # the step parent -> sample
    step[nodes] = tree[:, 1:]
    in_tree = np.zeros(base.n_edges, dtype=bool)
    in_tree[tree_edges] = True
    parent = pred.tolist()
    base.loop_basis = [_fundamental_cycle(parent, step, eid, *base.edges[eid].tolist())
                       for eid in np.flatnonzero(~in_tree).tolist()]
    base._check_loops()
    return base


def _forward_walk(edge_ids) -> np.ndarray:
    """(L, 2) walk along the given edges, each traversed tail -> head."""
    return np.column_stack([edge_ids, np.ones_like(edge_ids)]).astype(np.intp, copy=False)


def _fundamental_cycle(parent, step, eid, a, b) -> np.ndarray:
    """Closed (L, 2) walk: co-tree edge a->b, then the tree path b -> LCA -> a.

    ``parent`` lists each sample's tree parent (-1 at the root) and the
    array ``step`` holds the (edge_id, direction) step from the parent to
    the sample."""
    def to_root(s):
        path = [s]
        while parent[s] >= 0:
            s = parent[s]
            path.append(s)
        return np.array(path, dtype=np.intp)

    up_a, up_b = to_root(a), to_root(b)
    # both paths end at the root and agree from their lowest common ancestor on
    k = min(len(up_a), len(up_b))
    shared = int(np.count_nonzero(up_a[len(up_a) - k:] == up_b[len(up_b) - k:]))
    below_a, below_b = up_a[:len(up_a) - shared], up_b[:len(up_b) - shared]
    return np.concatenate([[(eid, 1)],
                           step[below_b] * np.array([1, -1]),   # up from b to the LCA
                           step[below_a[::-1]]])                 # down from the LCA to a


# -- self-map sampling --------------------------------------------------------


def sample_selfmap(base: BaseSpace, spec) -> SelfMap:
    """Sample a self-map given as coordinate expression(s) or a location table.

    Interval and circle bases take one expression string, torus2 bases a
    pair, evaluated once over all samples: every image must be finite, real
    and, on the interval, inside [0, 1], and a jump :func:`discontinuity`
    finds is an error naming its coordinate and size.  A graph base takes a
    location table ``(image_edges, image_params)``, where the images of
    adjacent samples must lie within ``_HOP_BOUND`` edge lengths.
    """
    if isinstance(spec, str) or (isinstance(spec, (tuple, list)) and spec
                                 and all(isinstance(s, str) for s in spec)):
        exprs = tuple(map(funcspec.parse, [spec] if isinstance(spec, str) else spec))
        images = _expression_images(base.kind, exprs, base.coords)
        found = discontinuity(base, exprs, angles=base.kind != "interval")
        if found:
            raise BaseSpaceError(f"self-map is discontinuous at {found[0]}: "
                                 f"its image jumps by {found[1]:.3g}")
        return SelfMap(base, exprs, images)
    if base.kind != "graph":
        raise BaseSpaceError(f"a {base.kind} base takes coordinate expressions; "
                             "location tables are for graph bases")
    edges, params = spec
    edges, params = np.asarray(edges, dtype=np.intp), np.asarray(params, dtype=float)
    if len(edges) != base.n_samples:
        raise BaseSpaceError("self-map table length differs from sample count")
    x, y = base.edges.T
    ends = (edges[x], params[x], edges[y], params[y])
    bad = np.flatnonzero(_hop_distances(base, *ends, limit=_HOP_BOUND) > _HOP_BOUND + 1e-9)
    if bad.size:
        eid = int(bad[0])
        dist = _hop_distances(base, *(a[eid:eid + 1] for a in ends))[0]   # the exact distance
        raise BaseSpaceError(f"self-map violates discrete continuity on edge {eid}: "
                             f"image distance {dist:.3f} edges exceeds bound {_HOP_BOUND}")
    return SelfMap(base, image_edges=edges, image_params=params)


_HALVINGS = 12        # as the default ``Tolerances.max_refine_depth``
_SHRINK = 0.9         # admits every Hölder exponent above log2(10/9) ~ 0.15
_HOP_BOUND = 2.0
_JUMP = 1e-9          # relative: builtins differ by up to 1.2e-16, a 1e-5 step at 3 is 2.5e-6


def discontinuity(base: BaseSpace, exprs, angles: bool = False, expand=None):
    """The first point where expressions on a chart base jump, as ``(at,
    jump)`` with ``at`` a dict of coordinates, or None.  The values compared
    are the expressions' values, passed through ``expand`` when given (a root
    list's coefficients, so a relabelling passes), with real parts modulo 2*pi
    when ``angles``.  A ``piecewise`` switches only at its threshold, so
    the two sides of each threshold inside the chart are compared, a chart
    end's value with the side inside, and on a circle or torus the limit at
    2*pi with the value at 0, on the torus at every sample and threshold of
    the other coordinate; a jump exceeds ``_JUMP`` times one plus the values'
    size.  A ``sqrt`` or a ``/`` whose denominator holds a variable can also
    break between thresholds: then each edge is halved ``_HALVINGS`` times,
    keeping the half whose end values lie farther apart, and is a jump when
    the last halving kept more than ``_SHRINK`` of that span."""
    names = funcspec.COORDINATES[base.kind]
    coords = base.coords.reshape(base.n_samples, -1)
    hi = 1.0 if base.kind == "interval" else TWO_PI
    cuts, kinks = funcspec.survey(exprs)

    def values(env, side=None):
        with np.errstate(invalid="ignore", divide="ignore"):
            v = np.column_stack([np.broadcast_to(funcspec._eval(e, env, side),
                                                 env[names[0]].shape) for e in exprs])
        return v if expand is None else expand(v)

    def gap(a, b):
        d = a - b
        return np.abs(d - TWO_PI * np.rint(d.real / TWO_PI) if angles else d).max(axis=1)

    for k, name in enumerate(names):
        t = cuts.get(name, np.empty(0))
        # (coordinate, side) of both values of each comparison; a side acts only at a threshold
        pairs = [((c, -1), (c, 1)) for c in t[(t > 0.0) & (t < hi)].tolist()]
        if 0.0 in t:
            pairs.insert(0, ((0.0, 0), (0.0, 1)))
        if base.kind != "interval":
            pairs.append(((hi, -1 if hi in t else 0), (0.0, 0)))
        elif hi in t:
            pairs.append(((hi, 0), (hi, -1)))
        o = cuts.get(names[-1 - k], np.empty(0))     # the torus's other coordinate
        grid = (np.union1d(coords[:, -1 - k], o[(o > 0.0) & (o < hi)]) if len(names) > 1
                else np.zeros(1))
        # the first values of every comparison, then the second, at every grid point
        c, s = np.repeat(np.array([*zip(*pairs)], dtype=float).reshape(-1, 2), len(grid),
                         axis=0).T
        env = {names[-1 - k]: np.tile(grid, len(s) // len(grid)), name: c}
        v = np.empty((len(s), len(exprs)), dtype=complex)
        for side in np.unique(s).astype(int).tolist():      # each side evaluated once
            at = s == side
            v[at] = values({n: x[at] for n, x in env.items()}, {name: side} if side else None)
        a, b = np.split(v, 2)
        jumps = gap(a, b)
        bad = np.flatnonzero(jumps > _JUMP * (1.0 + np.maximum(abs(a), abs(b)).max(axis=1)))
        if bad.size:
            i = int(bad[0])
            return {n: float(env[n][len(a) + i]) for n in names}, float(jumps[i])

    if not kinks:
        return None
    ids = np.arange(base.n_edges)
    a, b = values(dict(zip(names, coords.T)))[base.edges].transpose(1, 0, 2)
    lo, span = np.zeros(len(ids)), gap(a, b)
    for k in range(1, _HALVINGS + 1):
        mid = lo + 0.5 ** k
        m = values(dict(zip(names, base.location_coordinates(ids, mid).reshape(len(ids), -1).T)))
        left, right = gap(a, m), gap(m, b)
        last, span, keep = span, np.maximum(left, right), left >= right
        lo = np.where(keep, lo, mid)
        a, b = np.where(keep[:, None], a, m), np.where(keep[:, None], m, b)
    bad = np.flatnonzero(span > _SHRINK * last)
    if bad.size:
        i = int(bad[0])
        point = base.location_coordinates(ids[i:i + 1], lo[i:i + 1] + 0.5 ** (_HALVINGS + 1))
        return dict(zip(names, point.ravel().tolist())), float(span[i])
    return None


def _hop_distances(base: BaseSpace, edges_a, params_a, edges_b, params_b,
                   limit: float = np.inf) -> np.ndarray:
    """Graph distance in edge lengths between locations a[k] and b[k]: the
    hop count between their nearest samples plus one, or, where both have
    the same nearest sample, each parameter's distance from 0.5, summed.
    Hop counts above ``limit`` are ``inf``: each distinct source sample's
    search stops there, and the searches run in blocks of ~2^20 distances."""
    src = base.nearest_samples(edges_a, params_a)
    dst = base.nearest_samples(edges_b, params_b)
    dist = np.abs(params_a - 0.5) + np.abs(params_b - 0.5)
    apart = np.flatnonzero(src != dst)
    sources, row = np.unique(src[apart], return_inverse=True)
    block = max(1, (1 << 20) // base.n_samples)
    for lo in range(0, len(sources), block):
        hops = base.hops(sources[lo:lo + block], limit=limit)
        pick = (row >= lo) & (row < lo + block)
        dist[apart[pick]] = hops[row[pick] - lo, dst[apart[pick]]] + 1.0
    return dist


def identity_selfmap(base: BaseSpace) -> SelfMap:
    """The identity map: the coordinate variables on a chart base, whose
    images are the sample coordinates bit for bit, and the sample locations
    on a graph."""
    if base.kind == "graph":
        edges, params = base.sample_locations()
        return SelfMap(base, image_edges=edges, image_params=params)
    return sample_selfmap(base, funcspec.COORDINATES[base.kind])
