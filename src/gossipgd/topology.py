"""Communication graphs and gossip matrices.

A gossip matrix is a symmetric doubly stochastic matrix supported on the
edges of a connected graph (plus the diagonal).  Averaging speed is governed
by ``sigma2``, the largest eigenvalue magnitude away from the trivial
eigenvalue 1; the spectral gap is ``1 - sigma2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .problem import _freeze

TOPOLOGY_KINDS = (
    "complete",
    "cycle",
    "grid2d",
    "star",
    "random_regular",
    "custom_edge_list",
)

WEIGHT_SCHEMES = ("metropolis_lazy", "max_degree", "uniform_complete")


@dataclass(frozen=True)
class Topology:
    """Declarative description of a communication graph.

    Only the fields relevant to ``kind`` are consulted: ``rows``/``cols``
    for ``grid2d``, ``degree`` and ``seed`` for ``random_regular``, and
    ``edges`` for ``custom_edge_list``.
    """

    kind: str
    n: int
    rows: int | None = None
    cols: int | None = None
    degree: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None
    seed: int = 0


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph on nodes ``0..n-1``."""

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...] = field(repr=False)


def _finish_graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Validate edges (simple, in range, connected) and freeze the graph."""
    seen = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for v, w in edges:
        if not (0 <= v < n and 0 <= w < n):
            raise ValueError(f"edge ({v}, {w}) out of range for n={n}")
        if v == w:
            raise ValueError(f"self-loop at node {v}")
        key = (min(v, w), max(v, w))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        adj[v].append(w)
        adj[w].append(v)

    # connectivity by BFS from node 0
    if n > 1:
        reached = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in reached:
                        reached.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(reached) != n:
            raise ValueError(f"graph is disconnected ({len(reached)} of {n} nodes reached)")

    return Graph(n=n, edges=tuple(sorted(seen)), degrees=tuple(len(a) for a in adj))


def build_topology(top: Topology) -> Graph:
    """Materialize a :class:`Topology` into a concrete graph."""
    if top.kind not in TOPOLOGY_KINDS:
        raise ValueError(f"unknown topology kind {top.kind!r}, not one of {TOPOLOGY_KINDS}")
    n = top.n
    if n < 1:
        raise ValueError("n must be at least 1")

    if top.kind == "complete":
        edges = [(v, w) for v in range(n) for w in range(v + 1, n)]
    elif top.kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3; use custom_edge_list for a path")
        edges = [(v, (v + 1) % n) for v in range(n)]
    elif top.kind == "grid2d":
        rows, cols = top.rows, top.cols
        if rows is None and cols is None:
            side = math.isqrt(n)
            if side * side != n:
                raise ValueError("grid2d without rows/cols needs a square n")
            rows = cols = side
        if rows is None or cols is None or rows * cols != n:
            raise ValueError(f"grid2d needs rows*cols == n, got {rows}x{cols} != {n}")
        edges = []
        for i in range(rows):
            for j in range(cols):
                v = i * cols + j
                if j + 1 < cols:
                    edges.append((v, v + 1))
                if i + 1 < rows:
                    edges.append((v, v + cols))
    elif top.kind == "star":
        if n < 2:
            raise ValueError("star needs n >= 2")
        edges = [(0, v) for v in range(1, n)]
    elif top.kind == "random_regular":
        edges = _random_regular_edges(n, top.degree, top.seed)
    else:  # custom_edge_list
        if top.edges is None:
            raise ValueError("custom_edge_list needs an explicit edge list")
        edges = [tuple(e) for e in top.edges]

    return _finish_graph(n, edges)


def _random_regular_edges(n: int, degree: int | None, seed: int) -> list[tuple[int, int]]:
    """Seeded draw of a connected simple regular graph.

    Union of degree//2 random Hamiltonian cycles plus, for odd degree, one
    random perfect matching.  Regular by construction and connected because
    each cycle alone already spans every vertex; rounds that would repeat
    an edge are redrawn, which stays cheap whenever degree << n.
    """
    if degree is None:
        raise ValueError("random_regular needs a degree")
    if degree < 1 or degree >= n:
        raise ValueError(f"degree must be in [1, n), got {degree}")
    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even for a regular graph")
    if degree == 1 and n > 2:
        raise ValueError("degree 1 is a bare matching, disconnected for n > 2")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, degree]))
    keys: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    rounds = ["cycle"] * (degree // 2) + ["matching"] * (degree % 2)
    for kind in rounds:
        draw = _greedy_cycle if kind == "cycle" else _greedy_matching
        for _ in range(500):
            pairs = draw(rng, n, keys)
            if pairs is not None:
                cand = {(min(v, w), max(v, w)) for v, w in pairs}
                keys.update(cand)
                edges.extend(sorted(cand))
                break
        else:
            raise ValueError(f"n = {n} is too small for a simple {degree}-regular draw")
    return edges


def _greedy_cycle(rng, n: int, keys) -> list[tuple[int, int]] | None:
    """Random Hamiltonian cycle avoiding the edges in keys, or None if stuck."""
    path = [int(rng.integers(n))]
    avail = set(range(n)) - {path[0]}
    while avail:
        cur = path[-1]
        options = [v for v in avail if (min(cur, v), max(cur, v)) not in keys]
        if not options:
            return None
        nxt = options[int(rng.integers(len(options)))]
        path.append(nxt)
        avail.discard(nxt)
    first, last = path[0], path[-1]
    if (min(first, last), max(first, last)) in keys:
        return None
    return list(zip(path, path[1:] + path[:1]))


def _greedy_matching(rng, n: int, keys) -> list[tuple[int, int]] | None:
    """Random perfect matching avoiding the edges in keys, or None if stuck."""
    unmatched = [int(v) for v in rng.permutation(n)]
    pairs = []
    while unmatched:
        v = unmatched.pop()
        options = [i for i, w in enumerate(unmatched) if (min(v, w), max(v, w)) not in keys]
        if not options:
            return None
        w = unmatched.pop(options[int(rng.integers(len(options)))])
        pairs.append((v, w))
    return pairs


@dataclass(frozen=True)
class GossipMatrix:
    """Symmetric doubly stochastic averaging matrix with cached spectrum.

    ``eigenvalues`` are sorted descending; ``sigma2 = max(|lambda_2|,
    |lambda_n|)``; ``degree`` counts the densest row's nonzero entries
    (self included), which is the per-iteration communication load.
    ``nonnegative`` is False only for polynomial-accelerated matrices
    whose entries may dip below zero.
    """

    n: int
    entries: np.ndarray = field(repr=False)
    weight_scheme: str
    eigenvalues: np.ndarray = field(repr=False)
    sigma2: float
    degree: int
    nonnegative: bool = True
    chebyshev_k: int = 0


def _gossip_matrix(
    P: np.ndarray, weight_scheme: str, eig: np.ndarray, chebyshev_k: int = 0
) -> GossipMatrix:
    """Freeze weights P and their descending spectrum eig into a GossipMatrix."""
    n = P.shape[0]
    return GossipMatrix(
        n=n,
        entries=_freeze(P),
        weight_scheme=weight_scheme,
        eigenvalues=_freeze(eig),
        sigma2=float(max(abs(eig[1]), abs(eig[-1]))) if n > 1 else 0.0,
        degree=int(np.max(np.count_nonzero(np.abs(P) > 1e-12, axis=1))),
        nonnegative=bool(P.min() >= 0.0),
        chebyshev_k=chebyshev_k,
    )


def build_gossip_matrix(graph: Graph, weight_scheme: str = "metropolis_lazy") -> GossipMatrix:
    """Assign edge weights on ``graph`` and compute the spectrum.

    ``metropolis_lazy`` puts ``1 / (2 max(deg_v, deg_w))`` on each edge,
    which keeps every eigenvalue in [0, 1] even on bipartite graphs.
    ``max_degree`` puts ``1 / (max_degree + 1)`` on each edge.
    ``uniform_complete`` requires the complete graph and averages exactly;
    its spectrum {1, 0, ..., 0} is set analytically so sigma2 is 0.0 exact.
    """
    if weight_scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weight scheme {weight_scheme!r}, not one of {WEIGHT_SCHEMES}")
    n = graph.n
    if weight_scheme == "uniform_complete" and len(graph.edges) != n * (n - 1) // 2:
        raise ValueError("uniform_complete weights need the complete graph")
    P = np.zeros((n, n))

    if weight_scheme == "uniform_complete":
        P[:] = 1.0 / n
        eig = np.zeros(n)
        eig[0] = 1.0
        return _gossip_matrix(P, weight_scheme, eig)

    if weight_scheme == "metropolis_lazy":
        for v, w in graph.edges:
            p = 1.0 / (2.0 * max(graph.degrees[v], graph.degrees[w]))
            P[v, w] = p
            P[w, v] = p
    else:  # max_degree
        p = 1.0 / (max(graph.degrees) + 1.0) if graph.edges else 0.0
        for v, w in graph.edges:
            P[v, w] = p
            P[w, v] = p
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))

    eig = np.linalg.eigvalsh(P)[::-1]
    assert abs(eig[0] - 1.0) < 1e-10, "doubly stochastic matrix must have eigenvalue 1"
    assert eig[-1] > -1.0, "gossip matrix must not be periodic"
    return _gossip_matrix(P, weight_scheme, eig)


def spectral_gap(P: GossipMatrix) -> float:
    """1 - sigma2; the inverse of this sets the consensus time scale."""
    return 1.0 - P.sigma2


def chebyshev_accelerate(P: GossipMatrix, k: int) -> GossipMatrix:
    """Replace one gossip round with a degree-k Chebyshev polynomial in P.

    The polynomial is T_k(x / sigma2) / T_k(1 / sigma2): it is 1 at x = 1
    and minimax-small on [-sigma2, sigma2], so the accelerated sigma2 is
    1 / T_k(1 / sigma2), a square-root-order improvement of the gap.  The
    result stays symmetric doubly stochastic but its entries can be
    negative (check ``nonnegative``) and its support widens to k hops.
    """
    if k < 1:
        raise ValueError("polynomial degree k must be >= 1")
    if k == 1:
        return P  # T_1 is the identity map
    if P.sigma2 == 0.0:
        # a zero sigma2 spectrum is fixed by any polynomial with p(1) = 1
        return replace(P, chebyshev_k=k)

    s = P.sigma2
    x = P.entries / s
    # Normalized recurrence R_j = T_j(P/s) / T_j(1/s); the ratio
    # ratio_j = T_{j-1}(1/s) / T_j(1/s) stays in (0, 1), which avoids the
    # overflow of raw T_j values for large k or tiny gaps.
    r_prev = np.eye(P.n)
    r_cur = s * x  # T_1(P/s) / T_1(1/s)
    ratio = s  # T_0 / T_1 at 1/s
    for _ in range(2, k + 1):
        ratio_next = 1.0 / (2.0 / s - ratio)
        r_next = ratio_next * (2.0 * (x @ r_cur)) - (ratio_next * ratio) * r_prev
        r_prev, r_cur, ratio = r_cur, r_next, ratio_next
    Pk = (r_cur + r_cur.T) / 2.0

    row_err = np.max(np.abs(Pk.sum(axis=1) - 1.0))
    assert row_err < 1e-10, f"accelerated rows drifted from stochastic by {row_err:.2e}"

    return _gossip_matrix(Pk, P.weight_scheme, np.linalg.eigvalsh(Pk)[::-1], k)


def gossip_matrix_to_csv(P: GossipMatrix, path) -> None:
    """Write n on the first line, then the n weight rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{P.n}\n")
        for row in P.entries:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
