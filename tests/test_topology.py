"""Graphs, gossip weights, spectra and Chebyshev acceleration."""

import math
from pathlib import Path

import numpy as np
import pytest

from gossipgd import (
    GossipMatrix,
    Topology,
    build_gossip_matrix,
    build_topology,
    chebyshev_accelerate,
    fit_loglog_slope,
    gossip_matrix_to_csv,
    spectral_gap,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def edge_set(graph):
    return {frozenset(e) for e in graph.edges}


def matrix(kind, n, scheme="metropolis_lazy", **kw):
    return build_gossip_matrix(build_topology(Topology(kind, n, **kw)), scheme)


def cheb(k, x):
    """Scalar Chebyshev polynomial T_k on the whole real line."""
    if abs(x) <= 1.0:
        return math.cos(k * math.acos(x))
    sign = -1.0 if (x < 0.0 and k % 2 == 1) else 1.0
    return sign * math.cosh(k * math.acosh(abs(x)))


# ---------------------------------------------------------------- graphs


def test_cycle4_edges():
    g = build_topology(Topology("cycle", 4))
    assert edge_set(g) == {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 0)]}
    assert g.degrees == (2, 2, 2, 2)


def test_complete3_edges():
    g = build_topology(Topology("complete", 3))
    assert edge_set(g) == {frozenset(e) for e in [(0, 1), (0, 2), (1, 2)]}


def test_grid2d_2x2_is_a_4_cycle():
    # row-major labels 0,1 / 2,3: the cycle 0-1-3-2-0
    g = build_topology(Topology("grid2d", 4))
    assert edge_set(g) == {frozenset(e) for e in [(0, 1), (2, 3), (0, 2), (1, 3)]}
    assert g.degrees == (2, 2, 2, 2)


def test_grid2d_rectangular():
    g = build_topology(Topology("grid2d", 6, rows=2, cols=3))
    assert g.n == 6
    assert len(g.edges) == 7  # 2*(3-1) horizontal + 3*(2-1) vertical
    assert max(g.degrees) == 3


def test_star_edges():
    g = build_topology(Topology("star", 5))
    assert edge_set(g) == {frozenset((0, v)) for v in range(1, 5)}
    assert g.degrees[0] == 4


def test_random_regular_properties():
    g = build_topology(Topology("random_regular", 12, degree=3, seed=5))
    assert all(deg == 3 for deg in g.degrees)
    again = build_topology(Topology("random_regular", 12, degree=3, seed=5))
    assert g.edges == again.edges


def test_custom_edge_list():
    g = build_topology(Topology("custom_edge_list", 3, edges=((0, 1), (1, 2))))
    assert g.degrees == (1, 2, 1)


@pytest.mark.parametrize(
    "top",
    [
        Topology("cycle", 2),
        Topology("grid2d", 6, rows=2, cols=2),
        Topology("custom_edge_list", 4, edges=((0, 1), (2, 3))),  # disconnected
        Topology("custom_edge_list", 2, edges=((0, 0),)),  # self loop
        Topology("custom_edge_list", 2, edges=((0, 1), (1, 0))),  # duplicate
        Topology("custom_edge_list", 2, edges=((0, 5),)),  # out of range
        Topology("random_regular", 5, degree=3),  # odd n * degree
        Topology("random_regular", 4, degree=4),  # degree >= n
        Topology("random_regular", 4, degree=1),  # bare matching, disconnected
        Topology("nonsense", 4),
    ],
)
def test_bad_topologies_raise(top):
    with pytest.raises(ValueError):
        build_topology(top)


# ---------------------------------------------------------- gossip weights


def test_cycle4_metropolis_lazy_matrix():
    P = matrix("cycle", 4)
    expect = np.array(
        [
            [0.5, 0.25, 0.0, 0.25],
            [0.25, 0.5, 0.25, 0.0],
            [0.0, 0.25, 0.5, 0.25],
            [0.25, 0.0, 0.25, 0.5],
        ]
    )
    assert np.allclose(P.entries, expect, atol=1e-15)
    assert np.allclose(sorted(P.eigenvalues), [0.0, 0.5, 0.5, 1.0], atol=1e-12)
    assert P.sigma2 == pytest.approx(0.5, abs=1e-12)
    assert spectral_gap(P) == pytest.approx(0.5, abs=1e-12)


def test_path2_metropolis_lazy_matrix():
    P = matrix("custom_edge_list", 2, edges=((0, 1),))
    assert np.allclose(P.entries, 0.5, atol=1e-15)
    assert P.sigma2 <= 1e-12


def test_star4_metropolis_lazy_spectrum():
    # hub degree 3: edge weight 1/6, hub diagonal 1/2, leaf diagonal 5/6
    P = matrix("star", 4)
    assert P.entries[0, 1] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert P.entries[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert P.entries[1, 1] == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert np.allclose(sorted(P.eigenvalues), [1 / 3, 5 / 6, 5 / 6, 1.0], atol=1e-12)
    assert P.sigma2 == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_complete4_metropolis_lazy_spectrum():
    P = matrix("complete", 4)
    assert np.allclose(sorted(P.eigenvalues), [1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-12)


def test_cycle4_max_degree_matrix():
    P = matrix("cycle", 4, scheme="max_degree")
    assert P.entries[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert P.entries[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    # circulant eigenvalues 1/3 + (2/3) cos(2 pi k / 4)
    assert np.allclose(sorted(P.eigenvalues), [-1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-12)
    assert P.sigma2 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_uniform_complete_is_exact():
    P = matrix("complete", 4, scheme="uniform_complete")
    assert np.all(P.entries == 0.25)
    assert P.sigma2 == 0.0
    assert list(P.eigenvalues) == [1.0, 0.0, 0.0, 0.0]
    assert spectral_gap(matrix("complete", 16, scheme="uniform_complete")) == 1.0


@pytest.mark.parametrize(
    "top",
    [
        Topology("cycle", 5),
        Topology("grid2d", 12, rows=3, cols=4),
        Topology("star", 7),
        Topology("random_regular", 12, degree=3, seed=5),
        Topology("custom_edge_list", 4, edges=((0, 1), (1, 2), (2, 3), (0, 2))),
    ],
)
@pytest.mark.parametrize("scheme", ["metropolis_lazy", "max_degree"])
def test_gossip_matrix_invariants(top, scheme):
    graph = build_topology(top)
    P = build_gossip_matrix(graph, scheme)
    A = P.entries
    assert np.allclose(A, A.T, atol=1e-15)
    assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(A >= -1e-15)
    assert P.nonnegative
    # supported on the graph: off-diagonal mass only across edges
    allowed = np.eye(P.n, dtype=bool)
    for a, b in graph.edges:
        allowed[a, b] = allowed[b, a] = True
    assert np.all(A[~allowed] == 0.0)
    assert P.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
    assert 0.0 <= P.sigma2 < 1.0
    # row degree counts the self weight, which both schemes keep positive
    assert P.degree == max(graph.degrees) + 1


def test_cycle_inverse_gap_grows_quadratically():
    ns = [8, 16, 32, 64, 128]
    inv = [1.0 / spectral_gap(matrix("cycle", n)) for n in ns]
    slope, _, r_sq = fit_loglog_slope(ns, inv)
    assert 1.8 <= slope <= 2.2
    assert r_sq > 0.99


# ------------------------------------------------------------- chebyshev


def test_chebyshev_k1_returns_same_object():
    P = matrix("cycle", 8)
    assert chebyshev_accelerate(P, 1) is P


def test_chebyshev_on_uniform_complete_is_noop():
    P = matrix("complete", 6, scheme="uniform_complete")
    Pk = chebyshev_accelerate(P, 4)
    assert np.all(Pk.entries == P.entries)
    assert Pk.sigma2 == 0.0
    assert Pk.chebyshev_k == 4


def test_chebyshev_cycle32_sigma2_analytic():
    P = matrix("cycle", 32)
    sigma2 = (1.0 + math.cos(math.pi / 16.0)) / 2.0
    assert P.sigma2 == pytest.approx(sigma2, abs=1e-12)
    Pk = chebyshev_accelerate(P, 10)
    assert Pk.sigma2 == pytest.approx(1.0 / cheb(10, 1.0 / sigma2), rel=1e-9)
    assert Pk.chebyshev_k == 10
    assert Pk.nonnegative == bool(Pk.entries.min() >= 0.0)


def test_chebyshev_maps_every_eigenvalue():
    P = matrix("cycle", 8)
    k = 3
    Pk = chebyshev_accelerate(P, k)
    scale = cheb(k, 1.0 / P.sigma2)
    expect = sorted(cheb(k, lam / P.sigma2) / scale for lam in P.eigenvalues)
    assert np.allclose(sorted(Pk.eigenvalues), expect, atol=1e-10)
    A = Pk.entries
    assert np.allclose(A, A.T, atol=1e-12)
    assert np.allclose(A.sum(axis=1), 1.0, atol=1e-10)


def test_chebyshev_rejects_bad_k():
    P = matrix("cycle", 8)
    with pytest.raises(ValueError):
        chebyshev_accelerate(P, 0)


# ------------------------------------------------------------------ io


def test_gossip_matrix_csv_roundtrip(tmp_path):
    P = matrix("cycle", 5)
    path = tmp_path / "gossip.csv"
    gossip_matrix_to_csv(P, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "5"
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert rows.shape == (5, 5)
    assert np.all(rows == P.entries)


def test_cycle32_weights_demo_matches_golden_csv(tmp_path):
    path = tmp_path / "cycle32_weights.csv"
    gossip_matrix_to_csv(matrix("cycle", 32), path)
    assert path.read_bytes() == (DEMOS / "output" / "cycle32_weights.csv").read_bytes()


def test_gossip_matrix_is_frozen():
    P = matrix("cycle", 4)
    with pytest.raises(ValueError):
        P.entries[0, 0] = 2.0
