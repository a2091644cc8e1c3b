"""Contact networks: spectral node orderings, distances, and file I/O.

Nodes are 0-based everywhere in memory; the text file format uses 1-based
labels, converted only at the parse/serialize boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Network",
    "all_pairs",
    "pair_index",
    "network_from_bits",
    "laplacian",
    "fiedler_vector",
    "fiedler_ordering",
    "permute_network",
    "network_distance",
    "is_connected",
    "parse_network",
    "serialize_network",
    "chain_network",
    "smallworld_network",
    "austria_network",
]


@dataclass(frozen=True)
class Network:
    """Undirected simple graph on ``n_nodes`` labelled nodes.

    Edges are held as a frozenset of ``(i, j)`` tuples with ``i < j``; any
    iterable of pairs is normalized on construction.  Instances are
    immutable and hashable, so they can key caches directly.  They hold no
    arrays: MCMC and contrast keep many candidate networks alive.
    """

    n_nodes: int
    edges: frozenset

    def __init__(self, n_nodes, edges=()):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        normalized = {_edge_key(m, n, n_nodes) for m, n in edges}
        object.__setattr__(self, "n_nodes", int(n_nodes))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)

    @cached_property
    def edge_bits(self) -> int:
        """Edge set packed into an integer, one bit per pair from all_pairs."""
        bits = 0
        for i, j in self.edges:
            bits |= 1 << pair_index(i, j, self.n_nodes)
        return bits

    def neighbors(self, node) -> np.ndarray:
        return np.array(sorted(j if i == node else i for i, j in self.edges
                               if node in (i, j)), dtype=int)

    def has_edge(self, pair) -> bool:
        m, n = pair
        return (min(m, n), max(m, n)) in self.edges

    def with_edge_toggled(self, pair) -> "Network":
        """This network with pair added or removed; the other edges are
        this network's own tuples, not normalized again."""
        m, n = pair
        key = _edge_key(min(m, n), max(m, n), self.n_nodes)
        child = object.__new__(Network)
        object.__setattr__(child, "n_nodes", self.n_nodes)
        object.__setattr__(child, "edges", self.edges ^ {key})
        return child


def _edge_key(m, n, n_nodes) -> tuple:
    """The pair (m, n) as (i, j) with i < j; a self-loop or a node out of
    range raises."""
    m, n = int(m), int(n)
    if m == n:
        raise ValueError(f"self-loop on node {m}")
    if not (0 <= m < n_nodes and 0 <= n < n_nodes):
        raise ValueError(f"edge ({m}, {n}) out of range for {n_nodes} nodes")
    return (min(m, n), max(m, n))


@lru_cache(maxsize=None)
def all_pairs(n_nodes) -> tuple:
    """All unordered node pairs in lexicographic order."""
    return tuple((i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes))


def pair_index(i, j, n_nodes) -> int:
    """Position of pair (i, j), i < j, in the all_pairs ordering."""
    i, j = int(i), int(j)
    if i > j:
        i, j = j, i
    return i * n_nodes - i * (i + 1) // 2 + (j - i - 1)


def network_from_bits(n_nodes, bits) -> Network:
    pairs = all_pairs(n_nodes)
    return Network(n_nodes, (pairs[k] for k in range(len(pairs)) if bits >> k & 1))


def laplacian(net: Network) -> np.ndarray:
    """Graph Laplacian L = diag(degrees) - adjacency."""
    a = net.adjacency
    return np.diag(a.sum(axis=1)) - a


def fiedler_vector(net: Network) -> tuple[float, np.ndarray]:
    """Second-smallest Laplacian eigenpair (algebraic connectivity, vector).

    The returned vector has unit norm, is orthogonal to the all-ones vector,
    and its sign is fixed so that the first component above 1e-12 in
    node-label order is positive.
    """
    if net.n_nodes < 2:
        raise ValueError("fiedler_vector needs at least 2 nodes")
    vals, vecs = np.linalg.eigh(laplacian(net))
    lam1 = float(vals[1])
    # When the zero eigenvalue is degenerate (disconnected graph) the solver
    # may mix the constant mode into both leading columns; deflate it and
    # keep the candidate with the larger remainder.
    n = net.n_nodes
    ones = np.ones(n)
    best = None
    for col in (vecs[:, 1], vecs[:, 0]):
        w = col - (col @ ones / n) * ones
        nw = float(np.linalg.norm(w))
        if best is None or nw > best[1] + 1e-12:
            best = (w, nw)
    w, nw = best
    v = w / nw
    for x in v:
        if abs(x) > 1e-12:
            if x < 0:
                v = -v
            break
    return lam1, v


def fiedler_ordering(net: Network) -> np.ndarray:
    """Node permutation sorting the Fiedler vector in descending order.

    Ties are broken by ascending node label.  Entry k of the result is the
    node placed at position k.
    """
    _, v = fiedler_vector(net)
    order = sorted(range(net.n_nodes), key=lambda i: (-v[i], i))
    return np.array(order, dtype=int)


def permute_network(net: Network, order) -> Network:
    """Relabel nodes so that node order[k] becomes node k."""
    order = np.asarray(order, dtype=int)
    if sorted(order.tolist()) != list(range(net.n_nodes)):
        raise ValueError("order is not a permutation of the node set")
    pos = np.empty(net.n_nodes, dtype=int)
    pos[order] = np.arange(net.n_nodes)
    return Network(net.n_nodes, ((pos[i], pos[j]) for i, j in net.edges))


def network_distance(a: Network, b: Network) -> int:
    """Number of pairs joined in exactly one of the two networks."""
    if a.n_nodes != b.n_nodes:
        raise ValueError(f"node counts differ: {a.n_nodes} vs {b.n_nodes}")
    return len(a.edges ^ b.edges)


def is_connected(net: Network) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in net.neighbors(i):
            if j not in seen:
                seen.add(int(j))
                stack.append(int(j))
    return len(seen) == net.n_nodes


def parse_network(text: str) -> Network:
    """Read a network from its text form.

    First meaningful line holds the node count; each following line one
    edge as two 1-based labels in either order.  Lines starting with '#'
    are comments.
    """
    n_nodes = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n_nodes is None:
            if len(fields) != 1:
                raise ValueError(f"line {lineno}: expected node count, got {line!r}")
            try:
                n_nodes = int(fields[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad node count {fields[0]!r}") from None
            if n_nodes < 1:
                raise ValueError(f"line {lineno}: node count must be positive")
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'm n', got {line!r}")
        try:
            m, n = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: bad edge {line!r}") from None
        if m == n:
            raise ValueError(f"line {lineno}: self-loop on node {m}")
        if not (1 <= m <= n_nodes and 1 <= n <= n_nodes):
            raise ValueError(f"line {lineno}: node out of range in {line!r}")
        key = (min(m, n) - 1, max(m, n) - 1)
        if key in edges:
            raise ValueError(f"line {lineno}: duplicate edge {line!r}")
        edges.add(key)
    if n_nodes is None:
        raise ValueError("empty network file")
    return Network(n_nodes, edges)


def serialize_network(net: Network) -> str:
    lines = [str(net.n_nodes)]
    for i, j in sorted(net.edges):
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def chain_network(n_nodes) -> Network:
    """Path graph 1-2-...-N."""
    return Network(n_nodes, ((i, i + 1) for i in range(n_nodes - 1)))


def smallworld_network(n_nodes, rewire_from, rewire_to) -> Network:
    """Ring with next and next-next links, one ring link rewired.

    Nodes are given 1-based here to match the CLI spelling: the ring link
    (a, a+1) is removed and replaced by (a, b).
    """
    if n_nodes < 3:
        raise ValueError(f"smallworld needs at least 3 nodes, got {n_nodes}")
    a = rewire_from - 1
    b = rewire_to - 1
    if not (0 <= a < n_nodes and 0 <= b < n_nodes):
        raise ValueError("rewire endpoints out of range")
    if a == b:
        raise ValueError("rewire target equals source")
    edges = set()
    for i in range(n_nodes):
        edges.add(tuple(sorted((i, (i + 1) % n_nodes))))
        edges.add(tuple(sorted((i, (i + 2) % n_nodes))))
    edges.discard(tuple(sorted((a, (a + 1) % n_nodes))))
    edges.add(tuple(sorted((a, b))))
    return Network(n_nodes, edges)


# 9-node road network of the Austrian federal states, hand-transcribed from a
# road map (best-effort transcription; exact edge list is illustrative).
# 1=Vorarlberg 2=Tyrol 3=Salzburg 4=Carinthia 5=Upper Austria 6=Styria
# 7=Lower Austria 8=Vienna 9=Burgenland
_AUSTRIA_EDGES_1BASED = (
    (1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (4, 6),
    (5, 6), (5, 7), (6, 7), (6, 9), (7, 8), (7, 9),
)


def austria_network() -> Network:
    return Network(9, ((m - 1, n - 1) for m, n in _AUSTRIA_EDGES_1BASED))
