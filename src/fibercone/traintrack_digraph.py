r"""
Train-track digraphs of the fibered classes (1,j,k)+.

For a fibration class (1,j,k)+ of the magic manifold the monodromy carries an
invariant train track whose real branches fall into four groups; the induced
digraph Gamma_(1,j,k)+ records which branches the image of a branch crosses.
Its vertices, in the fixed order used for all matrices, are

    s,  a_1 .. a_k,  r_1 .. r_j,  b_1 .. b_k,

and for j, k >= 2 the edges (all of multiplicity one) are

    s -> a_1
    a_i -> a_{i+1}   (1 <= i < k)        the a-chain
    a_k -> a_1,  a_k -> s,  a_k -> r_1   fan-out of the a-cycle
    r_i -> r_{i+1}   (1 <= i < j)        the r-chain
    r_j -> s,  r_j -> b_1                fan-out of the r-chain
    b_i -> b_{i+1}   (1 <= i < k)        the b-chain
    b_k -> a_1,  b_k -> r_1              fan-out of the b-chain

giving 1 + j + 2k vertices and j + 2k + 5 edges.  When j = 1 the r-chain is
empty and r_1 keeps both fan-out edges.  When k = 1 the a- and b-chains are
empty, a_1 keeps its self-loop (the k = 1 instance of a_k -> a_1) together
with a_1 -> s and a_1 -> r_1, and the edge b_1 -> a_1 disappears, so the
unique out-edge of b_1 is b_1 -> r_1.  The degenerate rules are the minimal
collapse of the generic picture that keeps the one-step image of b_1 equal to
{r_1} and preserves primitivity; they are a reconstruction, since only the
generic figure is given explicitly.

The digraph always contains cycles of lengths k and k + 1 through a_k
(consecutive, hence coprime, lengths), so it is primitive, and a directed
spanning walk shows it is strongly connected.  certify_canonical_walks makes
the four walks every downstream bound relies on executable checks:

    (a) a cycle at a_k of length k            (around the a-cycle)
    (b) a cycle at a_k of length k + 1        (through s)
    (c) a cycle at a_k of length j + k + 1    (through r_1..r_j and s)
    (d) a spanning path from r_1 to s of length j + 2k visiting every vertex.

A Digraph stores its edges sparsely, as sorted (source, target, multiplicity)
index triples, so building Gamma costs one pass over its j + 2k + 5 edges.
The dense view, derived only on request, follows the convention
adjacency[i][j] = number of directed edges from vertex j to vertex i, so
matrix powers act on indicator columns; the JSON document uses that view.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Iterable, Sequence

__all__ = [
    "Digraph",
    "MagicDigraphSpec",
    "WalkCertificates",
    "build_magic_digraph",
    "magic_digraph",
    "certify_canonical_walks",
    "import_digraph",
    "export_json",
    "export_dot",
]


@dataclass(frozen=True, init=False)
class Digraph:
    """A finite directed multigraph with labeled vertices.

    The store is sparse: edges is the sorted tuple of (source, target,
    multiplicity) vertex-index triples, one per ordered pair that carries an
    edge, each with multiplicity >= 1.  Equality compares labels and edges.

    Digraph(labels, adjacency) reads a dense matrix in which adjacency[i][j]
    holds the number of directed edges from vertex j to vertex i (column
    index = source, row index = target); Digraph.from_edges reads the edge
    multiset directly.  The dense adjacency tuple is derived on first access.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __init__(self, labels: Sequence[str], adjacency: Sequence[Sequence[int]]):
        labels = _checked_labels(labels)
        n = len(labels)
        if len(adjacency) != n:
            raise ValueError("adjacency matrix must be square of size = #labels")
        edges = []
        for target, row in enumerate(adjacency):
            if len(row) != n:
                raise ValueError("adjacency matrix must be square")
            for source, mult in enumerate(row):
                _check_count(mult, "edge multiplicities")
                if mult:
                    edges.append((source, target, mult))
        edges.sort()
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", tuple(edges))

    @classmethod
    def from_edges(
        cls, labels: Sequence[str], pairs: Iterable[tuple[int, int]]
    ) -> Digraph:
        """The digraph with one edge per (source, target) index pair listed.

        A pair listed t times is an edge of multiplicity t.
        """
        labels = _checked_labels(labels)
        n = len(labels)
        pairs = tuple(pairs)
        try:
            counts = Counter(pairs)
            # types are read from every pair, since True == 1 would hide
            # behind an equal int among the distinct pairs
            valid = (
                set(map(len, counts)) <= {2}
                and set(map(type, chain.from_iterable(pairs))) <= {int}
                and min(chain.from_iterable(counts), default=0) >= 0
                and max(chain.from_iterable(counts), default=-1) < n
            )
        except TypeError:
            valid = False
        if not valid:
            counts = Counter()
            for source, target in pairs:
                for v in (source, target):
                    _check_count(v, "vertex indices")
                    if v >= n:
                        raise ValueError(
                            f"vertex index {v} out of range for {n} labels"
                        )
                counts[source, target] += 1
        g = cls.__new__(cls)
        object.__setattr__(g, "labels", labels)
        object.__setattr__(
            g, "edges", tuple(sorted((s, t, m) for (s, t), m in counts.items()))
        )
        return g

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix: adjacency[i][j] = #edges from vertex j to vertex i."""
        n = len(self.labels)
        rows = [[0] * n for _ in range(n)]
        for source, target, mult in self.edges:
            rows[target][source] = mult
        return tuple(tuple(row) for row in rows)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lbl: i for i, lbl in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no vertex labeled {label!r}") from None

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        """Total multiplicity over all ordered pairs."""
        return sum(mult for _, _, mult in self.edges)

    def multiplicity(self, source: str, target: str) -> int:
        key = (self.index(source), self.index(target))
        pos = bisect_left(self.edges, key)
        if pos < len(self.edges) and self.edges[pos][:2] == key:
            return self.edges[pos][2]
        return 0

    def has_edge(self, source: str, target: str) -> bool:
        return self.multiplicity(source, target) > 0

    def out_labels(self, source: str) -> tuple[str, ...]:
        j = self.index(source)
        lo, hi = bisect_left(self.edges, (j,)), bisect_left(self.edges, (j + 1,))
        return tuple(self.labels[target] for _, target, _ in self.edges[lo:hi])


def _checked_labels(labels: Sequence[str]) -> tuple[str, ...]:
    labels = tuple(labels)
    if not all(isinstance(lbl, str) for lbl in labels):
        raise ValueError("labels must be strings")
    if len(set(labels)) != len(labels):
        raise ValueError("vertex labels must be unique")
    return labels


def _check_count(value: object, what: str) -> None:
    # bool is an int subclass; True must not pass as a count of one.
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be nonnegative integers")


@dataclass(frozen=True)
class MagicDigraphSpec:
    """Parameters (j, k) of the digraph of the class (1,j,k)+; both >= 1."""

    j: int
    k: int

    def __post_init__(self) -> None:
        if not type(self.j) is type(self.k) is int:
            raise ValueError(
                f"j and k must be integers, got (j,k)=({self.j!r},{self.k!r})"
            )
        if self.j < 1 or self.k < 1:
            raise ValueError(
                f"need j >= 1 and k >= 1, got (j,k)=({self.j},{self.k}); "
                "j = 0 or k = 0 leaves the family of generated digraphs"
            )


def _magic_labels(j: int, k: int) -> tuple[str, ...]:
    return (
        ("s",)
        + tuple(f"a_{i}" for i in range(1, k + 1))
        + tuple(f"r_{i}" for i in range(1, j + 1))
        + tuple(f"b_{i}" for i in range(1, k + 1))
    )


def build_magic_digraph(spec: MagicDigraphSpec) -> Digraph:
    """The digraph Gamma_(1,j,k)+ on 1 + j + 2k vertices.

    Edges are emitted as index pairs from the group offsets of the vertex
    order: s = 0, a_i = i, r_i = k + i, b_i = k + j + i.
    """
    j, k = spec.j, spec.k
    r, b = k, k + j
    pairs = [(0, 1)]
    pairs += zip(range(1, k), range(2, k + 1))
    pairs += [(k, 1), (k, 0), (k, r + 1)]
    pairs += zip(range(r + 1, r + j), range(r + 2, r + j + 1))
    pairs += [(r + j, 0), (r + j, b + 1)]
    pairs += zip(range(b + 1, b + k), range(b + 2, b + k + 1))
    if k > 1:
        pairs.append((b + k, 1))
    pairs.append((b + k, r + 1))
    return Digraph.from_edges(_magic_labels(j, k), pairs)


def magic_digraph(j: int, k: int) -> Digraph:
    """Shorthand for build_magic_digraph(MagicDigraphSpec(j, k))."""
    return build_magic_digraph(MagicDigraphSpec(j, k))


@dataclass(frozen=True)
class WalkCertificates:
    """The four structural walks of Gamma_(1,j,k)+, as label sequences.

    Each walk lists its vertices, so a walk of length L has L + 1 entries.
    short_cycle and step_cycle are the coprime-length cycles at a_k (lengths k
    and k + 1), long_cycle runs through the whole r-chain and s (length
    j + k + 1), and spanning_path visits every vertex once, from r_1 to s
    (length j + 2k).
    """

    short_cycle: tuple[str, ...]
    step_cycle: tuple[str, ...]
    long_cycle: tuple[str, ...]
    spanning_path: tuple[str, ...]

    @property
    def lengths(self) -> tuple[int, int, int, int]:
        return (
            len(self.short_cycle) - 1,
            len(self.step_cycle) - 1,
            len(self.long_cycle) - 1,
            len(self.spanning_path) - 1,
        )


def _check_walk(g: Digraph, walk: tuple[str, ...], what: str) -> None:
    for src, dst in zip(walk, walk[1:]):
        if not g.has_edge(src, dst):
            raise RuntimeError(f"{what}: missing edge {src} -> {dst}")


def certify_canonical_walks(spec: MagicDigraphSpec) -> WalkCertificates:
    """Reconstruct and verify the four walks; any failure is a construction bug.

    Accepts any j >= 1 with k >= 2.  For k = 1 the spanning path cannot exist
    (b_1's only out-edge returns to r_1), so the request is refused.
    """
    j, k = spec.j, spec.k
    if k < 2:
        raise ValueError(
            "no spanning walk exists for k = 1: b_1 -> a_1 is absent, so no "
            "path from r_1 can visit every vertex exactly once"
        )
    g = build_magic_digraph(spec)
    a = [f"a_{i}" for i in range(1, k + 1)]
    r = [f"r_{i}" for i in range(1, j + 1)]
    b = [f"b_{i}" for i in range(1, k + 1)]

    short_cycle = tuple([a[-1]] + a)                       # a_k -> a_1 -> .. -> a_k
    step_cycle = tuple([a[-1], "s"] + a)                   # a_k -> s -> a_1 -> .. -> a_k
    long_cycle = tuple([a[-1]] + r + ["s"] + a)            # a_k -> r_1 .. r_j -> s -> a_1 .. a_k
    spanning_path = tuple(r + b + a + ["s"])               # r_1 .. r_j -> b_1 .. b_k -> a_1 .. a_k -> s

    certs = WalkCertificates(short_cycle, step_cycle, long_cycle, spanning_path)
    _check_walk(g, certs.short_cycle, "short cycle")
    _check_walk(g, certs.step_cycle, "step cycle")
    _check_walk(g, certs.long_cycle, "long cycle")
    _check_walk(g, certs.spanning_path, "spanning path")
    if certs.short_cycle[0] != a[-1] or certs.short_cycle[-1] != a[-1]:
        raise RuntimeError("short cycle is not based at a_k")
    if certs.lengths != (k, k + 1, j + k + 1, j + 2 * k):
        raise RuntimeError(f"walk lengths {certs.lengths} do not match (j,k)=({j},{k})")
    if set(certs.spanning_path) != set(g.labels):
        raise RuntimeError("spanning path misses a vertex")
    if len(set(certs.spanning_path)) != len(certs.spanning_path):
        raise RuntimeError("spanning path repeats a vertex")
    return certs


def import_digraph(document: str | dict[str, Any]) -> Digraph:
    """Read a digraph from a JSON document {"labels": [...], "adjacency": [[...]]}.

    adjacency[i][j] is the multiplicity of the edge from vertex j to vertex i.
    Accepts either the JSON text or the already-parsed dict.  Parsing is
    strict: labels must be a list of unique strings, adjacency a list of
    lists, and every multiplicity a nonnegative integer (not a boolean).
    """
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict):
        raise ValueError("digraph document must be a JSON object")
    try:
        labels = document["labels"]
        adjacency = document["adjacency"]
    except KeyError as exc:
        raise ValueError(f"digraph document is missing key {exc}") from None
    if not isinstance(labels, list):
        raise ValueError("labels must be a list of strings")
    if not isinstance(adjacency, list) or not all(
        isinstance(row, list) for row in adjacency
    ):
        raise ValueError("adjacency must be a list of rows, each a list")
    return Digraph(labels, adjacency)


def export_json(g: Digraph) -> str:
    """Serialize to the document format accepted by import_digraph."""
    return json.dumps(
        {"labels": list(g.labels), "adjacency": [list(row) for row in g.adjacency]},
        sort_keys=True,
    )


def export_dot(g: Digraph) -> str:
    """GraphViz text; one edge line per unit of multiplicity."""
    lines = ["digraph {"]
    for lbl in g.labels:
        lines.append(f'  "{lbl}";')
    for source, target, mult in sorted(g.edges, key=lambda e: (e[1], e[0])):
        line = f'  "{g.labels[source]}" -> "{g.labels[target]}";'
        lines.extend(line for _ in range(mult))
    lines.append("}")
    return "\n".join(lines) + "\n"
