r"""
Train-track digraphs of the fibered classes (1,j,k)+.

For a fibration class (1,j,k)+ of the magic manifold the monodromy carries an
invariant train track whose real branches fall into four groups; the induced
digraph Gamma_(1,j,k)+ records which branches the image of a branch crosses.
Its vertices, in the fixed order that gives each one its index, are

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

A Digraph stores its edges as index runs plus extra edges.  A run (first,
last) stands for the steps v -> v + 1, first <= v < last, each the one
out-edge of its source; every other edge is an extra (source, target,
multiplicity) triple.  Gamma is three runs (s a_1 .. a_k, r_1 .. r_j and
b_1 .. b_k) and seven extra edges.  Its labels are derived on demand from
(j, k): each label is built when it is read, and the index of a label is
found by arithmetic on its letter and number, then accepted only if the
label at that index is spelled the same.  So building Gamma costs O(1)
steps, and readers find degrees and successors by bisection.  Data is
checked where it enters, as labels, edge triples, a document or (j, k);
the store built from it is not checked again.  A digraph read from labels
(Digraph(...), import_digraph) keeps their checked tuple and a label ->
index dict.  The sorted edge triples are not kept: edges derives them on
each access.  Digraph(...) reads, and the JSON document of export_json and
import_digraph holds, the same triples.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter, abc
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Sequence

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

    The store has two parts.  runs is the sorted tuple of maximal index runs
    (first, last): every v with first <= v < last, a run member, has exactly
    one out-edge, v -> v + 1, of multiplicity one.  extra is the sorted
    tuple of the remaining (source, target, multiplicity) triples, one per
    ordered pair, none of them from a run member.  The store is canonical,
    because its two producers build it so: Digraph(labels, edges)
    normalizes checked triples, and build_magic_digraph writes Gamma's
    store from its formula.  So equality on (labels, runs, extra) is
    equality on labels and edges.
    labels is the checked tuple of a digraph read from labels; Gamma's is a
    sequence that builds each label on demand and equals that tuple.

    Digraph(labels, edges) reads (source, target, multiplicity) triples,
    the form edges returns, and normalizes them into the store in one pass.
    edges, the sorted triples of both parts, is derived on each access and
    not kept.
    """

    labels: Sequence[str]
    runs: tuple[tuple[int, int], ...]
    extra: tuple[tuple[int, int, int], ...]

    def __init__(
        self, labels: Sequence[str], edges: Iterable[tuple[int, int, int]]
    ):
        """Refuses, as ValueError, the first edge in input order that is no
        triple, has an index that is not an int in range or a multiplicity
        that is not an int >= 1, or repeats the pair of an earlier edge."""
        labels = _checked_labels(labels)
        n = len(labels)
        mults: dict[tuple[int, int], int] = {}
        for edge in edges:
            try:
                source, target, mult = edge
            except (TypeError, ValueError):
                raise ValueError(
                    f"edge {edge!r} is not a (source, target, multiplicity) triple"
                ) from None
            # exactly int: True, or any other int subclass, is no index or
            # multiplicity
            for v in (source, target):
                if type(v) is not int or v < 0:
                    raise ValueError("vertex indices must be nonnegative integers")
                if v >= n:
                    raise ValueError(f"vertex index {v} out of range for {n} labels")
            if type(mult) is not int or mult < 1:
                raise ValueError("edge multiplicities must be positive integers")
            if (source, target) in mults:
                raise ValueError(f"edge {edge!r} repeats the pair of an earlier edge")
            mults[source, target] = mult
        triples = sorted((s, t, m) for (s, t), m in mults.items())
        self._fill(labels, *_runs_and_extra(triples))

    @classmethod
    def _from_store(
        cls,
        labels: Sequence[str],
        runs: Iterable[tuple[int, int]],
        extra: Iterable[tuple[int, int, int]],
    ) -> Digraph:
        """The digraph of a canonical store, as _fill takes it; labels must
        be checked already."""
        g = cls.__new__(cls)
        g._fill(labels, runs, extra)
        return g

    def _fill(self, labels: Sequence[str], runs, extra) -> None:
        """Sets the three fields, checking nothing: the store's only two
        producers, _runs_and_extra and build_magic_digraph, build it
        canonical."""
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "runs", tuple(map(tuple, runs)))
        object.__setattr__(self, "extra", tuple(extra))

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The sorted (source, target, multiplicity) triples of both parts,
        built on each access and not kept."""
        steps = chain.from_iterable(
            zip(range(first, last), range(first + 1, last + 1), repeat(1))
            for first, last in self.runs
        )
        return tuple(sorted(chain(steps, self.extra)))

    @cached_property
    def _find(self) -> Callable[[str], int | None]:
        """label -> its index, or None: arithmetic on Gamma's labels, a dict
        lookup otherwise."""
        if isinstance(self.labels, _MagicLabels):
            return self.labels.find
        return {lbl: i for i, lbl in enumerate(self.labels)}.get

    @cached_property
    def _out(self) -> dict[int, tuple[int, ...]]:
        """The targets of the extra edges out of each of their sources."""
        out: dict[int, list[int]] = {}
        for source, target, _ in self.extra:
            out.setdefault(source, []).append(target)
        return {source: tuple(targets) for source, targets in out.items()}

    @cached_property
    def _targets(self) -> list[int]:
        """The targets of the extra edges, sorted, one per edge."""
        return sorted(target for _, target, _ in self.extra)

    def run_last(self, v: int) -> int | None:
        """The last vertex of the run that vertex index v is a member of,
        so that v's one out-edge is v -> v + 1; None if v is no member."""
        # (v + 1,) sorts after every run that starts at or before v
        at = bisect_left(self.runs, (v + 1,)) - 1
        if at >= 0 and v < self.runs[at][1]:
            return self.runs[at][1]
        return None

    def successors(self, v: int) -> tuple[int, ...]:
        """The targets of the edges out of vertex index v, increasing."""
        return self._out.get(v, ()) if self.run_last(v) is None else (v + 1,)

    def extra_into(self, start: int, stop: int) -> int:
        """The number of extra edges into vertex indices start .. stop - 1."""
        return bisect_left(self._targets, stop) - bisect_left(self._targets, start)

    def in_degree(self, v: int) -> int:
        """The number of vertices with an edge to vertex index v."""
        return (self.run_last(v - 1) is not None) + self.extra_into(v, v + 1)

    def bare(self, side: int) -> tuple[int, ...]:
        """The vertex indices with no edge out (side 0) or in (side 1),
        increasing."""
        return self._bare[side]

    @cached_property
    def _bare(self) -> list[tuple[int, ...]]:
        """bare(0) and bare(1), read off the spans that the runs and extra
        edges cover, once per digraph."""
        both = []
        for side in (0, 1):
            spans = sorted([(first + side, last + side) for first, last in self.runs]
                           + [(edge[side], edge[side] + 1) for edge in self.extra])
            bare, v = [], 0
            for a, b in spans:
                bare += range(v, a)
                v = max(v, b)
            both.append((*bare, *range(v, len(self.labels))))
        return both

    def index(self, label: str) -> int:
        at = self._find(label)
        if at is None:
            raise KeyError(f"no vertex labeled {label!r}")
        return at

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        """Total multiplicity over all ordered pairs."""
        steps = sum(last - first for first, last in self.runs)
        return steps + sum(mult for _, _, mult in self.extra)

    def multiplicity(self, source: str, target: str) -> int:
        s, t = self.index(source), self.index(target)
        if self.run_last(s) is not None:
            return int(t == s + 1)
        pos = bisect_left(self.extra, (s, t))
        if pos < len(self.extra) and self.extra[pos][:2] == (s, t):
            return self.extra[pos][2]
        return 0

    def has_edge(self, source: str, target: str) -> bool:
        return self.multiplicity(source, target) > 0

    def out_labels(self, source: str) -> tuple[str, ...]:
        return tuple(map(self.labels.__getitem__, self.successors(self.index(source))))


def _runs_and_extra(
    edges: list[tuple[int, int, int]],
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """The store of sorted (source, target, multiplicity) triples, one per
    pair: a vertex whose one out-edge is v -> v + 1 of multiplicity one is a
    run member, and consecutive members make one run."""
    out_degree = Counter(source for source, _, _ in edges)
    runs: list[list[int]] = []
    extra = []
    for edge in edges:
        source, target, mult = edge
        if (target, mult) == (source + 1, 1) and out_degree[source] == 1:
            if runs and runs[-1][1] == source:
                runs[-1][1] = target
            else:
                runs.append([source, target])
        else:
            extra.append(edge)
    return runs, extra


def _checked_labels(labels: Sequence[str]) -> tuple[str, ...]:
    labels = tuple(labels)
    if not all(isinstance(lbl, str) for lbl in labels):
        raise ValueError("labels must be strings")
    if len(set(labels)) != len(labels):
        raise ValueError("vertex labels must be unique")
    return labels


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


class _MagicLabels(abc.Sequence):
    """The labels s, a_1 .. a_k, r_1 .. r_j, b_1 .. b_k of Gamma_(1,j,k)+,
    each built when it is read.  A read-only sequence of j and k alone that
    compares equal to the tuple of them, hashes the same, and slices (to a
    tuple), iterates and pickles like it."""

    def __init__(self, j: int, k: int):
        self.j, self.k = j, k

    def __len__(self) -> int:
        return 1 + self.j + 2 * self.k

    def __getitem__(self, i):
        # a range slices, and refuses an index out of range or not an int
        at = range(len(self))[i]
        return tuple(map(self._label, at)) if isinstance(at, range) else self._label(at)

    def _label(self, i: int) -> str:
        j, k = self.j, self.k
        if i == 0:
            return "s"
        if i <= k:
            return f"a_{i}"
        if i <= k + j:
            return f"r_{i - k}"
        return f"b_{i - k - j}"

    def __iter__(self):
        return map(self._label, range(len(self)))

    def find(self, label: object) -> int | None:
        """The index of label, by arithmetic on its letter and number; None
        unless the label there is spelled exactly so (int() also reads
        '04', '+1', '1_0' and other digits, which name no vertex)."""
        if not isinstance(label, str):
            return None
        if label == "s":
            return 0
        try:
            at = int(label[2:]) + {"a_": 0, "r_": self.k, "b_": self.k + self.j}[label[:2]]
        except (ValueError, KeyError):
            return None
        return at if 0 < at < len(self) and self._label(at) == label else None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _MagicLabels)):
            return len(other) == len(self) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def build_magic_digraph(spec: MagicDigraphSpec) -> Digraph:
    """The digraph Gamma_(1,j,k)+ on 1 + j + 2k vertices.

    The store is written from the group offsets of the vertex order, s = 0,
    a_i = i, r_i = k + i, b_i = k + j + i: the runs s -> a_1 -> .. -> a_k,
    r_1 -> .. -> r_j and b_1 -> .. -> b_k (the last two empty when j = 1 or
    k = 1), and the seven fan-out edges (six when k = 1) as extra edges.
    """
    j, k = spec.j, spec.k
    r, b = k, k + j
    runs = [(0, k)]
    if j > 1:
        runs.append((r + 1, r + j))
    if k > 1:
        runs.append((b + 1, b + k))
    extra = [(k, 0, 1), (k, 1, 1), (k, r + 1, 1), (r + j, 0, 1), (r + j, b + 1, 1)]
    if k > 1:
        extra.append((b + k, 1, 1))
    extra.append((b + k, r + 1, 1))
    return Digraph._from_store(_MagicLabels(j, k), runs, extra)


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
        walks = self.short_cycle, self.step_cycle, self.long_cycle, self.spanning_path
        return tuple(len(walk) - 1 for walk in walks)


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
    """Read a digraph from a JSON document
    {"edges": [[source, target, multiplicity], ...], "labels": [...]}.

    Accepts either the JSON text or the already-parsed dict.  Parsing is
    strict: the document has exactly the keys "edges" and "labels", labels
    must be a list of unique strings, edges a list of lists, and each edge
    a triple that Digraph accepts: indices in range, every multiplicity an
    integer >= 1 (not a boolean), and one edge per ordered pair.
    """
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict):
        raise ValueError("digraph document must be a JSON object")
    unknown = [key for key in document if key not in ("labels", "edges")]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in the digraph document")
    try:
        labels = document["labels"]
        edges = document["edges"]
    except KeyError as exc:
        raise ValueError(f"digraph document is missing key {exc}") from None
    if not isinstance(labels, list):
        raise ValueError("labels must be a list of strings")
    if not isinstance(edges, list) or not all(isinstance(edge, list) for edge in edges):
        raise ValueError("edges must be a list of edges, each a list")
    return Digraph(labels, edges)


def export_json(g: Digraph) -> str:
    """Serialize to the document format accepted by import_digraph: the
    sorted edge triples and the labels."""
    return json.dumps({"edges": g.edges, "labels": list(g.labels)}, sort_keys=True)


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
