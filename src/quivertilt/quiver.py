"""Labeled quivers, exchange matrices, matrix mutation and type classification.

Vertices carry a role tag: r(i) for the oriented cycle, s(i) for the incoming
branch, t(i) for the outgoing branch.  The canonical vertex order used by
every matrix in the package is [r_0, ..., r_{a2}, s_1, ..., s_{a1-1},
t_1, ..., t_{a1-1}].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple, Optional

from .errors import ConversionError, VertexError


class Vertex(NamedTuple("_Vertex", [("role", str), ("index", int)])):
    """A (role, index) pair.  Tuple order is the canonical vertex order,
    because the roles r < s < t sort as letters."""

    __slots__ = ()

    def __new__(cls, role: str, index: int):
        if role not in ("r", "s", "t"):
            raise VertexError(f"unknown vertex role {role!r}")
        return super().__new__(cls, role, index)

    @property
    def label(self) -> str:
        return f"{self.role}{self.index}"

    def __repr__(self) -> str:
        return self.label


def r(i: int) -> Vertex:
    return Vertex("r", i)


def s(i: int) -> Vertex:
    return Vertex("s", i)


def t(i: int) -> Vertex:
    return Vertex("t", i)


def branch_s(a1: int, a2: int, i: int) -> Vertex:
    """s_i of Q[a1,a2] with the convention s_{a1} = r_{a2}."""
    if i == a1:
        return r(a2)
    if 1 <= i < a1:
        return s(i)
    raise VertexError(f"s_{i} out of range for a1={a1}")


def branch_t(a1: int, i: int) -> Vertex:
    """t_i of Q[a1,a2] with the convention t_0 = r_0."""
    if i == 0:
        return r(0)
    if 1 <= i < a1:
        return t(i)
    raise VertexError(f"t_{i} out of range for a1={a1}")


def parse_vertex(label: str) -> Vertex:
    role = label[:1]
    try:
        return Vertex(role, int(label[1:]))
    except (ValueError, VertexError):
        raise VertexError(f"cannot parse vertex label {label!r}") from None


Arrow = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph with an optional potential cycle.

    Loops and 2-cycles are rejected at construction: the mutation theory used
    here lives entirely in the no-loop, no-2-cycle world, and Fomin-Zelevinsky
    mutation never creates either.
    """

    vertices: tuple[Vertex, ...]
    arrows: tuple[Arrow, ...]
    potential: Optional[tuple[Arrow, ...]] = None

    def __post_init__(self):
        seen_labels = set()
        for v in self.vertices:
            if v.label in seen_labels:
                raise VertexError(f"duplicate vertex label {v.label}")
            seen_labels.add(v.label)
        vset = set(self.vertices)
        pairs = set()
        for (src, dst) in self.arrows:
            if src not in vset or dst not in vset:
                raise VertexError(f"arrow {src}->{dst} uses unknown vertex")
            if src == dst:
                raise ConversionError(f"loop at {src}")
            pairs.add((src, dst))
        for (src, dst) in pairs:
            if (dst, src) in pairs:
                raise ConversionError(f"2-cycle between {src} and {dst}")
        if self.potential is not None:
            cyc = self.potential
            arrow_multiset = list(self.arrows)
            for a in cyc:
                if a not in arrow_multiset:
                    raise VertexError(f"potential arrow {a} not in quiver")
                arrow_multiset.remove(a)
            visited = set()
            for k, (src, dst) in enumerate(cyc):
                if src in visited:
                    raise VertexError("potential revisits a vertex")
                visited.add(src)
                nxt = cyc[(k + 1) % len(cyc)]
                if dst != nxt[0]:
                    raise VertexError("potential arrows do not form a cycle")

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def arrows_from(self, v: Vertex) -> list[Arrow]:
        return [a for a in self.arrows if a[0] == v]

    def arrows_into(self, v: Vertex) -> list[Arrow]:
        return [a for a in self.arrows if a[1] == v]

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [v.label for v in self.vertices],
            "arrows": [[a.label, b.label] for (a, b) in self.arrows],
            "potential": None
            if self.potential is None
            else [[a.label, b.label] for (a, b) in self.potential],
        }



@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetric integer matrix under a fixed vertex order.

    Sign convention: b[i][j] = #arrows(i -> j) - #arrows(j -> i).
    """

    entries: tuple[tuple[int, ...], ...]
    vertices: tuple[Vertex, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ConversionError("exchange matrix shape does not match vertex list")
        for i in range(n):
            for j in range(n):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise ConversionError("exchange matrix is not skew-symmetric")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, v: Vertex) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise VertexError(f"{v} not a vertex of this matrix") from None

    def to_quiver(self) -> Quiver:
        """Quiver with b[i][j] arrows i -> j for every positive entry."""
        arrows = []
        n = self.n
        for i in range(n):
            for j in range(n):
                if self.entries[i][j] > 0:
                    arrows.extend([(self.vertices[i], self.vertices[j])] * self.entries[i][j])
        return Quiver(self.vertices, tuple(arrows))


def to_exchange_matrix(q: Quiver) -> ExchangeMatrix:
    n = q.n
    idx = {v: i for i, v in enumerate(q.vertices)}
    b = [[0] * n for _ in range(n)]
    for (src, dst) in q.arrows:
        b[idx[src]][idx[dst]] += 1
        b[idx[dst]][idx[src]] -= 1
    return ExchangeMatrix(tuple(tuple(row) for row in b), q.vertices)


def mutate_matrix(b: ExchangeMatrix, k: Vertex | int) -> ExchangeMatrix:
    """Fomin-Zelevinsky mutation at vertex k."""
    kk = k if isinstance(k, int) else b.vertex_index(k)
    n = b.n
    if not 0 <= kk < n:
        raise VertexError(f"mutation index {kk} out of range")
    old = b.entries
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == kk or j == kk:
                new[i][j] = -old[i][j]
            elif old[i][kk] * old[kk][j] > 0:
                sign = 1 if old[i][kk] > 0 else -1
                new[i][j] = old[i][j] + sign * old[i][kk] * old[kk][j]
            else:
                new[i][j] = old[i][j]
    return ExchangeMatrix(tuple(tuple(row) for row in new), b.vertices)


def opposite(q: Quiver) -> Quiver:
    potential = None
    if q.potential is not None:
        potential = tuple((dst, src) for (src, dst) in reversed(q.potential))
    return Quiver(q.vertices, tuple((dst, src) for (src, dst) in q.arrows), potential)


# -- acyclic type classification ---------------------------------------------


@dataclass(frozen=True)
class TypeLabel:
    """Dynkin/affine/wild label of an acyclic tree-shaped quiver.

    kind is one of A, D, E, AffineE, TreeWild, Cyclic, Other; params carry the
    rank (A/D/E/AffineE) or the sorted branch data (p, q, r) for TreeWild.
    """

    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.kind in ("A", "D", "E"):
            return f"{self.kind}{self.params[0]}"
        if self.kind == "AffineE":
            return f"affine E{self.params[0]}"
        if self.kind == "TreeWild":
            return "T({},{},{}) wild".format(*self.params)
        return self.kind


def has_directed_cycle(q: Quiver) -> bool:
    succ: dict[Vertex, set[Vertex]] = {v: set() for v in q.vertices}
    for (src, dst) in q.arrows:
        succ[src].add(dst)
    try:
        TopologicalSorter(succ).prepare()
    except CycleError:
        return True
    return False


def tree_branch_data(q: Quiver) -> Optional[tuple[int, int, int]]:
    """Branch data (p, q, r), sorted ascending, of a T_{p,q,r}-shaped tree.

    None when the underlying graph has no (unique, degree-3) branch vertex;
    paths in particular return None.
    """
    if not _is_tree(q):
        return None
    return _branch_data_raw(q)


def _undirected_adjacency(q: Quiver) -> dict[Vertex, list[Vertex]]:
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in q.vertices}
    for (a, b) in q.arrows:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _is_tree(q: Quiver) -> bool:
    if len(q.arrows) != q.n - 1:
        return False
    seen_pairs = set()
    for (a, b) in q.arrows:
        key = frozenset((a, b))
        if key in seen_pairs:
            return False
        seen_pairs.add(key)
    adj = _undirected_adjacency(q)
    seen = set()
    stack = [q.vertices[0]] if q.vertices else []
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    return len(seen) == q.n


def _branch_data_raw(q: Quiver) -> Optional[tuple[int, int, int]]:
    adj = _undirected_adjacency(q)
    branch = [v for v in q.vertices if len(adj[v]) >= 3]
    if len(branch) != 1 or len(adj[branch[0]]) != 3:
        return None
    center = branch[0]
    arms = []
    for first in adj[center]:
        length = 1
        prev, cur = center, first
        while True:
            nexts = [w for w in adj[cur] if w != prev]
            if not nexts:
                break
            prev, cur = cur, nexts[0]
            length += 1
        arms.append(length)
    p, q_, r_ = sorted(arms)
    return (p + 1, q_ + 1, r_ + 1)


def classify_acyclic_type(q: Quiver) -> TypeLabel:
    """Dynkin / affine / wild trichotomy for paths and T_{p,q,r} trees.

    Returns Cyclic for quivers with a directed cycle and Other for trees that
    are not of T_{p,q,r} shape (more than one branch vertex, or a vertex of
    degree >= 4, or multi-edges).
    """
    if q.n == 0:
        return TypeLabel("Other")
    if has_directed_cycle(q):
        return TypeLabel("Cyclic")
    if not _is_tree(q):
        return TypeLabel("Other")
    adj = _undirected_adjacency(q)
    degrees = sorted(len(adj[v]) for v in q.vertices)
    if degrees[-1] <= 2:
        return TypeLabel("A", (q.n,))
    data = _branch_data_raw(q)
    if data is None:
        return TypeLabel("Other")
    p, qq, rr = data
    if (p, qq) == (2, 2):
        return TypeLabel("D", (rr + 2,))
    if (p, qq) == (2, 3) and rr in (3, 4, 5):
        return TypeLabel("E", (rr + 3,))
    harmonic = Fraction(1, p) + Fraction(1, qq) + Fraction(1, rr)
    if harmonic == 1:
        rank = {(3, 3, 3): 6, (2, 4, 4): 7, (2, 3, 6): 8}[(p, qq, rr)]
        return TypeLabel("AffineE", (rank,))
    return TypeLabel("TreeWild", (p, qq, rr))
