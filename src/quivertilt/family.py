"""The canonical module family over A[a1,a2]: the thin summands M(x) of T,
their defining exact sequences, and the closed-form oracles for tau and Hom.

Index conventions s_{a1} := r_{a2} and t_0 := r_0 (quiver.branch_s and
branch_t) are adopted globally, so degenerate branch cases (a1 = 1) reuse the
cycle vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BoundAlgebra, Path, PathMatrix, build_algebra, combo_of
from .errors import VertexError
from .quiver import Quiver, Vertex, branch_s, branch_t, r, s, t
from . import reps
from .reps import Representation


@dataclass
class FamilyInstance:
    """A[a1,a2] together with the summands M(x) of the canonical module T."""

    a1: int
    a2: int
    algebra: BoundAlgebra

    def __post_init__(self):
        self._summands: dict[Vertex, Representation] = {}

    # -- vertex bookkeeping --------------------------------------------------

    @property
    def quiver(self) -> Quiver:
        return self.algebra.quiver

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self.quiver.vertices

    # -- canonical supports --------------------------------------------------

    def support_M(self, x: Vertex) -> frozenset[Vertex]:
        a1, a2 = self.a1, self.a2
        if x not in self.vertices:
            raise VertexError(f"{x} not a vertex of Q[{a1},{a2}]")
        if x.role == "r":
            i = x.index
            out = set(self.vertices) - {x}
            if i == 0:
                out -= {t(j) for j in range(1, a1)}
            if i == a2:
                out -= {s(j) for j in range(1, a1)}
            return frozenset(out)
        if x.role == "s":
            i = x.index
            return frozenset({r(j) for j in range(a2)} | {t(j) for j in range(1, i)})
        i = x.index
        return frozenset({r(j) for j in range(1, a2 + 1)} | {s(j) for j in range(i + 1, a1)})

    # -- module constructors ---------------------------------------------------

    def module_M(self, x: Vertex) -> Representation:
        """M(x) as the thin module on its canonical support; for branch
        vertices the defining exact-sequence construction is computed too and
        cross-checked against the support table."""
        if x in self._summands:
            return self._summands[x]
        table = reps.thin_from_support(self.algebra, self.support_M(x))
        if x.role == "s":
            other = self._module_s_from_sequence(x.index)
            if not reps.is_isomorphic_reps(table, other):
                raise AssertionError(f"M({x}) exact-sequence route disagrees with support table")
        elif x.role == "t":
            other = self._module_t_from_sequence(x.index)
            if not reps.is_isomorphic_reps(table, other):
                raise AssertionError(f"M({x}) exact-sequence route disagrees with support table")
        self._summands[x] = table
        return table

    def _module_s_from_sequence(self, i: int) -> Representation:
        """M(s_i) = coker of g: P(t_i) -> P(r_0), g the path r_0 -> t_1 -> ... -> t_i."""
        path = self._branch_path(r(0), [branch_t(self.a1, j) for j in range(1, i + 1)])
        pm = PathMatrix((r(0),), (branch_t(self.a1, i),), ((combo_of(path),),))
        g = reps.realize_path_matrix(self.algebra, pm)
        cok, _ = reps.cokernel(g)
        return cok

    def _module_t_from_sequence(self, i: int) -> Representation:
        """M(t_i) = ker of f: I(r_{a2}) -> I(s_i), f the path s_i -> ... -> r_{a2}."""
        chain = [s(j) for j in range(i + 1, self.a1)] + [r(self.a2)]
        path = self._branch_path(branch_s(self.a1, self.a2, i), chain)
        op = self.algebra.opposite_algebra()
        pm = PathMatrix((path.reversed().source,), (path.reversed().target,), ((combo_of(path.reversed()),),))
        # P^op(s_i) -> P^op(r_a2); its dual is I(r_a2) -> I(s_i)
        f = reps.dual_morphism(reps.realize_path_matrix(op, pm))
        ker, _ = reps.kernel(f)
        return ker

    def _branch_path(self, start: Vertex, chain: list[Vertex]) -> Path:
        arrows = []
        at = start
        for v in chain:
            arrows.append((at, v))
            at = v
        return Path(start, at, tuple(arrows))

    # -- oracles ---------------------------------------------------------------

    def expected_tau_support(self, x: Vertex) -> frozenset[Vertex]:
        """Closed-form support of tau M(x); empty for the projective summands.

        At a1 = 1 every summand is projective (M(r_i) = P(r_{i+1})), so the
        answer is empty for every vertex.
        """
        a1, a2 = self.a1, self.a2
        if x not in self.vertices:
            raise VertexError(f"{x} not a vertex")
        if a1 == 1:
            return frozenset()
        if x.role == "r":
            i = x.index
            if i in (a2, a2 - 1):
                return frozenset()
            return frozenset({r(j) for j in range(i + 2, a2 + 1)} | {s(j) for j in range(2, a1)})
        if x.role == "t":
            i = x.index
            if i == a1 - 1:
                return frozenset()
            return frozenset({r(j) for j in range(2, a2 + 1)} | {s(j) for j in range(i + 2, a1)})
        i = x.index
        return frozenset({t(j) for j in range(1, i + 1)})

    def expected_tau(self, x: Vertex) -> Representation:
        supp = self.expected_tau_support(x)
        if not supp:
            return reps.zero_rep(self.algebra)
        return reps.thin_from_support(self.algebra, supp)

    def expected_hom_dim(self, x: Vertex, y: Vertex) -> int:
        """Hom(M(x), M(y)) dimension assembled from the branch/cycle tables:
        the cycle block vanishes exactly on consecutive indices, the two
        branch blocks are upper-triangular, s-targets copy the r_{a2} column,
        t-sources copy the r_0 row, and the remaining mixed blocks vanish."""
        a2 = self.a2
        if x.role == "r" and y.role == "r":
            return 0 if y.index == (x.index + 1) % (a2 + 1) else 1
        if x.role == "s" and y.role == "s":
            return 1 if x.index >= y.index else 0
        if x.role == "t" and y.role == "t":
            return 1 if x.index >= y.index else 0
        if x.role == "r" and y.role == "s":
            return 0 if x.index == a2 - 1 else 1
        if x.role == "t" and y.role == "r":
            return 0 if y.index == 1 else 1
        if x.role == "t" and y.role == "s":
            return 1
        # (r, t), (s, r), (s, t) all vanish
        return 0

    def projective_summand_vertices(self) -> frozenset[Vertex]:
        """Vertices x with M(x) projective: r_{a2}, r_{a2-1}, t_{a1-1} in
        general; every vertex when a1 = 1."""
        if self.a1 == 1:
            return frozenset(self.vertices)
        return frozenset({r(self.a2), r(self.a2 - 1), branch_t(self.a1, self.a1 - 1)})

    def identification_table(self) -> list[tuple[str, Vertex, str, Vertex]]:
        """The six projective/injective identifications of the summands."""
        a1, a2 = self.a1, self.a2
        return [
            ("M", r(a2 - 1), "P", branch_s(a1, a2, 1)),
            ("M", r(a2), "P", r(0)),
            ("M", branch_t(a1, a1 - 1), "P", r(1)),
            ("M", r(0), "I", r(a2)),
            ("M", r(1), "I", branch_t(a1, a1 - 1)),
            ("M", branch_s(a1, a2, 1), "I", r(a2 - 1)),
        ]

    def opposite_isomorphism(self) -> dict[Vertex, Vertex]:
        """The vertex map of Q^op ~= Q: r_i -> r_{a2-i}, s_i -> t_{a1-i},
        t_i -> s_{a1-i}; it reverses the cycle and swaps the two branches."""
        a1, a2 = self.a1, self.a2
        phi = {r(i): r(a2 - i) for i in range(a2 + 1)}
        phi.update({s(i): t(a1 - i) for i in range(1, a1)})
        phi.update({t(i): s(a1 - i) for i in range(1, a1)})
        return phi

    def expected_classified_counts(self, i: int) -> tuple[int, int, int]:
        a1, a2 = self.a1, self.a2
        if i == 0:
            return (a1 * a2, 0, 1)
        return (a1 * (a2 - i), 1, i * a1)


def family_instance(a1: int, a2: int) -> FamilyInstance:
    return FamilyInstance(a1, a2, build_algebra(a1, a2))


def radical_layers(m: Representation) -> list[list[Vertex]]:
    """Support of the radical filtration, top layer first; this reproduces the
    stacked-digit module pictures for thin modules."""
    layers = []
    current = m
    while not current.is_zero():
        rad_mats = reps.radical_matrices(current)
        layer = sorted(
            v for v in m.algebra.quiver.vertices if current.dims[v] - rad_mats[v].ncols > 0
        )
        layers.append(layer)
        current, _ = reps.restrict(current, rad_mats)
    return layers
