"""The bound path algebra kQ/I with monomial relations.

For the family Q[a1,a2] the ideal I is generated by the a2+1 subpaths of the
potential cycle W of length a2, so the relations are purely monomial: a path
is zero in the algebra iff it contains a forbidden factor.  No Groebner
machinery is needed; the basis is the finite set of nonzero paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import AlgebraError, ShapeError, UnsupportedParameters, VertexError
from .linalg import Matrix
from .quiver import Arrow, Quiver, Vertex, opposite, r, s, t


@dataclass(frozen=True)
class Path:
    """A residue path: source, target and the arrow sequence (empty = e_x)."""

    source: Vertex
    target: Vertex
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        at = self.source
        for (src, dst) in self.arrows:
            if src != at:
                raise VertexError(f"arrow {src}->{dst} does not compose at {at}")
            at = dst
        if at != self.target:
            raise VertexError("path target mismatch")

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_lazy(self) -> bool:
        return not self.arrows

    def label(self) -> str:
        if self.is_lazy:
            return f"e({self.source.label})"
        return "->".join([self.source.label] + [dst.label for (_, dst) in self.arrows])

    def __repr__(self) -> str:
        return self.label()

    def sort_key(self):
        return (len(self.arrows), self.arrows)

    def reversed(self) -> "Path":
        """The same walk in the opposite quiver."""
        return Path(
            self.target,
            self.source,
            tuple((dst, src) for (src, dst) in reversed(self.arrows)),
        )


def lazy_path(x: Vertex) -> Path:
    return Path(x, x, ())


class BoundAlgebra:
    """Path algebra of a quiver modulo monomial relations, with a finite basis.

    forbidden: arrow sequences generating the ideal; any path containing one
    of them as a consecutive factor is zero.
    """

    def __init__(
        self,
        quiver: Quiver,
        forbidden: Sequence[tuple[Arrow, ...]],
        name: str = "",
        a1: Optional[int] = None,
        a2: Optional[int] = None,
    ):
        counts = {}
        for a in quiver.arrows:
            counts[a] = counts.get(a, 0) + 1
        if any(c > 1 for c in counts.values()):
            raise AlgebraError("parallel arrows are not supported by the path basis")
        self.quiver = quiver
        self.forbidden = tuple(tuple(w) for w in forbidden)
        self.name = name
        self.a1 = a1
        self.a2 = a2
        self.basis: dict[tuple[Vertex, Vertex], tuple[Path, ...]] = {}
        self._build_basis(4 * quiver.n + 4)
        self._opposite: Optional[BoundAlgebra] = None
        # reps.injective's I(x), by vertex: built once, read by every τ
        self._injectives: dict = {}

    # -- basis -------------------------------------------------------------

    def _build_basis(self, cap: int) -> None:
        by_pair: dict[tuple[Vertex, Vertex], list[Path]] = {
            (x, y): [] for x in self.quiver.vertices for y in self.quiver.vertices
        }
        frontier = [lazy_path(x) for x in self.quiver.vertices]
        for p in frontier:
            by_pair[(p.source, p.target)].append(p)
        while frontier:
            new_frontier = []
            for p in frontier:
                for arrow in self.quiver.arrows_from(p.target):
                    ext = p.arrows + (arrow,)
                    if self._contains_forbidden(ext):
                        continue
                    q = Path(p.source, arrow[1], ext)
                    if len(q) > cap:
                        raise AlgebraError(
                            f"path basis exceeds length cap {cap}; algebra is likely infinite-dimensional"
                        )
                    by_pair[(q.source, q.target)].append(q)
                    new_frontier.append(q)
            frontier = new_frontier
        self.basis = {
            pair: tuple(sorted(paths, key=Path.sort_key)) for pair, paths in by_pair.items()
        }

    def _contains_forbidden(self, arrows: tuple[Arrow, ...]) -> bool:
        for w in self.forbidden:
            lw = len(w)
            if lw == 0 or lw > len(arrows):
                continue
            for i in range(len(arrows) - lw + 1):
                if arrows[i : i + lw] == w:
                    return True
        return False

    def compose(self, p: Path, q: Path) -> Optional[Path]:
        """p followed by q (p: x->y, q: y->z); None if the residue is zero."""
        if p.target != q.source:
            raise VertexError(f"paths {p} and {q} do not compose")
        arrows = p.arrows + q.arrows
        if self._contains_forbidden(arrows):
            return None
        return Path(p.source, q.target, arrows)

    def basis_paths(self, x: Vertex, y: Vertex) -> tuple[Path, ...]:
        if (x, y) not in self.basis:
            raise VertexError(f"({x}, {y}) not a vertex pair of this algebra")
        return self.basis[(x, y)]

    @property
    def dimension(self) -> int:
        return sum(len(paths) for paths in self.basis.values())

    def opposite_algebra(self) -> "BoundAlgebra":
        if self._opposite is None:
            op = BoundAlgebra(
                opposite(self.quiver),
                [tuple((dst, src) for (src, dst) in reversed(w)) for w in self.forbidden],
                name=self.name + "^op" if self.name else "op",
                a1=self.a1,
                a2=self.a2,
            )
            op._opposite = self
            self._opposite = op
        return self._opposite

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_json(),
            "a1": self.a1,
            "a2": self.a2,
            "dim": self.dimension,
            "basis": {
                f"{x.label}->{y.label}": [p.label() for p in paths]
                for (x, y), paths in sorted(self.basis.items(), key=lambda kv: kv[0])
                if paths
            },
        }


def build_quiver(a1: int, a2: int) -> Quiver:
    """The quiver Q[a1,a2]: an (a2+1)-cycle r_0 -> ... -> r_{a2} -> r_0 with an
    incoming branch s_1 -> ... -> s_{a1-1} -> r_{a2} and an outgoing branch
    r_0 -> t_1 -> ... -> t_{a1-1}."""
    if a1 < 1 or a2 < 2:
        raise UnsupportedParameters(f"need a1 >= 1 and a2 >= 2, got ({a1}, {a2})")
    vertices = [r(i) for i in range(a2 + 1)]
    vertices += [s(i) for i in range(1, a1)]
    vertices += [t(i) for i in range(1, a1)]
    cycle = [(r(i), r(i + 1)) for i in range(a2)] + [(r(a2), r(0))]
    arrows = list(cycle)
    arrows += [(s(i), s(i + 1)) for i in range(1, a1 - 1)]
    if a1 >= 2:
        arrows.append((s(a1 - 1), r(a2)))
        arrows.append((r(0), t(1)))
    arrows += [(t(i), t(i + 1)) for i in range(1, a1 - 1)]
    return Quiver(tuple(vertices), tuple(arrows), tuple(cycle))


def build_algebra(a1: int, a2: int) -> BoundAlgebra:
    """The Jacobian algebra A = kQ[a1,a2]/I, I generated by the length-a2
    subpaths of the potential cycle."""
    q = build_quiver(a1, a2)
    cycle = list(q.potential)
    wrapped = cycle + cycle
    forbidden = [tuple(wrapped[i : i + a2]) for i in range(a2 + 1)]
    return BoundAlgebra(q, forbidden, name=f"A[{a1},{a2}]", a1=a1, a2=a2)


# -- path matrices -------------------------------------------------------------

PathCombo = tuple[tuple[Fraction, Path], ...]


def combo_of(path: Path) -> PathCombo:
    return ((Fraction(1), path),)


@dataclass(frozen=True)
class PathMatrix:
    """Matrix of formal path combinations presenting a map between projective
    sums ⊕P(col_j) -> ⊕P(row_i).

    Entry (i, j) is a rational combination of paths row_i -> col_j; the
    realized morphism sends the generator of P(col_j) to the corresponding
    element of ⊕_i P(row_i)_{col_j}.
    """

    row_vertices: tuple[Vertex, ...]
    col_vertices: tuple[Vertex, ...]
    entries: tuple[tuple[PathCombo, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.row_vertices):
            raise ShapeError("path matrix row count mismatch")
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_vertices):
                raise ShapeError("path matrix column count mismatch")
            for j, combo in enumerate(row):
                for (_, p) in combo:
                    if p.source != self.row_vertices[i] or p.target != self.col_vertices[j]:
                        raise ShapeError(
                            f"entry ({i},{j}) path {p} should run "
                            f"{self.row_vertices[i]} -> {self.col_vertices[j]}"
                        )

    def transpose(self) -> "PathMatrix":
        """The same data over the opposite algebra: transpose and reverse paths."""
        new_entries = tuple(
            tuple(
                tuple((c, p.reversed()) for (c, p) in self.entries[i][j])
                for i in range(len(self.row_vertices))
            )
            for j in range(len(self.col_vertices))
        )
        return PathMatrix(self.col_vertices, self.row_vertices, new_entries)
