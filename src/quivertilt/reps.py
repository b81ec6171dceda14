"""Exact linear algebra of quiver representations over a bound algebra.

Hom, Ext and stable Hom dimensions, kernels/cokernels, tops and socles,
minimal projective presentations, the AR translate τ = D Tr as the kernel of
the Nakayama image ν(d) on the injectives kept on the algebra, thin
submodule lattices and isomorphism certificates.  All arithmetic is rational
and deterministic.

Every Hom number is a count: dim Hom is read off the thin Hom components
between thin modules and is an integer rank count otherwise, and dim Ext^1
and the stable dim Hom modulo injectives are sums of Hom counts over a
projective presentation or an injective copresentation, both kept on the
module.  Only thin Hom spaces are built, as one scalar per vertex
(thin_hom_components).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from graphlib import TopologicalSorter
from typing import Iterable, Optional, Sequence

from .algebra import BoundAlgebra, PathCombo, PathMatrix
from .errors import RelationViolation, ShapeError, UnsupportedInput, VertexError
from .linalg import Matrix, fraction_free_rank
from .quiver import Arrow, Vertex


class Representation:
    """A representation of the bound quiver: dims per vertex, a matrix per arrow.

    Matrices map source to target (shape target_dim x source_dim).  Relation
    compositions are checked at construction.  A representation is immutable
    after construction, so its minimal presentation, tau and injective
    envelope are computed at most once and kept on it.
    """

    def __init__(
        self,
        algebra: BoundAlgebra,
        dims: dict[Vertex, int],
        maps: Optional[dict[Arrow, Matrix]] = None,
        check: bool = True,
    ):
        self.algebra = algebra
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
        if any(d < 0 for d in self.dims.values()):
            raise ShapeError("negative dimension")
        unknown = set(dims) - set(algebra.quiver.vertices)
        if unknown:
            raise VertexError(f"dims given for unknown vertices {unknown}")
        maps = maps or {}
        self.maps: dict[Arrow, Matrix] = {}
        for arrow in algebra.quiver.arrows:
            src, dst = arrow
            mat = maps.get(arrow)
            if mat is None:
                mat = Matrix.zeros(self.dims[dst], self.dims[src])
            if mat.shape != (self.dims[dst], self.dims[src]):
                raise ShapeError(
                    f"map for {src}->{dst} has shape {mat.shape}, "
                    f"expected {(self.dims[dst], self.dims[src])}"
                )
            self.maps[arrow] = mat
        if check:
            self.check_relations()
        self._presentation: Optional[Presentation] = None
        self._tau: Optional[Representation] = None
        # (P0, Ω) of the projective cover P0 -> DM, for stable_hom_dim
        self._envelope: Optional[tuple[Representation, Representation]] = None

    # -- structure ----------------------------------------------------------

    def check_relations(self) -> None:
        for word in self.algebra.forbidden:
            if not word:
                continue
            src = word[0][0]
            composed = Matrix.identity(self.dims[src])
            for a in word:
                composed = self.maps[a] @ composed
            if not composed.is_zero():
                raise RelationViolation(
                    f"composition along forbidden word starting at {src} is nonzero"
                )

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def support(self) -> frozenset[Vertex]:
        return frozenset(v for v, d in self.dims.items() if d > 0)

    def is_thin(self) -> bool:
        return all(d <= 1 for d in self.dims.values())

    def is_thin_binary(self) -> bool:
        if not self.is_thin():
            return False
        return all(
            m.is_zero() or m == Matrix([[1]]) for m in self.maps.values() if m.shape == (1, 1)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Representation)
            and other.algebra is self.algebra
            and other.dims == self.dims
            and other.maps == self.maps
        )

    def __repr__(self) -> str:
        supp = ", ".join(f"{v.label}:{d}" for v, d in sorted(self.dims.items()) if d)
        return f"Rep({supp or '0'})"

    def to_json(self) -> dict:
        data = {
            "dims": {v.label: d for v, d in sorted(self.dims.items()) if d},
            "maps": {
                f"{a.label}->{b.label}": [[str(x) for x in row] for row in m.rows]
                for (a, b), m in sorted(self.maps.items(), key=lambda kv: kv[0])
                if m.nrows and m.ncols
            },
        }
        if self.is_thin():
            data["support"] = [v.label for v in sorted(self.support())]
        return data


def zero_rep(algebra: BoundAlgebra) -> Representation:
    return Representation(algebra, {}, check=False)


def simple(algebra: BoundAlgebra, x: Vertex) -> Representation:
    if x not in algebra.quiver.vertices:
        raise VertexError(f"{x} not in quiver")
    return Representation(algebra, {x: 1}, check=False)


def projective(algebra: BoundAlgebra, x: Vertex) -> Representation:
    """P(x): basis at y = nonzero paths x -> y; arrows act by appending."""
    if x not in algebra.quiver.vertices:
        raise VertexError(f"{x} not in quiver")
    dims = {y: len(algebra.basis_paths(x, y)) for y in algebra.quiver.vertices}
    maps = {}
    for arrow in algebra.quiver.arrows:
        src, dst = arrow
        row_of = {p.arrows: i for i, p in enumerate(algebra.basis_paths(x, dst))}
        rows = [[0] * dims[src] for _ in range(dims[dst])]
        for j, p in enumerate(algebra.basis_paths(x, src)):
            # p.a is zero in the algebra exactly when it is not a basis path
            i = row_of.get(p.arrows + (arrow,))
            if i is not None:
                rows[i][j] = 1
        maps[arrow] = Matrix(rows, ncols=dims[src])
    return Representation(algebra, dims, maps)


def dual(m: Representation) -> Representation:
    """The k-dual as a representation of the opposite algebra."""
    op = m.algebra.opposite_algebra()
    maps = {}
    for (src, dst), mat in m.maps.items():
        maps[(dst, src)] = mat.transpose()
    return Representation(op, dict(m.dims), maps)


def dual_morphism(f: Morphism) -> Morphism:
    """D f: DN -> DM for f: M -> N, with every block transposed."""
    return Morphism(
        dual(f.target), dual(f.source), {v: b.transpose() for v, b in f.blocks.items()}, check=False
    )


def injective(algebra: BoundAlgebra, x: Vertex) -> Representation:
    """I(x): dual of the opposite projective; its basis at y is the basis of
    P^op(x)_y, the A^op paths x -> y.  Built once and kept on the algebra."""
    if x not in algebra._injectives:
        algebra._injectives[x] = dual(projective(algebra.opposite_algebra(), x))
    return algebra._injectives[x]


def thin_from_support(algebra: BoundAlgebra, support: Iterable[Vertex]) -> Representation:
    """Thin representation with dimension 1 on the support and identity maps
    wherever both endpoints are supported.  Raises RelationViolation when the
    support contains a full forbidden subpath."""
    supp = set(support)
    unknown = supp - set(algebra.quiver.vertices)
    if unknown:
        raise VertexError(f"support uses unknown vertices {unknown}")
    dims = {v: 1 for v in supp}
    maps = {}
    for arrow in algebra.quiver.arrows:
        src, dst = arrow
        if src in supp and dst in supp:
            maps[arrow] = Matrix([[1]])
    return Representation(algebra, dims, maps)


def direct_sum(
    summands: Sequence[Representation],
) -> tuple[Representation, list[dict[Vertex, int]]]:
    """Direct sum plus, per summand, the coordinate offset at each vertex."""
    if not summands:
        raise UnsupportedInput("direct_sum of no summands needs an algebra; use zero_rep")
    algebra = summands[0].algebra
    if any(m.algebra is not algebra for m in summands):
        raise ShapeError("direct sum across different algebras")
    offsets: list[dict[Vertex, int]] = []
    dims: dict[Vertex, int] = {v: 0 for v in algebra.quiver.vertices}
    for m in summands:
        offsets.append(dict(dims))
        for v in algebra.quiver.vertices:
            dims[v] += m.dims[v]
    maps = {}
    for arrow in algebra.quiver.arrows:
        maps[arrow] = Matrix.block_diagonal([m.maps[arrow] for m in summands])
    return Representation(algebra, dims, maps, check=False), offsets


class Morphism:
    """A morphism of representations: one rational matrix per vertex."""

    def __init__(
        self,
        source: Representation,
        target: Representation,
        blocks: dict[Vertex, Matrix],
        check: bool = True,
    ):
        if source.algebra is not target.algebra:
            raise ShapeError("morphism across different algebras")
        self.source = source
        self.target = target
        self.blocks: dict[Vertex, Matrix] = {}
        for v in source.algebra.quiver.vertices:
            blk = blocks.get(v)
            if blk is None:
                blk = Matrix.zeros(target.dims[v], source.dims[v])
            if blk.shape != (target.dims[v], source.dims[v]):
                raise ShapeError(
                    f"block at {v} has shape {blk.shape}, "
                    f"expected {(target.dims[v], source.dims[v])}"
                )
            self.blocks[v] = blk
        if check:
            self.check_commutes()

    def check_commutes(self) -> None:
        for arrow in self.source.algebra.quiver.arrows:
            src, dst = arrow
            lhs = self.blocks[dst] @ self.source.maps[arrow]
            rhs = self.target.maps[arrow] @ self.blocks[src]
            if lhs != rhs:
                raise ShapeError(f"morphism does not commute at arrow {src}->{dst}")

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks.values())

    def then(self, other: "Morphism") -> "Morphism":
        """self followed by other (other ∘ self).  Only the vertices where all
        three modules are supported get a nonzero block; between thin modules
        it is the product of two scalars, with no Matrix product."""
        if other.source is not self.target:
            raise ShapeError("composition through a different module")
        m, n, p = self.source, self.target, other.target
        common = [v for v in m.algebra.quiver.vertices if m.dims[v] and n.dims[v] and p.dims[v]]
        if m.is_thin() and n.is_thin() and p.is_thin():
            blocks = {
                v: Matrix([[other.blocks[v].rows[0][0] * self.blocks[v].rows[0][0]]])
                for v in common
            }
        else:
            blocks = {v: other.blocks[v] @ self.blocks[v] for v in common}
        return Morphism(m, p, blocks, check=False)

    def is_isomorphism(self) -> bool:
        if self.source.dims != self.target.dims:
            return False
        return all(b.is_invertible() for b in self.blocks.values())


# -- Hom spaces ---------------------------------------------------------------


def thin_hom_components(m: Representation, n: Representation) -> list[dict[Vertex, Fraction]]:
    """Hom(M, N) for thin M and N, one scalar c_v per vertex v of
    supp M ∩ supp N, as one dict {v: c_v} per basis morphism.

    An arrow a: u -> w gives the equation c_w·M_a = N_a·c_u.  Nonzero in both
    modules it links u and w with c_w = c_u·N_a / M_a; nonzero in M only it
    forces c_w = 0, in N only c_u = 0.  Each linked component whose scalars,
    set to 1 at its first vertex in canonical order and propagated along the
    links, agree around every cycle and avoid the forced zeros spans one
    line of Hom(M, N); the other components contribute nothing (Crawley-Boevey
    1989, the thin case)."""
    common = [v for v in m.algebra.quiver.vertices if m.dims[v] and n.dims[v]]
    links: dict[Vertex, list[tuple[Vertex, Fraction]]] = {v: [] for v in common}
    forced_zero: set[Vertex] = set()
    for arrow in m.algebra.quiver.arrows:
        u, w = arrow
        if not (m.dims[u] and n.dims[w]):
            continue
        m_a = m.maps[arrow].rows[0][0] if m.dims[w] else 0
        n_a = n.maps[arrow].rows[0][0] if n.dims[u] else 0
        if m_a and n_a:
            links[u].append((w, n_a / m_a))
            links[w].append((u, m_a / n_a))
        elif m_a:
            forced_zero.add(w)
        elif n_a:
            forced_zero.add(u)
    scale: dict[Vertex, Fraction] = {}
    components = []
    for root in common:
        if root in scale:
            continue
        scale[root] = Fraction(1)
        queue = [root]
        consistent = True
        for v in queue:
            for w, ratio in links[v]:
                if w not in scale:
                    scale[w] = scale[v] * ratio
                    queue.append(w)
                elif scale[w] != scale[v] * ratio:
                    consistent = False
        if consistent and forced_zero.isdisjoint(queue):
            components.append({v: scale[v] for v in queue})
    return components


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(M, N), counted without building a basis.  Between thin modules
    it is the number of surviving components (thin_hom_components).
    Otherwise it is the number of unknowns, the entries of the blocks f_v
    (n.dims[v] x m.dims[v], row-major), minus the rank of the commutation
    equations N_a·f_u = f_w·M_a, one row per entry over every arrow a: u -> w,
    taken on integers (fraction_free_rank)."""
    if m.algebra is not n.algebra:
        raise ShapeError("Hom across different algebras")
    if m.is_thin() and n.is_thin():
        return len(thin_hom_components(m, n))
    offsets: dict[Vertex, int] = {}
    total = 0
    for v in m.algebra.quiver.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]

    def var(v: Vertex, i: int, j: int) -> int:
        return offsets[v] + i * m.dims[v] + j

    zero_row = [0] * total
    rows = []
    for arrow in m.algebra.quiver.arrows:
        src, dst = arrow
        phi = m.maps[arrow]
        psi = n.maps[arrow]
        for i in range(n.dims[dst]):
            for j in range(m.dims[src]):
                row = zero_row.copy()
                for k in range(m.dims[dst]):
                    row[var(dst, i, k)] += phi.rows[k][j]
                for k in range(n.dims[src]):
                    row[var(src, k, j)] -= psi.rows[i][k]
                rows.append(row)
    return total - fraction_free_rank(rows)


# -- kernels, cokernels, tops, socles ----------------------------------------


def restrict(m: Representation, basis: dict[Vertex, Matrix]) -> tuple[Representation, Morphism]:
    """The sub-representation whose space at v is spanned by the columns of
    basis[v] (independent and arrow-stable), with its inclusion into M."""
    maps = {}
    for arrow in m.algebra.quiver.arrows:
        src, dst = arrow
        sol = basis[dst].solve(m.maps[arrow] @ basis[src])
        if sol is None:
            raise ShapeError(f"subspace is not stable under the arrow {src}->{dst}")
        maps[arrow] = sol
    sub = Representation(m.algebra, {v: b.ncols for v, b in basis.items()}, maps, check=False)
    return sub, Morphism(sub, m, basis, check=False)


def kernel(f: Morphism) -> tuple[Representation, Morphism]:
    return restrict(
        f.source,
        {
            v: Matrix.from_columns(f.blocks[v].kernel_basis(), f.source.dims[v])
            for v in f.source.algebra.quiver.vertices
        },
    )


def cokernel(f: Morphism) -> tuple[Representation, Morphism]:
    """coker f = D ker(D f), with the projection N -> coker f dual to the
    inclusion of ker(D f)."""
    _, incl = kernel(dual_morphism(f))
    proj = dual_morphism(incl)
    return proj.target, proj


def radical_matrices(m: Representation) -> dict[Vertex, Matrix]:
    """Per vertex, a matrix whose columns span rad M = sum of incoming images."""
    algebra = m.algebra
    out = {}
    for v in algebra.quiver.vertices:
        incoming = [m.maps[a] for a in algebra.quiver.arrows_into(v)]
        if incoming:
            stacked = incoming[0]
            for extra in incoming[1:]:
                stacked = stacked.hstack(extra)
            out[v] = stacked.column_space_matrix()
        else:
            out[v] = Matrix.zeros(m.dims[v], 0)
    return out


def top_dims(m: Representation) -> dict[Vertex, int]:
    rad = radical_matrices(m)
    return {v: m.dims[v] - rad[v].ncols for v in m.algebra.quiver.vertices}


def top_generators(m: Representation) -> list[tuple[Vertex, tuple[Fraction, ...]]]:
    """Deterministic representatives of a basis of M/rad M."""
    rad = radical_matrices(m)
    gens = []
    for v in m.algebra.quiver.vertices:
        d = m.dims[v]
        if d == 0:
            continue
        aug = rad[v].hstack(Matrix.identity(d))
        _, pivots = aug.rref()
        for c in pivots:
            if c >= rad[v].ncols:
                e = [Fraction(0)] * d
                e[c - rad[v].ncols] = Fraction(1)
                gens.append((v, tuple(e)))
    return gens


def socle_matrices(m: Representation) -> dict[Vertex, Matrix]:
    """Per vertex, columns spanning soc M = joint kernel of outgoing arrows."""
    algebra = m.algebra
    out = {}
    for v in algebra.quiver.vertices:
        outgoing = [m.maps[a] for a in algebra.quiver.arrows_from(v)]
        if outgoing:
            stacked = outgoing[0]
            for extra in outgoing[1:]:
                stacked = stacked.vstack(extra)
            out[v] = Matrix.from_columns(stacked.kernel_basis(), m.dims[v])
        else:
            out[v] = Matrix.identity(m.dims[v])
    return out


def socle_dims(m: Representation) -> dict[Vertex, int]:
    return {v: mat.ncols for v, mat in socle_matrices(m).items()}


# -- projective presentations -------------------------------------------------


@dataclass
class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0 with the syzygy
    Ω = ker(P0 -> M); it keeps no reference back to M."""

    p0_vertices: tuple[Vertex, ...]
    p1_vertices: tuple[Vertex, ...]
    p1: Representation
    path_matrix: PathMatrix
    syzygy: Representation


def yoneda_map(
    n: Representation, gens: Sequence[tuple[Vertex, Sequence[Fraction]]]
) -> tuple[Morphism, list[dict[Vertex, int]]]:
    """The morphism ⊕_j P(x_j) -> N sending the generator of the j-th summand
    to n_j ∈ N_{x_j}, for gens = [(x_j, n_j)], and the summands' offsets.

    The column of a basis path q = q'·a is N(a) applied to the column of q',
    so the paths are taken in order of length."""
    algebra = n.algebra
    verts = algebra.quiver.vertices
    if gens:
        source, offsets = direct_sum([projective(algebra, x) for x, _ in gens])
    else:
        source, offsets = zero_rep(algebra), []
    columns: dict[Vertex, list[Sequence[Fraction]]] = {z: [] for z in verts}
    for x, gen in gens:
        image: dict[tuple[Arrow, ...], Sequence[Fraction]] = {}
        for q in sorted((q for z in verts for q in algebra.basis_paths(x, z)), key=len):
            if q.is_lazy:
                image[q.arrows] = gen
            else:
                image[q.arrows] = n.maps[q.arrows[-1]].apply(image[q.arrows[:-1]])
        for z in verts:
            columns[z].extend(image[q.arrows] for q in algebra.basis_paths(x, z))
    blocks = {z: Matrix.from_columns(columns[z], n.dims[z]) for z in verts}
    return Morphism(source, n, blocks), offsets


def projective_cover(m: Representation) -> tuple[Representation, Morphism, tuple[Vertex, ...], list[dict[Vertex, int]]]:
    """The projective cover P0 -> M sending generators to top representatives."""
    gens = top_generators(m)
    cover, offsets = yoneda_map(m, gens)
    for z in m.algebra.quiver.vertices:
        if cover.blocks[z].rank() != m.dims[z]:
            raise ShapeError("projective cover is not surjective")
    return cover.source, cover, tuple(v for v, _ in gens), offsets


def minimal_projective_presentation(m: Representation) -> Presentation:
    """The only construction of a module's cover, syzygy and P1; built on the
    first call and kept on the module."""
    if m._presentation is not None:
        return m._presentation
    algebra = m.algebra
    _, cover, verts0, offsets0 = projective_cover(m)
    syz, incl = kernel(cover)
    p1, cover1, verts1, offsets1 = projective_cover(syz)
    diff = cover1.then(incl)
    entries: list[list[PathCombo]] = [[() for _ in verts1] for _ in verts0]
    for j, zj in enumerate(verts1):
        gen_col = offsets1[j][zj]  # lazy path sorts first in P(zj)_zj
        column = diff.blocks[zj].column(gen_col)
        for i, yi in enumerate(verts0):
            combo = []
            for pth_i, pth in enumerate(algebra.basis_paths(yi, zj)):
                coeff = column[offsets0[i][zj] + pth_i]
                if coeff != 0:
                    combo.append((coeff, pth))
            entries[i][j] = tuple(combo)
    pm = PathMatrix(verts0, verts1, tuple(tuple(row) for row in entries))
    m._presentation = Presentation(verts0, verts1, p1, pm, syz)
    return m._presentation


def realize_path_matrix(algebra: BoundAlgebra, pm: PathMatrix) -> Morphism:
    """The morphism ⊕P(col_j) -> ⊕P(row_i) induced by right-composition with
    the path entries: the generator of P(col_j) goes to column j."""
    if pm.row_vertices:
        target, row_off = direct_sum([projective(algebra, v) for v in pm.row_vertices])
    else:
        target, row_off = zero_rep(algebra), []
    gens = []
    for j, cj in enumerate(pm.col_vertices):
        gen = [Fraction(0)] * target.dims[cj]
        for i, ri in enumerate(pm.row_vertices):
            paths = algebra.basis_paths(ri, cj)
            for (coeff, w) in pm.entries[i][j]:
                gen[row_off[i][cj] + paths.index(w)] += coeff
        gens.append((cj, gen))
    return yoneda_map(target, gens)[0]


# -- AR translate -------------------------------------------------------------


def tau(m: Representation) -> Representation:
    """AR translate τM = D Tr M = ker ν(d), kept on the module: ν = D Hom(-, A)
    is the Nakayama functor and d: P1 -> P0 the minimal presentation.
    Projective direct summands contribute nothing (their presentation has no
    P1 part)."""
    if m._tau is not None:
        return m._tau
    pres = minimal_projective_presentation(m)
    if not pres.p1_vertices:
        m._tau = zero_rep(m.algebra)
    else:
        m._tau = kernel(nakayama_map(m.algebra, pres.path_matrix))[0]
    return m._tau


def nakayama_map(algebra: BoundAlgebra, pm: PathMatrix) -> Morphism:
    """ν(d): ⊕I(col_j) -> ⊕I(row_i) for d: ⊕P(col_j) -> ⊕P(row_i) presented
    by pm, built on the kept injectives.  ν(d) = D(d^op): the term c·w of
    entry (i, j) sends the A^op path q of P^op(row_i)_v to c·reversed(w)·q in
    P^op(col_j)_v, so at v the block entry between q (in I(row_i)_v) and
    q' = reversed(w)·q (in I(col_j)_v) is c."""
    op = algebra.opposite_algebra()
    verts = algebra.quiver.vertices
    source, col_off = direct_sum([injective(algebra, z) for z in pm.col_vertices])
    target, row_off = direct_sum([injective(algebra, y) for y in pm.row_vertices])
    blocks = {v: [[0] * source.dims[v] for _ in range(target.dims[v])] for v in verts}
    for j, z in enumerate(pm.col_vertices):
        index = {v: {q.arrows: k for k, q in enumerate(op.basis_paths(z, v))} for v in verts}
        for i, y in enumerate(pm.row_vertices):
            for c, w in pm.entries[i][j]:
                back = w.reversed().arrows
                for v in verts:
                    for k, q in enumerate(op.basis_paths(y, v)):
                        k2 = index[v].get(back + q.arrows)
                        if k2 is not None:
                            blocks[v][row_off[i][v] + k][col_off[j][v] + k2] += c
    return Morphism(
        source, target, {v: Matrix(b, ncols=source.dims[v]) for v, b in blocks.items()}, check=False
    )


# -- Ext and stable Hom -------------------------------------------------------


def ext1_dim(m: Representation, n: Representation, hom_mn: int) -> int:
    """dim Ext^1(M, N), counted from the long exact sequence that Hom(-, N)
    makes of 0 -> Ω -> P0 -> M -> 0 (the minimal presentation):

        0 -> Hom(M, N) -> Hom(P0, N) -> Hom(Ω, N) -> Ext^1(M, N) -> 0,

    which ends there because Ext^1(P0, N) = 0.  By Yoneda,
    dim Hom(P(x), N) = dim N_x.  The caller passes hom_mn = dim Hom(M, N),
    which it already holds.  Exact for every M."""
    if m.is_zero() or n.is_zero():
        return 0
    pres = minimal_projective_presentation(m)
    if pres.syzygy.is_zero():
        return 0
    hom_p0 = sum(n.dims[x] for x in pres.p0_vertices)
    return hom_dim(pres.syzygy, n) - hom_p0 + hom_mn


def stable_hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(M, N) minus the morphisms that factor through an injective,
    counted from the injective copresentation 0 -> M -> I0 -> Ω⁻¹M -> 0.
    Every map from M into an injective extends along the envelope M -> I0,
    so those morphisms are the image of Hom(I0, N) -> Hom(M, N), whose kernel
    is Hom(Ω⁻¹M, N).  The envelope is the dual of the projective cover
    P0 -> DM with kernel Ω, so I0 = D P0, Ω⁻¹M = D Ω and

        dim Hom(M, N) - dim Hom(DN, P0) + dim Hom(DN, Ω)."""
    full = hom_dim(m, n)
    if not full:
        return 0
    if m._envelope is None:
        p0, cover, _, _ = projective_cover(dual(m))
        m._envelope = (p0, kernel(cover)[0])
    p0, omega = m._envelope
    dn = dual(n)
    return full - hom_dim(dn, p0) + hom_dim(dn, omega)


# -- isomorphism testing ------------------------------------------------------


def find_isomorphism_reps(m: Representation, n: Representation) -> Optional[Morphism]:
    """An explicit isomorphism M -> N of thin modules, or None; exact, no search.

    A morphism of thin modules is an isomorphism exactly when its scalar is
    nonzero at every supported vertex.  The sum of the thin Hom basis
    (thin_hom_components) is one exactly when its components cover the
    support, and then it is the witness.  Equal dimension vectors that are
    not thin raise UnsupportedInput."""
    if m.dims != n.dims:
        return None
    if not m.is_thin():
        raise UnsupportedInput("isomorphism test needs thin modules")
    scale = {v: c for comp in thin_hom_components(m, n) for v, c in comp.items()}
    if len(scale) != len(m.support()):
        return None
    return Morphism(m, n, {v: Matrix([[c]]) for v, c in scale.items()})


def is_isomorphic_reps(m: Representation, n: Representation) -> bool:
    return find_isomorphism_reps(m, n) is not None


def projective_dimension_le1(m: Representation) -> bool:
    """True iff the first syzygy Ω is projective.  Its cover P1 -> Ω is onto,
    so Ω ≅ P1 exactly when the two dimension vectors agree."""
    pres = minimal_projective_presentation(m)
    return pres.syzygy.dims == pres.p1.dims


# -- thin submodule lattices --------------------------------------------------


@dataclass(frozen=True)
class SubmoduleSet:
    """All submodules of a thin module, as arrow-closed support subsets."""

    subsets: tuple[frozenset[Vertex], ...]

    @property
    def count(self) -> int:
        return len(self.subsets)

    def is_lattice(self) -> bool:
        pool = set(self.subsets)
        return all(
            (a | b) in pool and (a & b) in pool for a in self.subsets for b in self.subsets
        )


def submodules_thin(m: Representation) -> SubmoduleSet:
    """Enumerate arrow-closed subsets of the support of a thin 0/1 module.

    The support is walked successors first, so each vertex v is added to
    every subset built so far that already holds v's successors; each
    submodule is built exactly once.  Every cycle of the quiver contains a
    relation, so the nonzero arrows of a module form no cycle."""
    if not m.is_thin_binary():
        raise UnsupportedInput("submodule enumeration needs a thin module with 0/1 maps")
    succ: dict[Vertex, set[Vertex]] = {v: set() for v in m.support()}
    for (a, b), mat in m.maps.items():
        if a in succ and b in succ and not mat.is_zero():
            succ[a].add(b)
    subsets = [frozenset()]
    for v in TopologicalSorter(succ).static_order():
        subsets += [u | {v} for u in subsets if succ[v] <= u]
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    return SubmoduleSet(tuple(subsets))


def classify_submodule_counts(
    lattice: SubmoduleSet, primary: Vertex, secondary: Vertex
) -> tuple[int, int, int]:
    """Counts of submodules (supported at primary, supported at secondary but
    not primary, supported at neither); the zero module lands in 'neither'."""
    at_primary = sum(1 for s in lattice.subsets if primary in s)
    at_secondary = sum(1 for s in lattice.subsets if secondary in s and primary not in s)
    neither = lattice.count - at_primary - at_secondary
    return at_primary, at_secondary, neither
