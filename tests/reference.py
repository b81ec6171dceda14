"""Reference implementations kept for the tests only.

Each one is an earlier, more direct construction of something the library
now builds another way; the differential tests compare the two.
"""

import itertools
import random
from fractions import Fraction
from typing import Optional

from quivertilt import cluster, reps
from quivertilt.errors import RelationViolation, ShapeError, UnsupportedInput
from quivertilt.family import FamilyInstance
from quivertilt.fpoly import IntPoly, LaurentPoly
from quivertilt.linalg import Matrix
from quivertilt.quiver import Quiver, Vertex, r, s, t
from quivertilt.reps import Morphism, Representation


def det(m: Matrix) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    if m.nrows != m.ncols:
        raise ShapeError("determinant of non-square matrix")
    rows = [list(row) for row in m.rows]
    n = m.nrows
    out = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            out = -out
        out *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return out


def commutation_equations(
    m: Representation, n: Representation
) -> tuple[list[list[Fraction]], dict[Vertex, int], int]:
    """The equations N_a·f_u = f_w·M_a over every arrow a: u -> w, one row per
    entry, in the unknowns f_v (n.dims[v] x m.dims[v], row-major, vertex by
    vertex), with each vertex's offset and the number of unknowns."""
    offsets: dict[Vertex, int] = {}
    total = 0
    for v in m.algebra.quiver.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]

    def var(v: Vertex, i: int, j: int) -> int:
        return offsets[v] + i * m.dims[v] + j

    zero_row = [Fraction(0)] * total
    rows: list[list[Fraction]] = []
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
    return rows, offsets, total


def hom_dim_fractions(m: Representation, n: Representation) -> int:
    """dim Hom(M, N) as the number of unknowns minus the rank of the
    commutation equations, by Fraction elimination (Matrix.rank)."""
    rows, _, total = commutation_equations(m, n)
    return total - Matrix(rows, ncols=total).rank()


def hom_basis(m: Representation, n: Representation) -> list[Morphism]:
    """Deterministic basis of Hom(M, N): one global exact linear solve of the
    arrow commutation equations."""
    if m.algebra is not n.algebra:
        raise ShapeError("Hom across different algebras")
    vertices = m.algebra.quiver.vertices
    rows, offsets, total = commutation_equations(m, n)
    if total == 0:
        return []
    basis = []
    for vec in Matrix(rows, ncols=total).kernel_basis():
        blocks = {}
        for v in vertices:
            rows_v = []
            for i in range(n.dims[v]):
                start = offsets[v] + i * m.dims[v]
                rows_v.append(vec[start : start + m.dims[v]])
            blocks[v] = Matrix(rows_v, ncols=m.dims[v])
        basis.append(Morphism(m, n, blocks, check=False))
    return basis


def flatten(f: Morphism) -> tuple[Fraction, ...]:
    """The entries of f's blocks, vertex by vertex in canonical order, each
    block row by row."""
    return tuple(x for v in f.source.algebra.quiver.vertices for row in f.blocks[v].rows for x in row)


def stable_hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(M, N) minus the morphisms that factor through an injective,
    i.e. through the injective envelope M -> I(M), built as the dual of the
    projective cover P -> DM."""
    full = reps.hom_dim(m, n)
    if not full:
        return 0
    emb = reps.dual_morphism(reps.projective_cover(reps.dual(m))[1])
    factored = [flatten(emb.then(h)) for h in hom_basis(emb.target, n)]
    factored = [v for v in factored if any(x != 0 for x in v)]
    if not factored:
        return full
    return full - Matrix(factored).rank()


def then(f: Morphism, g: Morphism) -> Morphism:
    """f followed by g as the dense product of their blocks at every vertex."""
    if g.source is not f.target:
        raise ShapeError("composition through a different module")
    blocks = {v: g.blocks[v] @ f.blocks[v] for v in f.source.algebra.quiver.vertices}
    return Morphism(f.source, g.target, blocks, check=False)


def end_quiver(instance, basis_cache) -> tuple[Quiver, bool]:
    """Gabriel quiver of End(T) from the Hom bases between summands, keyed
    (x, y), and the verdict that the potential relations hold in End(T).

    Arrows x -> y number dim Hom(x, y) minus the rank of the composites
    x -> z -> y through a third summand (dim rad/rad^2).  Relations: the
    length-a2 compositions along the cycle of End(T) vanish, the shorter ones
    and the two branch junction compositions do not."""
    verts = instance.vertices
    for x in verts:
        if len(basis_cache[(x, x)]) != 1:
            raise AssertionError(f"End(M({x})) is not one-dimensional")

    def rad(x: Vertex, y: Vertex) -> list[Morphism]:
        return [] if x == y else basis_cache[(x, y)]

    arrows = []
    for x in verts:
        for y in verts:
            base = rad(x, y)
            if not base:
                continue
            composites = [
                flatten(then(f, g))
                for z in verts
                if z not in (x, y)
                for f in rad(x, z)
                for g in rad(z, y)
            ]
            composites = [c for c in composites if any(e != 0 for e in c)]
            rad2_rank = Matrix(composites).rank() if composites else 0
            arrows.extend([(x, y)] * (len(base) - rad2_rank))

    a2 = instance.a2
    relations_ok = True

    def cycle_hom(i: int) -> Morphism:
        basis = basis_cache[(r((i + 1) % (a2 + 1)), r(i % (a2 + 1)))]
        if len(basis) != 1:
            raise AssertionError("cycle Hom space is not one-dimensional")
        return basis[0]

    for start in range(a2 + 1):
        comp = cycle_hom(start)
        for length in range(2, a2 + 1):
            comp = then(cycle_hom(start + length - 1), comp)
            if comp.is_zero() == (length < a2):
                relations_ok = False

    if instance.a1 > 1:
        junction1 = basis_cache[(r(a2), s(instance.a1 - 1))]
        junction2 = basis_cache[(t(1), r(0))]
        cycle_in = basis_cache[(r(0), r(a2))]
        if len(junction1) != 1 or len(junction2) != 1 or len(cycle_in) != 1:
            relations_ok = False
        elif (
            then(cycle_in[0], junction1[0]).is_zero()
            or then(junction2[0], cycle_in[0]).is_zero()
        ):
            relations_ok = False

    return Quiver(verts, tuple(arrows)), relations_ok


def zero_path_property(instance, basis_cache) -> bool:
    """No nonzero morphism M(x) -> M(y) vanishes at u and not at v for a
    nonzero arrow u -> v of M(x)."""
    for x in instance.vertices:
        m = instance.module_M(x)
        supp = m.support()
        live_arrows = [
            a for a in instance.quiver.arrows
            if a[0] in supp and a[1] in supp and not m.maps[a].is_zero()
        ]
        for y in instance.vertices:
            for f in basis_cache[(x, y)]:
                for (u, v) in live_arrows:
                    if f.blocks[u].is_zero() and not f.blocks[v].is_zero():
                        return False
    return True


def path_action(m: Representation, path) -> Matrix:
    """The composed map M_source -> M_target along the path."""
    mat = Matrix.identity(m.dims[path.source])
    for arrow in path.arrows:
        mat = m.maps[arrow] @ mat
    return mat


def projective_cover(m: Representation):
    """P0 -> M with the column of each basis path q filled by M(q) applied
    to the top representative, one path at a time."""
    algebra = m.algebra
    gens = reps.top_generators(m)
    verts = tuple(v for v, _ in gens)
    if not verts:
        p0 = reps.zero_rep(algebra)
        return p0, Morphism(p0, m, {}, check=False), (), []
    p0, offsets = reps.direct_sum([reps.projective(algebra, v) for v in verts])
    blocks = {
        z: [[Fraction(0)] * p0.dims[z] for _ in range(m.dims[z])] for z in algebra.quiver.vertices
    }
    for idx, (x, vec) in enumerate(gens):
        for z in algebra.quiver.vertices:
            for pth_i, pth in enumerate(algebra.basis_paths(x, z)):
                img = path_action(m, pth).apply(vec)
                for row in range(m.dims[z]):
                    blocks[z][row][offsets[idx][z] + pth_i] = img[row]
    cover = Morphism(p0, m, {z: Matrix(blocks[z], ncols=p0.dims[z]) for z in blocks})
    return p0, cover, verts, offsets


def realize_path_matrix(algebra, pm) -> Morphism:
    """⊕P(col_j) -> ⊕P(row_i): the generator path q of P(col_j) goes to the
    sum of the compositions w·q over the entries w, located by index."""

    def sum_of(vertices):
        if not vertices:
            return reps.zero_rep(algebra), []
        return reps.direct_sum([reps.projective(algebra, v) for v in vertices])

    target, row_off = sum_of(pm.row_vertices)
    source, col_off = sum_of(pm.col_vertices)
    blocks = {
        z: [[Fraction(0)] * source.dims[z] for _ in range(target.dims[z])]
        for z in algebra.quiver.vertices
    }
    for j, cj in enumerate(pm.col_vertices):
        for i, ri in enumerate(pm.row_vertices):
            for (coeff, w) in pm.entries[i][j]:
                for z in algebra.quiver.vertices:
                    for q_idx, q in enumerate(algebra.basis_paths(cj, z)):
                        composed = algebra.compose(w, q)
                        if composed is None:
                            continue
                        p_idx = algebra.basis_paths(ri, z).index(composed)
                        blocks[z][row_off[i][z] + p_idx][col_off[j][z] + q_idx] += coeff
    return Morphism(
        source, target, {z: Matrix(blocks[z], ncols=source.dims[z]) for z in blocks}
    )


def cokernel(f: Morphism):
    """N -> coker f from a left-kernel basis of each block and an explicit
    solve for the induced arrow maps."""
    algebra = f.target.algebra
    q_mats = {}
    for v in algebra.quiver.vertices:
        q_mats[v] = Matrix(f.blocks[v].transpose().kernel_basis(), ncols=f.target.dims[v])
    maps = {}
    for arrow in algebra.quiver.arrows:
        src, dst = arrow
        rhs = (q_mats[dst] @ f.target.maps[arrow]).transpose()
        sol = q_mats[src].transpose().solve(rhs)
        assert sol is not None, "image is not arrow-stable"
        maps[arrow] = sol.transpose()
    dims = {v: q.nrows for v, q in q_mats.items()}
    cok = Representation(algebra, dims, maps, check=False)
    return cok, Morphism(f.target, cok, q_mats, check=False)


def transpose_morphism(f: Morphism) -> Morphism:
    """D f with every block transposed by hand."""
    return Morphism(
        reps.dual(f.target),
        reps.dual(f.source),
        {v: b.transpose() for v, b in f.blocks.items()},
        check=False,
    )


def tau(m: Representation) -> Representation:
    """D Tr from the reference realization and cokernel, never memoized."""
    pres = reps.minimal_projective_presentation(m)
    if not pres.p1_vertices:
        return reps.zero_rep(m.algebra)
    d_op = realize_path_matrix(m.algebra.opposite_algebra(), pres.path_matrix.transpose())
    tr, _ = cokernel(d_op)
    return reps.dual(tr)


def tau_through_opposite(m: Representation) -> Representation:
    """τM = ker ν(d) with ν(d) = D d^op: the transposed presentation realized
    over A^op from checked projectives and a checked Yoneda map, then both
    projective sums dualized; never memoized."""
    pres = reps.minimal_projective_presentation(m)
    if not pres.p1_vertices:
        return reps.zero_rep(m.algebra)
    d_op = reps.realize_path_matrix(m.algebra.opposite_algebra(), pres.path_matrix.transpose())
    return reps.kernel(reps.dual_morphism(d_op))[0]


def tau_inverse(m: Representation) -> Representation:
    """Tr D = D τ D; injective direct summands are annihilated."""
    return reps.dual(reps.tau(reps.dual(m)))


def find_isomorphism_reps(m: Representation, n: Representation) -> Optional[Morphism]:
    """An explicit isomorphism M -> N, or None (sound in both directions).

    Tries seeded random combinations of a Hom basis first, then decides
    exactly on the grid {0..D}^k (a polynomial of total degree D that is not
    identically zero cannot vanish on that grid)."""
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return Morphism(m, n, {}, check=False)
    basis = hom_basis(m, n)
    if not basis:
        return None

    def combine(coeffs) -> Morphism:
        blocks = {}
        for v, b in basis[0].blocks.items():
            blocks[v] = Matrix(
                [
                    [sum(c * f.blocks[v].rows[i][j] for c, f in zip(coeffs, basis)) for j in range(b.ncols)]
                    for i in range(b.nrows)
                ],
                ncols=b.ncols,
            )
        return Morphism(m, n, blocks, check=False)

    rng = random.Random(17)
    for _ in range(40):
        coeffs = [rng.randint(-9, 9) for _ in basis]
        cand = combine(coeffs)
        if cand.is_isomorphism():
            return cand
    degree = m.total_dim
    if (degree + 1) ** len(basis) > 2_000_000:
        raise UnsupportedInput("isomorphism search space too large")
    for coeffs in itertools.product(range(degree + 1), repeat=len(basis)):
        cand = combine(coeffs)
        if cand.is_isomorphism():
            return cand
    return None


def find_isomorphism(q1: Quiver, q2: Quiver) -> Optional[dict[Vertex, Vertex]]:
    """Lexicographically least arrow-multiplicity-preserving vertex bijection.

    Exhaustive backtracking with degree pruning; role tags are ignored.  Fine
    for the <= ~20 vertex quivers this package handles.
    """
    if q1.n != q2.n or len(q1.arrows) != len(q2.arrows):
        return None

    def degree_sig(q: Quiver, v: Vertex) -> tuple[int, int]:
        return (len(q.arrows_into(v)), len(q.arrows_from(v)))

    sig1 = {v: degree_sig(q1, v) for v in q1.vertices}
    sig2 = {v: degree_sig(q2, v) for v in q2.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None

    count1 = {}
    for a in q1.arrows:
        count1[a] = count1.get(a, 0) + 1
    count2 = {}
    for a in q2.arrows:
        count2[a] = count2.get(a, 0) + 1

    order = list(q1.vertices)
    mapping: dict[Vertex, Vertex] = {}
    used: set[Vertex] = set()

    def consistent(v: Vertex, w: Vertex) -> bool:
        if sig1[v] != sig2[w]:
            return False
        for u, img in mapping.items():
            if count1.get((v, u), 0) != count2.get((w, img), 0):
                return False
            if count1.get((u, v), 0) != count2.get((img, w), 0):
                return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        for w in q2.vertices:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(pos + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    if backtrack(0):
        return dict(mapping)
    return None


def mutate_c_g(c, g, bs, k: int, eps: int):
    """The C- and G-matrices after mutation at slot k as dense products
    C J_C and G J_G, on the pattern matrix bs with C-column sign eps."""
    n = len(bs)

    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][m] * b[m][j] for m in range(n)) for j in range(n)) for i in range(n)
        )

    jg = [[int(i == j) for j in range(n)] for i in range(n)]
    jc = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        jg[j][k] += max(0, -eps * bs[j][k])
        jc[k][j] += max(0, eps * bs[k][j])
    jg[k][k] = jc[k][k] = -1
    return matmul(c, jc), matmul(g, jg)


def mutate_f(f, c, bs, k: int):
    """The F-polynomials after mutation at slot k, with the exchange binomial
    built one variable power and one F-power factor at a time, on the pattern
    matrix bs and the C-matrix c before the mutation."""
    n = len(bs)
    pos = IntPoly.one(n)
    neg = IntPoly.one(n)
    for j in range(n):
        cjk = c[j][k]
        if cjk > 0:
            pos = pos * IntPoly(n, {tuple(cjk if i == j else 0 for i in range(n)): 1})
        elif cjk < 0:
            neg = neg * IntPoly(n, {tuple(-cjk if i == j else 0 for i in range(n)): 1})
        bjk = bs[j][k]
        if bjk > 0:
            pos = pos * (f[j] ** bjk)
        elif bjk < 0:
            neg = neg * (f[j] ** (-bjk))
    f_k = (pos + neg).exact_div(f[k])
    return tuple(f_k if j == k else f[j] for j in range(n))


def submodules_thin(m: Representation) -> reps.SubmoduleSet:
    """Enumerate arrow-closed subsets of the support of a thin 0/1 module."""
    if not m.is_thin_binary():
        raise UnsupportedInput("submodule enumeration needs a thin module with 0/1 maps")
    supp = sorted(m.support())
    index = {v: i for i, v in enumerate(supp)}
    edges = []
    for (a, b), mat in m.maps.items():
        if a in index and b in index and not mat.is_zero():
            edges.append((index[a], index[b]))
    subsets = []
    for mask in range(1 << len(supp)):
        if all(not (mask >> i) & 1 or (mask >> j) & 1 for (i, j) in edges):
            subsets.append(frozenset(supp[i] for i in range(len(supp)) if (mask >> i) & 1))
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    return reps.SubmoduleSet(tuple(subsets))


def cc_exponent(m: Representation) -> tuple[int, ...]:
    """x-exponent of the leading (coefficient-free) monomial of the module's
    cluster variable: [I1] - [I0] from the minimal injective copresentation,
    which is the negated g-vector of the dual module, presented over the
    opposite algebra (the library reads it through the self-duality sigma)."""
    return tuple(-x for x in cluster.g_vector(reps.dual(m)))


def cc_character(m: Representation, quiver: Quiver) -> LaurentPoly:
    """The module's cluster variable x^{g°(M)} F_M(yhat) in (x, y), expanded
    from the module's own exponent and F-polynomial rather than from a seed;
    yhat_j = y_j x^{b0 column j}."""
    g = cc_exponent(m)
    b0 = cluster.pattern_matrix(quiver)
    terms: dict[tuple[int, ...], int] = {}
    for mono, coeff in cluster.f_polynomial(m).terms.items():
        x_part = tuple(g[i] + sum(b0[i][j] * e for j, e in enumerate(mono)) for i in range(len(g)))
        terms[x_part + mono] = terms.get(x_part + mono, 0) + coeff
    return LaurentPoly(2 * len(g), terms)


def random_thin_module(rng: random.Random, inst: FamilyInstance) -> reps.Representation:
    """A random thin 0/1 module: random support (rejecting relation-violating
    ones), then a random subset of internal arrows zeroed out."""
    verts = inst.vertices
    for _ in range(50):
        support = [v for v in verts if rng.random() < 0.55]
        if not support:
            continue
        try:
            m = reps.thin_from_support(inst.algebra, support)
        except RelationViolation:
            continue
        if rng.random() < 0.3:
            maps = dict(m.maps)
            live = [a for a, mat in maps.items() if not mat.is_zero()]
            for a in live:
                if rng.random() < 0.25:
                    maps[a] = Matrix.zeros(1, 1)
            m = reps.Representation(inst.algebra, dict(m.dims), maps)
        return m
    return reps.simple(inst.algebra, verts[0])
