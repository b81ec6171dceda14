"""Reference implementations kept for the tests only.

Each one is an earlier, more direct construction of something the library
now builds another way; the differential tests compare the two.
"""

import itertools
import random
from fractions import Fraction
from typing import Optional

from quivertilt import reps
from quivertilt.errors import ShapeError, UnsupportedInput
from quivertilt.linalg import Matrix
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


def find_isomorphism_reps(m: Representation, n: Representation) -> Optional[Morphism]:
    """An explicit isomorphism M -> N, or None (sound in both directions).

    Tries seeded random combinations of a Hom basis first, then decides
    exactly on the grid {0..D}^k (a polynomial of total degree D that is not
    identically zero cannot vanish on that grid)."""
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return Morphism(m, n, {}, check=False)
    basis = reps.hom_basis(m, n)
    if not basis:
        return None

    def combine(coeffs) -> Morphism:
        blocks = {v: b.scale(coeffs[0]) for v, b in basis[0].blocks.items()}
        for c, f in zip(coeffs[1:], basis[1:]):
            blocks = {v: b + f.blocks[v].scale(c) for v, b in blocks.items()}
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
