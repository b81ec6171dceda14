"""Tilting / tau-tilting verification and the Gabriel quiver of End(T).

The verdicts are assembled purely from the representation engine: Ext and
Hom-tau tables entry by entry, projective dimension certificates, rad/rad^2
arrow counts, and explicit vertex maps certifying End(T) ~= Q^op ~= Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .family import FamilyInstance
from .linalg import Matrix
from .quiver import Quiver, Vertex, opposite, r, s, t
from . import reps
from .reps import Morphism


@dataclass
class TiltingReport:
    a1: int
    a2: int
    summand_count: int
    vertex_count: int
    pd_le1: dict[Vertex, bool]
    ext_table: list[list[int]]
    hom_tau_table: list[list[int]]
    hom_table: list[list[int]]
    expected_hom_table: list[list[int]]
    end_quiver: Quiver
    end_iso_to_Qop: Optional[dict[Vertex, Vertex]]
    end_iso_to_Q: Optional[dict[Vertex, Vertex]]
    end_relations_hold: bool
    identifications_hold: bool
    zero_path_property_holds: bool

    @property
    def rigid(self) -> bool:
        return all(x == 0 for row in self.ext_table for x in row)

    @property
    def tau_rigid(self) -> bool:
        return all(x == 0 for row in self.hom_tau_table for x in row)

    @property
    def tilting(self) -> bool:
        return (
            self.rigid
            and all(self.pd_le1.values())
            and self.summand_count == self.vertex_count
        )

    @property
    def tau_tilting(self) -> bool:
        return self.tau_rigid and self.summand_count == self.vertex_count

    @property
    def cluster_tilting_inducing(self) -> bool:
        # module input never shares a summand with the shifted projectives
        return self.tau_tilting

    @property
    def hom_table_matches_oracle(self) -> bool:
        return self.hom_table == self.expected_hom_table

    @property
    def end_iso_holds(self) -> bool:
        return self.end_iso_to_Qop is not None and self.end_iso_to_Q is not None

    @property
    def all_verdicts(self) -> dict[str, bool]:
        return {
            "rigid": self.rigid,
            "tau_rigid": self.tau_rigid,
            "tilting": self.tilting,
            "tau_tilting": self.tau_tilting,
            "cluster_tilting_inducing": self.cluster_tilting_inducing,
            "hom_table_matches_oracle": self.hom_table_matches_oracle,
            "end_iso": self.end_iso_holds,
            "end_relations": self.end_relations_hold,
            "identifications": self.identifications_hold,
            "zero_path_property": self.zero_path_property_holds,
        }

    @property
    def overall(self) -> bool:
        return all(self.all_verdicts.values())


def _zero_path_property(instance: FamilyInstance, basis_cache) -> bool:
    """Nonzero morphisms from thin summands kill downstream vertices once they
    vanish somewhere along a nonzero path of the support quiver."""
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


def end_quiver(instance: FamilyInstance, basis_cache) -> tuple[Quiver, bool]:
    """Gabriel quiver of End(T) from the Hom bases between summands, keyed
    (x, y): arrows = dim rad/rad^2 between summands, and the verdict that the
    potential relations hold in End(T).

    The relation check is two-sided: length-a2 compositions along the cycle of
    End(T) vanish, while length-(a2-1) cycle compositions and the two branch
    junction compositions are nonzero.
    """
    verts = instance.vertices
    for x in verts:
        if len(basis_cache[(x, x)]) != 1:
            raise AssertionError(f"End(M({x})) is not one-dimensional")

    def rad(x: Vertex, y: Vertex) -> list[Morphism]:
        if x == y:
            return []
        return basis_cache[(x, y)]

    arrows = []
    for x in verts:
        for y in verts:
            base = rad(x, y)
            if not base:
                continue
            composites = []
            for z in verts:
                if z == x or z == y:
                    continue
                for f in rad(x, z):
                    for g in rad(z, y):
                        composites.append(f.then(g).flatten())
            composites = [c for c in composites if any(t != 0 for t in c)]
            rad2_rank = Matrix(composites).rank() if composites else 0
            count = len(base) - rad2_rank
            arrows.extend([(x, y)] * count)

    endq = Quiver(verts, tuple(arrows))

    # relations from the potential: walk the End(T) cycle M(r_{i+1}) -> M(r_i)
    a2 = instance.a2
    relations_ok = True

    def cycle_hom(i: int) -> Morphism:
        src = r((i + 1) % (a2 + 1))
        dst = r(i % (a2 + 1))
        basis = basis_cache[(src, dst)]
        if len(basis) != 1:
            raise AssertionError("cycle Hom space is not one-dimensional")
        return basis[0]

    for start in range(a2 + 1):
        comp = cycle_hom(start)
        for step in range(1, a2 + 1):
            comp = cycle_hom(start + step).then(comp)
            length = step + 1
            if length < a2 and comp.is_zero():
                relations_ok = False
            if length == a2:
                if not comp.is_zero():
                    relations_ok = False
                break

    if instance.a1 > 1:
        # junction arrows M(r_{a2}) -> M(s_{a1-1}) and M(t_1) -> M(r_0) compose
        # with the cycle arrow M(r_0) -> M(r_{a2}) without vanishing
        junction1 = basis_cache[(r(a2), s(instance.a1 - 1))]
        junction2 = basis_cache[(t(1), r(0))]
        cycle_in = basis_cache[(r(0), r(a2))]
        if len(junction1) != 1 or len(junction2) != 1 or len(cycle_in) != 1:
            relations_ok = False
        else:
            if cycle_in[0].then(junction1[0]).is_zero():
                relations_ok = False
            if junction2[0].then(cycle_in[0]).is_zero():
                relations_ok = False

    return endq, relations_ok


def verify_tilting(instance: FamilyInstance) -> TiltingReport:
    verts = instance.vertices
    taus = {x: reps.tau(instance.module_M(x)) for x in verts}

    basis_cache = {
        (x, y): reps.hom_basis(instance.module_M(x), instance.module_M(y))
        for x in verts
        for y in verts
    }

    hom_table = [[len(basis_cache[(x, y)]) for y in verts] for x in verts]
    expected = [[instance.expected_hom_dim(x, y) for y in verts] for x in verts]
    ext_table = [
        [
            reps.ext1_dim(instance.module_M(x), instance.module_M(y), len(basis_cache[(x, y)]))
            for y in verts
        ]
        for x in verts
    ]
    hom_tau_table = [
        [reps.hom_dim(instance.module_M(x), taus[y]) for y in verts] for x in verts
    ]
    pd = {x: reps.projective_dimension_le1(instance.module_M(x)) for x in verts}

    endq, relations_ok = end_quiver(instance, basis_cache)
    # the canonical map x -> M(x) must itself reverse all arrows, and the
    # closed-form map Q^op -> Q must carry the arrows of End(T) onto those of Q
    canonical = sorted(endq.arrows) == sorted(opposite(instance.quiver).arrows)
    iso_op = {v: v for v in verts} if canonical else None
    phi = instance.opposite_isomorphism()
    onto_q = sorted((phi[a], phi[b]) for a, b in endq.arrows) == sorted(instance.quiver.arrows)
    iso_q = phi if onto_q else None

    identifications = _identifications_hold(instance)
    zero_path = _zero_path_property(instance, basis_cache)

    # distinct supports certify pairwise non-isomorphy of the thin summands
    supports = {frozenset(instance.module_M(x).support()) for x in verts}
    count = len(supports)

    return TiltingReport(
        a1=instance.a1,
        a2=instance.a2,
        summand_count=count,
        vertex_count=len(verts),
        pd_le1=pd,
        ext_table=ext_table,
        hom_tau_table=hom_tau_table,
        hom_table=hom_table,
        expected_hom_table=expected,
        end_quiver=endq,
        end_iso_to_Qop=iso_op,
        end_iso_to_Q=iso_q,
        end_relations_hold=relations_ok,
        identifications_hold=identifications,
        zero_path_property_holds=zero_path,
    )


def _identifications_hold(instance: FamilyInstance) -> bool:
    for (_, x, kind, y) in instance.identification_table():
        m = instance.module_M(x)
        other = (
            reps.projective(instance.algebra, y)
            if kind == "P"
            else reps.injective(instance.algebra, y)
        )
        if not reps.is_isomorphic_reps(m, other):
            return False
    return True
