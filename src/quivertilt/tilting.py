"""Tilting / tau-tilting verification and the Gabriel quiver of End(T).

The verdicts are assembled purely from the representation engine: Ext and
Hom-tau tables entry by entry, projective dimension certificates, the quiver
and relations of End(T), and explicit vertex maps certifying
End(T) ~= Q^op ~= Q.

End(T) is read off the supports of the thin Hom bases between summands
(reps.thin_hom_components), with no products of morphisms and no rank.  This
is exact: every Hom(M(x), M(y)) has dimension 0 or 1, as the hom-table check
certifies, and a thin basis morphism has nonzero scalars on all of its
support, so a composite is nonzero exactly when all its supports meet.  An
arrow x -> y (dim rad/rad^2 = 1) is then a nonzero Hom(x, y) such that no
z outside {x, y} has meeting supports on x -> z and z -> y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import UnsupportedInput
from .family import FamilyInstance
from .quiver import Quiver, Vertex, opposite, r, s, t
from . import reps


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
        # (T, 0) is a support tau-tilting pair exactly when T is tau-tilting
        # (Adachi, Iyama and Reiten 2014), and it induces the cluster-tilting
        # object T
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


def _zero_path_property(instance: FamilyInstance, supports) -> bool:
    """Nonzero morphisms from thin summands kill downstream vertices once they
    vanish somewhere along a nonzero path of the support quiver: no nonzero
    arrow u -> v of M(x) has u outside and v inside the support C of a
    morphism M(x) -> M(y)."""
    for x in instance.vertices:
        m = instance.module_M(x)
        supp = m.support()
        live_arrows = [
            a for a in instance.quiver.arrows
            if a[0] in supp and a[1] in supp and not m.maps[a].is_zero()
        ]
        for y in instance.vertices:
            for c in supports[(x, y)]:
                if any(u not in c and v in c for u, v in live_arrows):
                    return False
    return True


def end_quiver(instance: FamilyInstance, supports) -> tuple[Quiver, bool]:
    """Gabriel quiver of End(T) from the supports of the Hom bases between
    summands, keyed (x, y), and the verdict that the potential relations hold
    in End(T).  Raises unless every Hom(M(x), M(y)) has dimension at most 1
    and every End(M(x)) dimension 1, the cases in which supports are exact.

    An arrow x -> y is a nonzero Hom(x, y), x != y, through which no composite
    x -> z -> y is nonzero.  The relation check is two-sided: length-a2
    compositions along the cycle of End(T) vanish, while shorter cycle
    compositions and the two branch junction compositions are nonzero.
    """
    verts = instance.vertices
    for (x, y), comps in supports.items():
        if len(comps) > 1 or (x == y and not comps):
            raise AssertionError(f"Hom(M({x}), M({y})) has dimension {len(comps)}")

    def hom(x: Vertex, y: Vertex) -> frozenset[Vertex]:
        """Support of the morphism M(x) -> M(y); empty when Hom is zero."""
        return supports[(x, y)][0] if supports[(x, y)] else frozenset()

    arrows = tuple(
        (x, y)
        for x in verts
        for y in verts
        if x != y
        and hom(x, y)
        and not any(hom(x, z) & hom(z, y) for z in verts if z not in (x, y))
    )

    # relations from the potential: walk the End(T) cycle M(r_{i+1}) -> M(r_i)
    a2 = instance.a2
    relations_ok = True
    for start in range(a2 + 1):
        meet = frozenset(verts)
        for length in range(1, a2 + 1):
            meet &= hom(r((start + length) % (a2 + 1)), r((start + length - 1) % (a2 + 1)))
            relations_ok &= bool(meet) == (length < a2)

    if instance.a1 > 1:
        # junction arrows M(r_{a2}) -> M(s_{a1-1}) and M(t_1) -> M(r_0) compose
        # with the cycle arrow M(r_0) -> M(r_{a2}) without vanishing
        cycle_in = hom(r(0), r(a2))
        relations_ok &= bool(cycle_in & hom(r(a2), s(instance.a1 - 1)))
        relations_ok &= bool(hom(t(1), r(0)) & cycle_in)

    return Quiver(verts, arrows), relations_ok


def verify_tilting(instance: FamilyInstance) -> TiltingReport:
    verts = instance.vertices
    for x in verts:
        if not instance.module_M(x).is_thin():
            raise UnsupportedInput(f"M({x}) is not thin")
    taus = {x: reps.tau(instance.module_M(x)) for x in verts}

    supports = {
        (x, y): [
            frozenset(c) for c in reps.thin_hom_components(instance.module_M(x), instance.module_M(y))
        ]
        for x in verts
        for y in verts
    }

    hom_table = [[len(supports[(x, y)]) for y in verts] for x in verts]
    expected = [[instance.expected_hom_dim(x, y) for y in verts] for x in verts]
    ext_table = [
        [
            reps.ext1_dim(instance.module_M(x), instance.module_M(y), len(supports[(x, y)]))
            for y in verts
        ]
        for x in verts
    ]
    hom_tau_table = [
        [reps.hom_dim(instance.module_M(x), taus[y]) for y in verts] for x in verts
    ]
    pd = {x: reps.projective_dimension_le1(instance.module_M(x)) for x in verts}

    endq, relations_ok = end_quiver(instance, supports)
    # the canonical map x -> M(x) must itself reverse all arrows, and the
    # closed-form map Q^op -> Q must carry the arrows of End(T) onto those of Q
    canonical = sorted(endq.arrows) == sorted(opposite(instance.quiver).arrows)
    iso_op = {v: v for v in verts} if canonical else None
    phi = instance.opposite_isomorphism()
    onto_q = sorted((phi[a], phi[b]) for a, b in endq.arrows) == sorted(instance.quiver.arrows)
    iso_q = phi if onto_q else None

    identifications = _identifications_hold(instance)
    zero_path = _zero_path_property(instance, supports)

    # distinct supports certify pairwise non-isomorphy of the thin summands
    count = len({instance.module_M(x).support() for x in verts})

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
