"""quivertilt: exact verification of the tilting and cluster-mutation
structure of the Jacobian algebras of the cyclic quiver family Q[a1,a2]."""

from .algebra import BoundAlgebra, Path, PathMatrix, build_algebra, build_quiver
from .cluster import (
    MutationWord,
    MuReplay,
    Seed,
    apply_word,
    build_mu,
    f_polynomial,
    g_vector,
    initial_seed,
    mutate_seed,
    replay_mu,
    verify_T_maps_to_shift,
    verify_acyclic_type,
    verify_order_two,
    verify_palindrome_lemma,
)
from .family import FamilyInstance, family_instance, radical_layers
from .fpoly import IntPoly, LaurentPoly
from .linalg import Matrix
from .quiver import (
    ExchangeMatrix,
    Quiver,
    TypeLabel,
    Vertex,
    classify_acyclic_type,
    mutate_matrix,
    opposite,
    to_exchange_matrix,
)
from .report import VerificationReport, run_checks
from .reps import (
    Morphism,
    Representation,
    SubmoduleSet,
    dual,
    ext1_dim,
    hom_dim,
    injective,
    is_isomorphic_reps,
    minimal_projective_presentation,
    projective,
    projective_dimension_le1,
    realize_path_matrix,
    simple,
    stable_hom_dim,
    submodules_thin,
    tau,
    thin_from_support,
)
from .tilting import TiltingReport, end_quiver, verify_tilting

__version__ = "0.1.0"
