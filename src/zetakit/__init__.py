"""Zeta maps between labelled lattice paths and labelled ballot paths in
types B, C and D, with an affine-permutation oracle and an exhaustive
verification harness."""

from .affine import (
    AffinePermutation,
    decompose,
    dominant_frame,
    dominant_frame_parts,
    from_window,
    grassmannian_companion,
    in_group,
    is_grassmannian,
    translation,
)
from .paths import (
    Path,
    PathKind,
    ballot,
    east_counts,
    enumerate_paths,
    lattice,
    parse_path,
    render_path,
    rises,
    signed_ballot,
    signed_lattice,
    valleys,
)
from .rootposet import (
    ParkingFunction,
    Root,
    antichain_to_ballot,
    ballot_to_antichain,
    diag_validate,
    parse_root,
    poset_leq,
    positive_roots,
    to_parking_function,
)
from .signedperm import SignedPermutation, weyl_group
from .stats import area, area_prime, dinv_b_experimental, dinv_c, dinv_c_prime
from .torus import (
    TorusElement,
    VertPath,
    canonicalize,
    is_vertical_labelling,
    lambda_of_path,
    path_of_lambda,
    to_torus,
    vert,
)
from .verify import Report, anderson_check, run_suite, uniform_oracle
from .zeta import (
    area_vector,
    bounce_path,
    inverse_zeta,
    inverse_zeta_c,
    reading_word,
    sweep_c,
    zeta_d_star,
    zeta_labelled,
    zeta_path,
)

__version__ = "0.1.0"
