"""Path statistics: order-ideal area, its label-refined variant, and the
diagonal inversion counts."""

from __future__ import annotations

from .errors import InvalidLabelling
from .paths import N, Path
from .rootposet import (
    _ballot_rank,
    _upsets,
    ballot_to_antichain,
    diag_validate,
    positive_roots,
    root_form,
)
from .signedperm import SignedPermutation, count_positive
from .torus import VertPath
from .zeta import area_vector


def area(p: Path, lattice_type: str) -> int:
    """Size of the order ideal of roots not above the path's antichain.  With
    H(t) = #N - #E after t steps of a path of length L, it is
    (H(0) + ... + H(L-1) - #E + floor(H(L)/2)) / 2."""
    _ballot_rank(p, lattice_type)
    height = total = 0
    for s in p.steps:
        total += height
        height += 1 if s == N else -1
    east = (len(p.steps) - height) // 2
    return (total - east + height // 2) // 2


def area_prime(p: Path, w: SignedPermutation, lattice_type: str) -> int:
    """Roots of the order ideal (no root of the path's antichain below them)
    that the labelling keeps positive."""
    if not diag_validate(p, w, lattice_type):
        raise InvalidLabelling("labels %s do not fit the valleys of %s" % (w, p))
    return count_positive(w.window, area_prime_forms(p, lattice_type))


def area_prime_forms(p: Path, lattice_type: str) -> list:
    """The positivity forms (rootposet.root_form) of the roots in the order
    ideal of the ballot path: area_prime counts the ones a labelling passes."""
    n = _ballot_rank(p, lattice_type)
    anti = ballot_to_antichain(p, lattice_type)
    ups = _upsets(lattice_type, n)
    return [root_form(x) for x in positive_roots(lattice_type, n) if not any(x in ups[y] for y in anti)]


def dinv_c(p: Path) -> int:
    """Diagonal inversions of a square lattice path; pairs may count twice.
    Each form of dinv_c_prime_forms is one inversion, counted here without
    building the forms."""
    rho = area_vector(p, "C")
    return rho.count(0) + _pair_count(tuple(reversed(rho)))


def dinv_c_prime(vp: VertPath) -> int:
    """Label-refined diagonal inversions of a vertically labelled path."""
    return count_positive(vp.labels.window, dinv_c_prime_forms(vp.path))


def dinv_c_prime_forms(p: Path) -> list:
    """The forms (i, a, j, b) whose count of a*u[i] + b*u[j] > 0 over labels
    u is dinv_c_prime: a zero row with a negative label, and the pair forms
    of the rows."""
    rho = tuple(reversed(area_vector(p, "C")))  # the area vector, bottom row first
    return [(i, -1, 0, 0) for i in range(len(rho)) if rho[i] == 0] + _pair_forms(rho)


def _pair_forms(rho) -> list:
    """For each pair of rows i < j of an area vector read bottom row first,
    the label comparisons their area values call for."""
    n = len(rho)
    forms = []
    for i in range(n):
        for j in range(i + 1, n):
            if rho[i] == rho[j]:
                forms.append((i, -1, j, 1))  # u_i < u_j
            if rho[i] == rho[j] + 1:
                forms.append((i, 1, j, -1))  # u_i > u_j
            if rho[i] == -rho[j]:
                forms.append((i, -1, j, -1))  # u_i < -u_j
            if rho[i] == -rho[j] + 1:
                forms.append((i, 1, j, 1))  # u_i > -u_j
    return forms


def _pair_count(rho) -> int:
    """len(_pair_forms(rho)) in one pass over the rows, without the forms:
    row j pairs with each earlier row whose value is rho[j], rho[j] + 1,
    -rho[j] or 1 - rho[j], once for each of these it equals."""
    # the earlier rows' values by index; the length keeps the negative
    # indices -m..-1 clear of 0..m+1, for m the largest |value|
    seen = [0] * (2 * max(map(abs, rho), default=0) + 3)
    count = 0
    for r in rho:
        count += seen[r] + seen[r + 1] + seen[-r] + seen[1 - r]
        seen[r] += 1
    return count


def dinv_b_experimental(p: Path) -> int:
    """Candidate diagonal inversion count over the type B area vector: the
    pair forms of its rows and the entries 0 and 1.

    Exploratory: the tests, not verify, hold it equal to area after zeta.
    """
    mu = area_vector(p, "B")
    return _pair_count(tuple(reversed(mu))) + sum(1 for v in mu if v in (0, 1))
