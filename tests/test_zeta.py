import hashlib
import itertools

import pytest

from zetakit import zeta as zmod
from zetakit.errors import InternalError, NotRepresentative, RankMismatch, ShapeMismatch
from zetakit.paths import (
    ballot,
    enumerate_paths,
    is_dyck,
    lattice,
    parse_path,
    render_path,
    signed_ballot,
    signed_lattice,
    strip_signs,
)
from zetakit.signedperm import SignedPermutation
from zetakit.torus import VertPath
from zetakit.typespec import type_spec
from zetakit.zeta import (
    area_vector,
    bounce_path,
    inverse_by_table,
    inverse_zeta,
    inverse_zeta_c,
    is_valid_area_vector,
    path_of_area_vector,
    reading_word,
    sweep_c,
    sweep_labels,
    zeta_d_star,
    zeta_labelled,
    zeta_path,
)

from oracles import (
    A_AREA_VECTOR,
    A_LABELS,
    A_PATH,
    A_READING,
    A_ZETA,
    B_EXAMPLES,
    C_AREA_VECTOR,
    C_LABELS,
    C_PATH,
    C_READING,
    C_SWEEP_LABELS,
    C_ZETA,
    D_EXAMPLES,
    label_twist,
    sp,
    sweep_c_by_bag,
)


def test_area_vector_golden():
    assert area_vector(parse_path(C_PATH, lattice(6, 6)), "C") == C_AREA_VECTOR
    for text, n, _, _, mu, *_ in D_EXAMPLES:
        assert area_vector(parse_path(text, signed_lattice(n)), "D") == mu
    for text, n, _, _, mu, *_ in B_EXAMPLES:
        assert area_vector(parse_path(text, lattice(n, n)), "B") == mu
    assert area_vector(parse_path(A_PATH, lattice(6, 6)), "A") == A_AREA_VECTOR
    with pytest.raises(ShapeMismatch):
        area_vector(parse_path("ENNEEN", lattice(3, 3)), "A")


@pytest.mark.parametrize("lt,kind", [
    ("A", lattice(5, 5)), ("C", lattice(5, 5)), ("B", lattice(5, 5)),
    ("D", signed_lattice(5)),
    # each type's smallest rank
    ("A", lattice(1, 1)), ("B", lattice(2, 2)), ("C", lattice(1, 1)), ("D", signed_lattice(2)),
])
def test_area_vector_roundtrip(lt, kind):
    for p in enumerate_paths(kind):
        if lt == "A" and not is_dyck(p):
            continue
        mu = area_vector(p, lt)
        assert is_valid_area_vector(mu, lt)
        assert path_of_area_vector(mu, lt) == p


@pytest.mark.parametrize("lt,n", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 1), ("C", 2), ("C", 3), ("C", 4), ("D", 2), ("D", 3), ("D", 4),
])
def test_valid_area_vectors_are_the_area_vectors(lt, n):
    spec = type_spec(lt)
    vectors = {area_vector(p, lt) for p in spec.sources(n)}
    for mu in itertools.product(range(-n - 2, n + 3), repeat=n):
        assert is_valid_area_vector(mu, lt) == (mu in vectors), mu
        if mu in vectors:
            assert area_vector(path_of_area_vector(mu, lt), lt) == mu
        else:
            with pytest.raises(NotRepresentative):
                path_of_area_vector(mu, lt)


# sha256 of one line per source path of B, C and D up to rank 7: the path,
# its zeta image, its area vector and its reading word
ZETA_SHA256 = {
    "B": ("6533935399b1b3febc8ece0d2163c33818f8e2765077c6905e216613d23c4386", 4704),
    "C": ("3ec984e765a6befebe9f94b5b98531818c25cd2fe9810701f479e284ee636f04", 4706),
    "D": ("7e7a01678cfb7e93bc493ec74203f16a6935085896a9daad2f91eb87a33df624", 3430),
}


@pytest.mark.parametrize("lt", sorted(ZETA_SHA256))
def test_zeta_golden_digest_through_rank_7(lt):
    spec = type_spec(lt)
    lines = []
    for n in range(spec.min_rank, 8):
        for p in spec.sources(n):
            word = reading_word(VertPath(p, SignedPermutation.identity(n)), lt).window
            lines.append("%s %s %s %s" % (
                render_path(p), render_path(zeta_path(p, lt)), list(area_vector(p, lt)), list(word)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (digest, len(lines)) == ZETA_SHA256[lt]


def test_zeta_path_golden():
    assert render_path(zeta_path(parse_path(C_PATH, lattice(6, 6)), "C")) == C_ZETA
    for text, n, _, _, _, image, _ in D_EXAMPLES:
        assert render_path(zeta_path(parse_path(text, signed_lattice(n)), "D")) == image
    text, n, *_ = B_EXAMPLES[0]
    image = B_EXAMPLES[0][5]
    assert render_path(zeta_path(parse_path(text, lattice(n, n)), "B")) == image
    assert render_path(zeta_path(parse_path(A_PATH, lattice(6, 6)), "A")) == A_ZETA


def test_reading_word_golden():
    p = parse_path(C_PATH, lattice(6, 6))
    assert reading_word(VertPath(p, sp(*C_LABELS)), "C").window == C_READING
    for text, n, labels, _, _, _, word in D_EXAMPLES:
        q = parse_path(text, signed_lattice(n))
        assert reading_word(VertPath(q, sp(*labels)), "D").window == word
    for text, n, labels, _, _, _, word, *_ in B_EXAMPLES:
        q = parse_path(text, lattice(n, n))
        assert reading_word(VertPath(q, sp(*labels)), "B").window == word
    a = parse_path(A_PATH, lattice(6, 6))
    assert reading_word(VertPath(a, sp(*A_LABELS)), "A").window == A_READING


def test_reading_word_is_twisted_product():
    """The reading word agrees with the product of the label twist, the
    frame twist and the Grassmannian companion."""
    from zetakit.affine import dominant_frame_parts, grassmannian_companion
    from zetakit.torus import enumerate_vert

    for lt, n in [("C", 3), ("B", 3), ("D", 3), ("D", 4)]:
        _, tau = dominant_frame_parts(lt, n)
        for vp in enumerate_vert(lt, n):
            mu = area_vector(vp.path, lt)
            sigma = grassmannian_companion(mu, lt)
            u = label_twist(vp, lt)
            assert reading_word(vp, lt) == u.compose(tau).compose(sigma)


def test_zeta_labelled_golden():
    p = parse_path(C_PATH, lattice(6, 6))
    image, word = zeta_labelled(VertPath(p, sp(*C_LABELS)), "C")
    assert render_path(image) == C_ZETA and word.window == C_READING
    q = parse_path(D_EXAMPLES[0][0], signed_lattice(5))
    image, word = zeta_labelled(VertPath(q, sp(-3, 4, -2, 1, 5)), "D")
    assert render_path(image) == "NNENNENNE" and word.window == (-3, 5, -1, 4, 2)
    r = parse_path(B_EXAMPLES[0][0], lattice(6, 6))
    image, word = zeta_labelled(VertPath(r, sp(1, -5, -4, 2, 3, 6)), "B")
    assert render_path(image) == "NNENNENENENE" and word.window == (2, 4, 1, 3, 5, 6)


def test_zeta_d_star_well_defined():
    for n in range(2, 7):
        for p in enumerate_paths(lattice(n - 1, n)):
            if p.steps[0] == "E":
                from zetakit.paths import lift_signed

                plus = strip_signs(zeta_path(lift_signed(p, 1), "D"))
                minus = strip_signs(zeta_path(lift_signed(p, -1), "D"))
                assert plus == minus
    assert render_path(zeta_d_star(parse_path("EEENNNNNE", lattice(4, 5)))) == "NENNENENE"


def test_zeta_d_star_bijective_small():
    for n in range(2, 7):
        images = {render_path(zeta_d_star(p)) for p in enumerate_paths(lattice(n - 1, n))}
        targets = {render_path(q) for q in enumerate_paths(ballot(2 * n - 1))}
        assert images == targets


def test_zeta_d_star_north_prefix():
    """Paths that start with a North step land on ballot paths whose n-th
    North step is not followed by an East step."""
    for n in range(2, 7):
        for p in enumerate_paths(lattice(n - 1, n)):
            image = zeta_d_star(p)
            seen = 0
            followed = False
            for k, s in enumerate(image.steps):
                if s == "N":
                    seen += 1
                    if seen == n:
                        followed = k + 1 < len(image.steps) and image.steps[k + 1] == "E"
                        break
            assert (p.steps[0] == "N") == (not followed)


def test_bounce_golden():
    p = parse_path(C_ZETA, ballot(12))
    moves, alphas = bounce_path(p)
    assert alphas == (1, 3, 2, 0, 0, 0, 0)
    assert sum(alphas) == 6
    all_n = parse_path("N" * 8, ballot(8))
    assert bounce_path(all_n)[1] == (4, 0, 0, 0, 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_bounce_counts_sum(n):
    for q in enumerate_paths(ballot(2 * n)):
        assert sum(bounce_path(q)[1]) == n


def test_inverse_zeta_c_golden():
    assert render_path(inverse_zeta_c(parse_path(C_ZETA, ballot(12)))) == C_PATH


@pytest.mark.parametrize("n", range(1, 8))
def test_inverse_zeta_c_roundtrip(n):
    for p in enumerate_paths(lattice(n, n)):
        assert inverse_zeta_c(zeta_path(p, "C")) == p
    for q in enumerate_paths(ballot(2 * n)):
        assert zeta_path(inverse_zeta_c(q), "C") == q


def test_inverse_zeta_c_refuses_a_block_short_of_north_steps(monkeypatch):
    # level counts (1, 0, 1) cut NNEE into the blocks EE, N and N: level
    # 0's block needs one North step and has none
    monkeypatch.setattr(zmod, "_level_counts", lambda hits, n: (1, 0, 1))
    with pytest.raises(InternalError, match="fewer than 1 North steps"):
        inverse_zeta_c(parse_path("NNEE", ballot(4)))


def test_sweep_golden():
    p = parse_path(C_PATH, lattice(6, 6))
    assert sweep_labels(p) == C_SWEEP_LABELS
    assert render_path(sweep_c(p)) == C_ZETA


@pytest.mark.parametrize("n", range(1, 6))
def test_sweep_equals_zeta(n):
    for p in enumerate_paths(lattice(n, n)):
        assert sweep_c(p) == zeta_path(p, "C")


@pytest.mark.parametrize("n", range(1, 9))
def test_sweep_matches_the_bag_oracle(n):
    # held to the bag sort itself, not to zeta_path: sweep_equiv checks
    # that the two maps agree, so it cannot vouch for either alone
    for p in enumerate_paths(lattice(n, n)):
        got, want = sweep_c(p), sweep_c_by_bag(p)
        assert (got.steps, got.kind) == (want.steps, want.kind)
        assert got == want


@pytest.mark.parametrize("sweep", [sweep_c, sweep_c_by_bag])
def test_sweep_refuses_colliding_labels(monkeypatch, sweep):
    # two steps with one key would make the order up; that is a fault in
    # the labels, raised, not a path
    p = parse_path(C_PATH, lattice(6, 6))
    monkeypatch.setattr(zmod, "sweep_labels", lambda q: [-1] * len(q.steps))
    with pytest.raises(InternalError, match="sweep labels collide"):
        sweep(p)


@pytest.mark.parametrize("n", range(1, 7))
def test_zeta_a_bijective(n):
    dycks = [p for p in enumerate_paths(lattice(n, n)) if is_dyck(p)]
    images = {render_path(zeta_path(p, "A")) for p in dycks}
    assert len(images) == len(dycks)
    assert all(is_dyck(parse_path(t, lattice(n, n))) for t in images)


def test_inverse_by_table():
    q = parse_path("NENNENENE-", signed_ballot(5))
    assert render_path(inverse_by_table(q, "D")) == "E-EENNNNNE"
    b = parse_path(B_EXAMPLES[0][5], ballot(12))
    assert render_path(inverse_by_table(b, "B")) == B_EXAMPLES[0][0]


INVERSE_RANKS = (
    [("A", n) for n in (1, 2, 3, 4)]
    + [("B", n) for n in (2, 3, 4, 5)]
    + [("C", n) for n in (1, 2, 3, 4, 5, 6)]
    + [("D", n) for n in (2, 3, 4, 5)]
)


@pytest.mark.parametrize("lt,n", INVERSE_RANKS)
def test_inverse_zeta_undoes_zeta(lt, n):
    for p in type_spec(lt).sources(n):
        assert inverse_zeta(zeta_path(p, lt), lt) == p


@pytest.mark.parametrize("mu,lt", [((0,), "B"), ((), "C")])
def test_area_vector_below_min_rank_is_typed(mu, lt):
    with pytest.raises(RankMismatch):
        is_valid_area_vector(mu, lt)
    with pytest.raises(RankMismatch):
        path_of_area_vector(mu, lt)
