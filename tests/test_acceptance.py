"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact.
"""

import math
import random

import pytest

from zetakit.affine import (
    AffinePermutation,
    decompose,
    dominant_frame,
    is_grassmannian,
    translation,
)
from zetakit.errors import NotBijective
from zetakit.paths import (
    ballot,
    count_paths,
    enumerate_paths,
    lattice,
    parse_path,
    render_path,
    signed_ballot,
    signed_lattice,
)
from zetakit.stats import area, area_prime, dinv_c, dinv_c_prime
from zetakit.torus import VertPath, enumerate_vert
from zetakit.verify import anderson_windows, run_suite
from zetakit.zeta import sweep_labels, zeta_labelled, zeta_path

from oracles import (
    B_EXAMPLES,
    C_AREA_VECTOR,
    C_LABELS,
    C_PATH,
    C_PRODUCT,
    C_READING,
    C_SIGMA,
    C_SWEEP_LABELS,
    C_T_MU,
    C_TORUS,
    C_W_DOM,
    C_W_DOM_INV,
    C_W_REG,
    C_ZETA,
    D_EXAMPLES,
    FRAME_WINDOWS,
    recompose,
    sp,
)

PASS = "[PASS] criterion %d: %s"


def report(k, text):
    print(PASS % (k, text))


def test_criterion_1_golden_examples():
    p = parse_path(C_PATH, lattice(6, 6))
    vp = VertPath(p, sp(*C_LABELS))
    from zetakit.zeta import area_vector

    assert area_vector(p, "C") == C_AREA_VECTOR
    image, word = zeta_labelled(vp, "C")
    assert render_path(image) == C_ZETA and word.window == C_READING
    data = anderson_windows(vp, "C")
    assert data["w_dom"].window == C_W_DOM
    assert data["w_dom"].inverse().window == C_W_DOM_INV
    assert data["w_reg"].window == C_W_REG
    assert data["product"].window == C_PRODUCT
    assert data["vector"] == tuple(c % 13 for c in C_TORUS)
    assert translation(C_AREA_VECTOR).window == C_T_MU
    assert decompose(data["w_dom"].inverse()).sigma.window == C_SIGMA

    for text, n, labels, lam, mu, image_text, word_win in D_EXAMPLES:
        q = parse_path(text, signed_lattice(n))
        dvp = VertPath(q, sp(*labels))
        di, dw = zeta_labelled(dvp, "D")
        assert render_path(di) == image_text and dw.window == word_win

    for text, n, labels, lam, mu, image_text, word_win, reg, product, vec in B_EXAMPLES:
        q = parse_path(text, lattice(n, n))
        bvp = VertPath(q, sp(*labels))
        bi, bw = zeta_labelled(bvp, "B")
        if image_text is not None:
            assert render_path(bi) == image_text
        assert bw.window == word_win
        bdata = anderson_windows(bvp, "B")
        assert bdata["w_reg"].window == reg
        assert bdata["product"].window == product
        assert bdata["vector"] == tuple(c % (2 * n + 1) for c in vec)

    assert sweep_labels(p) == C_SWEEP_LABELS
    assert area(parse_path(C_ZETA, ballot(12)), "C") == 9
    assert area_prime(parse_path(C_ZETA, ballot(12)), sp(*C_READING), "C") == 6
    assert dinv_c(p) == 9
    assert dinv_c_prime(vp) == 6
    report(1, "all worked examples reproduced bit-exactly")


def test_criterion_2_bijectivity_unlabelled():
    for lt in ("C", "B", "D"):
        rep = run_suite(lt, 7, ["bijectivity"])
        assert rep.passed, rep.to_json()
    rep = run_suite("C", 7, ["sweep_equiv", "inverse_roundtrip"])
    assert rep.passed, rep.to_json()
    report(2, "unlabelled maps bijective and sweep/inverse agree through rank 7")


def test_criterion_3_cardinalities():
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_paths(lattice(n, n))) == math.comb(2 * n, n)
        assert sum(1 for _ in enumerate_paths(ballot(2 * n))) == math.comb(2 * n, n)
        assert sum(1 for _ in enumerate_paths(lattice(n - 1, n))) == math.comb(2 * n - 1, n - 1)
        assert sum(1 for _ in enumerate_paths(ballot(2 * n - 1))) == math.comb(2 * n - 1, n - 1)
        if n >= 2:
            assert count_paths(signed_lattice(n)) == count_paths(signed_ballot(n))
            assert sum(1 for _ in enumerate_paths(signed_lattice(n))) == count_paths(
                signed_lattice(n)
            )
            assert sum(1 for _ in enumerate_paths(signed_ballot(n))) == count_paths(
                signed_ballot(n)
            )
    report(3, "path families have the expected cardinalities through rank 8")


def test_criterion_4_labelled_bijections():
    for lt in ("C", "B", "D"):
        rep = run_suite(lt, 4, ["labelled_bijectivity"])
        assert rep.passed, rep.to_json()
    report(4, "labelled maps are bijections onto diagonal labellings through rank 4")


def test_criterion_5_rise_valley():
    for lt in ("C", "B", "D"):
        rep = run_suite(lt, 4, ["rise_valley"])
        assert rep.passed, rep.to_json()
    report(5, "rise and valley label multisets correspond through rank 4")


def test_criterion_6_statistics():
    for n in range(1, 8):
        for p in enumerate_paths(lattice(n, n)):
            assert dinv_c(p) == area(zeta_path(p, "C"), "C")
    for n in range(1, 5):
        for vp in enumerate_vert("C", n):
            image, word = zeta_labelled(vp, "C")
            assert dinv_c_prime(vp) == area_prime(image, word, "C")
    report(6, "diagonal inversions match the area statistics of the images")


def test_criterion_7_uniform_oracle():
    for lt in ("C", "B", "D"):
        rep = run_suite(lt, 4, ["uniform"])
        assert rep.passed, rep.to_json()
    report(7, "combinatorial parking functions equal the group-side oracle through rank 4")


def test_criterion_8_anderson():
    for lt in ("C", "B", "D"):
        rep = run_suite(lt, 4, ["anderson"])
        assert rep.passed, rep.to_json()
    report(8, "window arithmetic reproduces every torus element through rank 4")


def test_criterion_9_algebraic_layer():
    for key, window in sorted(FRAME_WINDOWS.items()):
        lt, n = key
        assert dominant_frame(lt, n).window == window
    # the window printed elsewhere as the rank 4 frame has a period-divisible
    # entry and cannot be an affine permutation at all
    with pytest.raises(NotBijective):
        AffinePermutation((-8, -16, -24, -36))

    assert is_grassmannian(AffinePermutation(C_W_DOM_INV), "C")
    assert is_grassmannian(AffinePermutation((-2, 3, 4, 6, 8, 14)), "D")

    from test_affine import random_window

    for lt in ("B", "C", "D"):
        rng = random.Random(hash(lt) % 10000 + 11)
        for _ in range(1000):
            n = rng.randint(2, 6)
            w = random_window(rng, n, lt)
            assert recompose(decompose(w)) == w
            b = random_window(rng, n, lt)
            x = tuple(rng.randint(-8, 8) for _ in range(n))
            assert w.compose(b).act(x) == w.act(b.act(x))
    report(9, "group layer: split, recompose, frame windows and actions verified")
