"""Area vectors, diagonal reading words, the zeta maps of types A, B, C
and D, the sign-stripped odd bijection, the type-C sweep map and the
type-C bounce inverse.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, sub

from . import paths
from .affine import dominant_frame_parts
from .errors import InternalError, NotRepresentative, ShapeMismatch, ZetakitError
from .paths import (
    Path,
    ballot,
    east_counts,
    lattice,
    lift_signed,
    make_path,
    path_of_east_counts,
    sign_of,
    strip_signs,
)
from .signedperm import SignedPermutation
from .torus import VertPath, lambda_of_path, path_of_lambda
from .typespec import type_spec

N, E = paths.N, paths.E


def area_vector(p: Path, lattice_type: str) -> tuple[int, ...]:
    """Signed distances from the alternating staircase: in types B, C and D,
    lambda_of_path read through the type's frame (_frame)."""
    if lattice_type == "A":
        n = type_spec("A").source_rank(p)
        pi = east_counts(p)
        return tuple(i - pi[i - 1] - 1 for i in range(1, n + 1))
    lam = lambda_of_path(p, lattice_type)
    return tuple([s * (lam[i] - c) for i, s, c in _frame(lattice_type, len(lam))])


@lru_cache(maxsize=64)
def _frame(lattice_type: str, n: int) -> tuple[tuple[int, int, int], ...]:
    """The frame of dominant_frame_parts(type, n) as plain tuples: for each
    slot k of the area vector, the slot i of lambda and the sign s with
    mu[k] = s * (lam[i] - shift[i])."""
    shift, twist = dominant_frame_parts(lattice_type, n)
    # twist.act puts lam[i] - shift[i] at slot |twist(i)| with its sign, so
    # slot k reads the slot and the sign of twist^-1(k+1)
    return tuple((abs(u) - 1, 1 if u > 0 else -1, shift[abs(u) - 1]) for u in twist.inverse().window)


def path_of_area_vector(mu, lattice_type: str) -> Path:
    """Inverse of area_vector."""
    mu = tuple(mu)
    n = type_spec(lattice_type).check_rank(len(mu))
    if lattice_type == "A":
        if not is_valid_area_vector(mu, "A"):
            raise NotRepresentative("%r is not an area vector in type A" % (mu,))
        return path_of_east_counts([i - mu[i - 1] - 1 for i in range(1, n + 1)], lattice(n, n))
    lam = [0] * n
    for x, (i, s, c) in zip(mu, _frame(lattice_type, n)):
        lam[i] = s * x + c
    return path_of_lambda(lam, lattice_type)


def is_valid_area_vector(mu, lattice_type: str) -> bool:
    mu = tuple(mu)
    type_spec(lattice_type).check_rank(len(mu))
    if lattice_type == "A":
        return mu[0] == 0 and all(b <= a + 1 for a, b in zip(mu, mu[1:])) and all(v >= 0 for v in mu)
    try:
        path_of_area_vector(mu, lattice_type)
        return True
    except ZetakitError:
        return False


def zeta_path(p: Path, lattice_type: str) -> Path:
    """The zeta image of an unlabelled path: one level word, written in one
    pass over the area vector mu.  In type A, entry v writes N at level v
    and E at level v + 1, and the levels run up from 0.  In types B, C and
    D, level j is two runs: the nonpositive entries read right to left, -j
    writing N and -j-1 E, then the nonnegative ones read left to right, j
    writing N and j+1 E; the levels run down to 0.  B puts an N before the
    second run of level 0, B and D drop the last step, and D's sign is the
    parity of the positive entries."""
    mu = area_vector(p, lattice_type)
    n = len(mu)
    kind = type_spec(lattice_type).target.kind(n)
    if lattice_type == "A":
        runs = [""] * (n + 1)
        for v in mu:
            runs[v] += N
            runs[v + 1] += E
        return make_path("".join(runs), kind)
    # level j's runs are runs[2 * (top - j)] and runs[2 * (top - j) + 1]
    top = 2 * max(map(abs, mu))
    runs = [""] * (top + 2)
    if lattice_type == "B":
        runs[-1] = N
    for v in reversed(mu):
        if v <= 0:
            runs[top + 2 * v] += N
            if v:
                runs[top + 2 * v + 2] += E
    positives = 0
    for v in mu:
        if v >= 0:
            runs[top - 2 * v + 1] += N
            if v:
                runs[top - 2 * v + 3] += E
                positives += 1
    word = "".join(runs)
    if lattice_type != "C":
        word = word[:-1]
    return make_path(word, kind, -1 if lattice_type == "D" and positives % 2 else 1)


def reading_word(vp: VertPath, lattice_type: str) -> SignedPermutation:
    """The diagonal reading word of a vertically labelled path.  In types
    B, C and D the labels, after their own twist, are read through the
    type's frame as area_vector reads lambda, then level by level: the
    entries -level left to right, then the entries level + 1 right to left
    and negated; in D the first letter carries the sign of the image."""
    win = vp.labels.window
    n = len(win)
    if lattice_type == "A":
        mu = area_vector(vp.path, lattice_type)
        out = []
        for level in range(0, n):
            out.extend(win[j] for j in range(n) if mu[j] == level)
        return SignedPermutation(tuple(out))
    lam = lambda_of_path(vp.path, lattice_type)
    frame = _frame(lattice_type, n)
    mu = [s * (lam[i] - c) for i, s, c in frame]
    # the labels' own twist, the signs torus.label_twist puts on them, is
    # stated here and not read from torus: the uniform oracle reads it from
    # torus, so a fault in either copy shows as a disagreement
    u = list(win)
    if lattice_type in ("B", "D") and (lam[-2] + lam[-1]) % 2:
        u[-1] = -u[-1]
    if sign_of(vp.path) < 0:
        u[0] = -u[0]
    w = [s * u[i] for i, s, _ in frame]
    out = []
    for level in range(0, max(abs(x) for x in mu) + 1):
        out += [w[j] for j in range(n) if mu[j] == -level]
        out += [-w[j] for j in range(n - 1, -1, -1) if mu[j] == level + 1]
    if len(out) != n:
        raise InternalError("reading word lost labels: %r" % (out,))
    if lattice_type == "D" and sum(1 for x in mu if x > 0) % 2:
        out[0] = -out[0]
    return SignedPermutation(tuple(out))


def zeta_labelled(vp: VertPath, lattice_type: str) -> tuple[Path, SignedPermutation]:
    """Labelled zeta map: the image path together with the reading word."""
    return zeta_path(vp.path, lattice_type), reading_word(vp, lattice_type)


def zeta_d_star(p: Path) -> Path:
    """Sign-stripped type-D zeta map on plain rectangular paths."""
    if p.kind.shape != "lattice" or p.kind.params[0] != p.kind.params[1] - 1:
        raise ShapeMismatch("expected a lattice(n-1,n) path, got %s" % p.kind)
    return strip_signs(zeta_path(lift_signed(p, 1), "D"))


def bounce_path(p: Path):
    """Bounce trajectory of a ballot path and the decoded level counts.

    Returns (moves, alphas) where moves is a string over S/W read from the
    end point down to the origin, and alphas[k] counts area-vector entries
    of absolute value k in any preimage.
    """
    n = type_spec("C").target_rank(p)
    hits = _bounce_hits("".join(p.steps))
    moves = ["S" * (len(p.steps) - 2 * hits[0])]
    for a, b in zip(hits, hits[1:]):
        moves += ["W" * (a - b), "S" * (a - b)]
    return "".join(moves), _level_counts(hits, n)


def _bounce_hits(word: str) -> list[int]:
    """The columns x of the diagonal points (x, x) that the bounce path of a
    ballot path's steps visits, from the end point's down to 0: from (x, x)
    it goes West to the North step that reaches height x, then South."""
    # the East steps before the North step that reaches height y, at y - 1
    tops = list(itertools.accumulate(map(len, word.split(N)[:-1])))
    x = len(word) - len(tops)
    hits = [x]
    while x:
        if x > len(tops) or tops[x - 1] >= x:
            raise InternalError("bounce path found no North step at height %d" % x)
        x = tops[x - 1]
        hits.append(x)
    return hits


def _level_counts(hits: list[int], n: int) -> tuple[int, ...]:
    """alphas[k], the entries of absolute value k in the area vector of a
    preimage: the bounce's first hit leaves n - hits[0] entries 0, and each
    later bounce a level of hits[k - 1] - hits[k] entries."""
    alphas = [n - hits[0]] + [a - b for a, b in zip(hits, hits[1:])]
    alphas += [0] * (n + 1 - len(alphas))
    if sum(alphas) != n or len(alphas) != n + 1:
        raise InternalError("bounce decode inconsistent: %r" % (alphas,))
    return tuple(alphas)


# the decoder writes an entry v of a rank-n area vector as chr(n + _Z + v),
# and as chr(n + _Z + |v|) while it attaches entries: above N and E
_Z = 80


@lru_cache(maxsize=64)
def _negated(n: int) -> dict:
    """The translation that negates the decoder's entries at rank n."""
    z = n + _Z
    return {z + k: z - k for k in range(1, n + 1)}


def inverse_zeta_c(p: Path) -> Path:
    """Preimage of a ballot path under the type-C zeta map.

    Decodes the level counts from the bounce path and cuts the path from
    its end into one block per level.  With m entries -k in mu, the first
    m North steps of level k's block, read backwards, are those entries,
    and the East run before each is that many entries -(k+1) right after
    it; each later East run before a North step is that many entries k+1
    right before the next entry k, and level 0's final East run is that
    many entries 1 at the end of mu.

    So in every block an East step stands for an entry of the level above
    and the next North step for the entry that attached it.  The blocks
    are read from the top level down, each entry as one character: the
    readings of a level, each entry after the readings of the entries it
    attached, are ready before the level below takes them, and no level
    rescans mu.  lambda is mu reversed in C's frame, lam[i] = i + 1 -
    mu[n - 1 - i].
    """
    n = type_spec("C").target_rank(p)
    word = "".join(p.steps)
    alphas = _level_counts(_bounce_hits(word), n)
    # level k's block has alphas[k] North steps and alphas[k + 1] East
    # steps; level 0's has its North steps twice
    sizes = [a + b for a, b in zip(alphas, alphas[1:] + (0,))]
    sizes[0] += alphas[0]
    end = len(word)
    if sum(sizes) != end:
        raise InternalError("block sizes do not cover the path")
    blocks = []
    m = alphas[0]
    for k, size in enumerate(sizes):
        if not size:
            # the bounce hits strictly decrease, so the blocks of levels up
            # to max|mu| are not empty; this one and all later ones are
            # above it and attach nothing
            break
        block = word[end - size : end]
        end -= size
        rest = block.split(N, m)
        if len(rest) <= m:
            raise InternalError("block %r has fewer than %d North steps" % (block, m))
        if k and block[-1] == E:
            raise InternalError("positive block ends with an East step")
        blocks.append(block)
        m = size - len(rest[-1]) - m
    # the readings of level k + 1, each ending with its entry, in the order
    # of the East steps of level k's block that take them: each North step
    # closes the reading of an entry of level k, whatever its sign
    z = n + _Z
    reading = ""
    for k in range(len(blocks) - 1, -1, -1):
        up = chr(z + k + 1)
        reading = up.join(map(add, blocks[k].replace(N, chr(z + k)).split(E), reading.split(up)))
    # level 0's first alphas[0] readings are those of the zeros with the
    # negative entries they attached, right to left; the others those of
    # the zeros with the positive entries, left to right, and the last one
    # the final run of entries 1.  Each 0 comes after the entries it
    # attached before it and before those it attached after it.
    zero = chr(z)
    negs = reading.split(zero, alphas[0])
    poss = negs.pop().split(zero)
    negs = zero.join(negs).translate(_negated(n))[::-1].split(zero)
    # with no zeros, poss is the final run alone
    mu = zero.join(map(add, ["", *negs], poss))
    if len(mu) != n:
        raise InternalError("decoded %d entries at rank %d" % (len(mu), n))
    return path_of_lambda(list(map(sub, range(z + 1, z + n + 1), map(ord, reversed(mu)))), "C")


def sweep_labels(p: Path) -> list[int]:
    """Arithmetic step labels driving the type-C sweep map."""
    n = type_spec("C").source_rank(p)
    labels = [0]
    for s in p.steps[:-1]:
        labels.append(labels[-1] + (2 * n + 1 if s == N else -2 * n))
    return labels


def sweep_c(p: Path) -> Path:
    """Reorder the steps of a square path by increasing label."""
    n = type_spec("C").source_rank(p)
    labels = sweep_labels(p)
    bag = []
    for i, l in enumerate(labels):
        if l < 0:
            bag.append((l, p.steps[i]))
        elif l > 0:
            bag.append((-l, p.steps[i - 1]))
        else:
            bag.append((-n, p.steps[-1]))
    bag.sort()
    keys = [k for k, _ in bag]
    if len(set(keys)) != len(keys):
        raise InternalError("sweep labels collide: %r" % (keys,))
    return make_path(tuple(s for _, s in bag), ballot(2 * n))


def inverse_zeta(p: Path, lattice_type: str) -> Path:
    """The preimage of a target path under the zeta map of its type: the
    bounce inverse in type C, a lookup in the source table otherwise."""
    return inverse_zeta_c(p) if lattice_type == "C" else inverse_by_table(p, lattice_type)


def inverse_by_table(p: Path, lattice_type: str) -> Path:
    """Invert a zeta map by exhausting the source side."""
    table = _zeta_table(lattice_type, type_spec(lattice_type).target_rank(p))
    key = paths.render_path(p)
    if key not in table:
        raise InternalError("%s is not a zeta image in type %s" % (key, lattice_type))
    return table[key]


@lru_cache(maxsize=16)
def _zeta_table(lattice_type: str, n: int):
    sources = type_spec(lattice_type).sources(n)
    return {paths.render_path(zeta_path(src, lattice_type)): src for src in sources}
