"""Area vectors, diagonal reading words, the zeta maps of types A, B, C
and D, the sign-stripped odd bijection, the type-C sweep map and the
type-C bounce inverse.
"""

from __future__ import annotations

from functools import lru_cache

from . import paths
from .affine import dominant_frame_parts
from .errors import InternalError, ShapeMismatch, ZetakitError
from .paths import (
    Path,
    ballot,
    east_counts,
    lattice,
    lift_signed,
    make_path,
    segment,
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
        pi = tuple(i - mu[i - 1] - 1 for i in range(1, n + 1))
        steps = []
        prev = 0
        for v in pi:
            steps.extend([E] * (v - prev))
            steps.append(N)
            prev = v
        steps.extend([E] * (n - prev))
        return make_path(steps, lattice(n, n))
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
    """The zeta image of an unlabelled path.  In types B, C and D, level j
    from the top down to 0 writes its entries -j right to left, then its
    entries j left to right; B puts an N before the level-0 left-to-right
    run, B and D drop the last step, and D's sign is the parity of the
    positive entries."""
    spec = type_spec(lattice_type)
    n = spec.source_rank(p)
    kind = spec.target.kind(n)
    mu = area_vector(p, lattice_type)
    if lattice_type == "A":
        word = "".join(segment("left_to_right", -1, j, mu) for j in range(0, -n - 1, -1))
        return make_path(tuple(word), kind)
    parts = []
    for j in range(max(abs(v) for v in mu), -1, -1):
        parts.append(segment("right_to_left", -1, j, mu))
        if j == 0 and lattice_type == "B":
            parts.append(N)
        parts.append(segment("left_to_right", 1, j, mu))
    word = "".join(parts)
    if lattice_type != "C":
        word = word[:-1]
    sign = -1 if lattice_type == "D" and sum(1 for v in mu if v > 0) % 2 else 1
    return make_path(tuple(word), kind, sign)


def reading_word(vp: VertPath, lattice_type: str) -> SignedPermutation:
    """The diagonal reading word of a vertically labelled path."""
    win = vp.labels.window
    n = len(win)
    mu = area_vector(vp.path, lattice_type)
    if lattice_type == "A":
        out = []
        for level in range(0, n):
            out.extend(win[j] for j in range(n) if mu[j] == level)
        return SignedPermutation(tuple(out))
    if lattice_type == "C":
        # C reads its labels through its frame twist: v'(j) = -v(n+1-j)
        win = tuple([-x for x in reversed(win)])
    out = []
    src_row = []
    top = max(abs(x) for x in mu)
    for level in range(0, top + 1):
        for j in range(1, n + 1):
            if mu[j - 1] == -level:
                out.append(win[j - 1])
                src_row.append(j)
        for j in range(n, 0, -1):
            if mu[j - 1] == level + 1:
                out.append(-win[j - 1])
                src_row.append(j)
    if len(out) != n:
        raise InternalError("reading word lost labels: %r" % (out,))
    top_pos = src_row.index(n)
    bottom_pos = src_row.index(1)
    if lattice_type == "D":
        if (1 + mu[n - 2] + mu[n - 1]) % 2:
            out[top_pos] = -out[top_pos]
        shift, _ = dominant_frame_parts("D", n)
        eps = sign_of(vp.path)
        if eps * (-1) ** (1 + shift[n - 2] + shift[n - 1]) < 0:
            out[bottom_pos] = -out[bottom_pos]
        if sum(1 for x in mu if x > 0) % 2:
            out[0] = -out[0]
    elif lattice_type == "B":
        if (mu[n - 2] + mu[n - 1]) % 2 == 0:
            out[top_pos] = -out[top_pos]
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
    tops = set()
    x = y = 0
    for s in p.steps:
        if s == N:
            y += 1
            tops.add((x, y))
        else:
            x += 1
    moves = []
    hits = []
    cx, cy = x, y
    moves.append("S" * (cy - cx))
    cy = cx
    hits.append(cx)
    while (cx, cy) != (0, 0):
        wx = cx
        while wx >= 0 and (wx, cy) not in tops:
            wx -= 1
        if wx < 0:
            raise InternalError("bounce path found no North step at height %d" % cy)
        moves.append("W" * (cx - wx))
        moves.append("S" * (cy - wx))
        cx = cy = wx
        hits.append(cx)
    alphas = [n - hits[0]]
    for a, b in zip(hits, hits[1:]):
        alphas.append(a - b)
    alphas.extend([0] * (n + 1 - len(alphas)))
    if sum(alphas) != n or len(alphas) != n + 1:
        raise InternalError("bounce decode inconsistent: %r" % (alphas,))
    return "".join(moves), tuple(alphas)


def _split_block(block: tuple[str, ...], norths: int):
    """Cut a level block after its `norths`-th North step."""
    if norths == 0:
        return (), block
    seen = 0
    for k, s in enumerate(block):
        if s == N:
            seen += 1
            if seen == norths:
                return block[: k + 1], block[k + 1 :]
    raise InternalError("block %r has fewer than %d North steps" % (block, norths))


def inverse_zeta_c(p: Path) -> Path:
    """Preimage of a ballot path under the type-C zeta map.

    Decodes the level counts from the bounce path, then rebuilds the area
    vector level by level: within one level the two block halves fix the
    interleaving with the previous level, and a positive entry may precede
    a negative one of the same level only across a lower separator, which
    pins the merge order.
    """
    _, alphas = bounce_path(p)
    n = type_spec("C").target_rank(p)
    blocks = []
    idx = len(p.steps)
    for k in range(0, n + 1):
        size = 2 * alphas[0] + alphas[1] if k == 0 else alphas[k] + (alphas[k + 1] if k < n else 0)
        blocks.append(p.steps[idx - size : idx])
        idx -= size
    if idx != 0:
        raise InternalError("block sizes do not cover the path")

    left, right = _split_block(blocks[0], alphas[0])
    seq: list[int] = []
    for s in reversed(left):
        seq.append(0 if s == N else -1)
    pending = 0
    zero_seen = 0
    for s in right:
        if s == E:
            pending += 1
        else:
            zero_seen += 1
            target = [k for k, v in enumerate(seq) if v == 0][zero_seen - 1]
            seq[target:target] = [1] * pending
            pending = 0
    seq.extend([1] * pending)

    for k in range(1, n + 1):
        minus_n = sum(1 for v in seq if v == -k)
        left, right = _split_block(blocks[k], minus_n)
        groups = []
        for s in reversed(left):
            if s == N:
                groups.append([-k])
            else:
                if not groups:
                    raise InternalError("negative block starts with an East step")
                groups[-1].append(-(k + 1))
        out: list[int] = []
        g = iter(groups)
        for v in seq:
            out.extend(next(g) if v == -k else [v])
        seq = out
        groups = []
        run = 0
        for s in right:
            if s == E:
                run += 1
            else:
                groups.append([k + 1] * run + [k])
                run = 0
        if run:
            raise InternalError("positive block ends with an East step")
        out = []
        g = iter(groups)
        for v in seq:
            out.extend(next(g) if v == k else [v])
        seq = out

    return path_of_area_vector(tuple(seq), "C")


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
