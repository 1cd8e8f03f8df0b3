"""Connected components of the solution moduli, by braid-move orbits.

A monodromy tuple (sigma, sigma_1, ..., sigma_g, tau) multiplies out (left to
right) to the standard n-cycle; the middles are transpositions, the ends are
involutions, and the fixed points of the ends total 2g+2.  Classes under
simultaneous conjugation are represented by canonical keys: fixing the product
to the standard cycle cuts the conjugation down to the cycle's centralizer, so
a class is the lexicographic minimum over the n cyclic conjugates.

The enumeration never scans the I(n) * C(n,2)^g candidate tuples: each of
sigma's transpositions, and then each middle, must split one cycle of the
remainder, and only tuples least among their cyclic conjugates are built, so
each class is reached once (see :func:`_keys`).

Components of the split moduli are orbits of the keys under the adjacent swap
and the two turn moves; the nonsplit moduli add the flip, which reverses the
tuple while rewriting each entry in the letters before it.  The flip is
Garside's half-twist, so it pairs split orbits with split orbits, and no
image of a move is validated on its own (see :func:`component_count`).

The public functions take and return tuples of ints; inside, words and keys
are ``bytes`` from the enumeration to the certificate, never converted: p
followed by q is ``p.translate(q)`` with q padded to a 256-byte table, and a
conjugate by a power of the cycle is two ``translate`` calls.  Every value
fits: the cap admits n <= 14, and a key's (g + 2) * n bytes number at most
36, far below the 256 that :func:`_rotations` checks (``bytes`` refuses more).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .limits import ResourceLimit
from .perms import (
    Perm,
    compose,
    compose_all,
    count_involutions,
    cycle_type,
    fixed_points,
    identity,
    inverse,
    is_involution,
    is_transposition,
    standard_cycle,
    transposition,
)
from .ramspec import RamSpec

VARIANT_SPLIT = "split"
VARIANT_NONSPLIT = "nonsplit"
VARIANTS = (VARIANT_SPLIT, VARIANT_NONSPLIT)

#: Flattened canonical form: the g+2 component words concatenated.
CanonicalKey = tuple[int, ...]
#: A power rho of the cycle as a 256-byte table, and the flat index of rho^-1.
Tie = tuple[bytes, bytes]

#: The census refuses (g, n) when I(n) * C(n,2)^g exceeds this cap, which
#: admits n <= 14, 11, 9, 7 and 6 for g = 0, ..., 4 and no n for g >= 5;
#: every n >= 46 is refused on I(n) alone (see :func:`_admitted`).
SIZE_LIMIT = 5_000_000


def validate_tuple(words: tuple[Perm, ...]) -> None:
    """Raise ``ValueError`` unless the words (sigma, s_1, ..., s_g, tau) form
    a monodromy tuple: all of one length n, multiplying out to the standard
    n-cycle, with involutions at the ends, transpositions in the middle, and
    2g + 2 fixed points on the ends together."""
    n = _check_words(words)
    sigma, *middles, tau = words
    if compose_all(words, n) != standard_cycle(n):
        raise ValueError("components do not multiply to the standard cycle")
    if not is_involution(sigma) or not is_involution(tau):
        raise ValueError("ends must be involutions")
    if any(not is_transposition(m) for m in middles):
        raise ValueError("middles must be transpositions")
    if fixed_points(sigma) + fixed_points(tau) != 2 * len(middles) + 2:
        raise ValueError("fixed points of the ends must total 2g + 2")


def _check_words(words: tuple[Perm, ...]) -> int:
    """The length n >= 1 of two or more words that are each a permutation of 0, ..., n - 1."""
    if len(words) < 2:
        raise ValueError("a monodromy tuple has at least two words")
    n = len(words[0])
    if not n:
        raise ValueError("every word must have length n >= 1")
    if any(len(word) != n for word in words):
        raise ValueError(f"every word must have length n = {n}")
    if any(sorted(word) != list(range(n)) for word in words):
        raise ValueError(f"every word must be a permutation of 0, ..., {n - 1}")
    return n


def tuple_ramspec(words: tuple[Perm, ...]) -> RamSpec:
    """The ramification specification of a monodromy tuple, validated first:
    the cycle types of the ends are the marked profiles, each middle
    contributes a single simple branch point."""
    validate_tuple(words)
    members = tuple(map(cycle_type, words))
    return RamSpec(len(words[0]), members, (members[0], members[-1]))


def canonical_key(comps: tuple[Perm, ...]) -> CanonicalKey:
    """Lexicographic minimum of the flattened tuple over conjugation by
    powers of the standard cycle (the centralizer of the fixed product).

    >>> canonical_key(((1, 0, 2), (2, 1, 0)))   # ((0 1), (0 2)), product (0 1 2)
    (0, 2, 1, 1, 0, 2)
    """
    n = _check_words(comps)
    ties = _ties(bytes(comps[0]), standard_cycle(n), len(comps))
    return tuple(_least_conjugate(b"".join(map(bytes, comps)), ties))


@lru_cache(maxsize=16)
def _rotations(cycle: Perm, blocks: int) -> tuple[Tie, ...]:
    """The n powers rho of ``cycle``, identity first, as 256-byte tables with
    the flat index of rho^-1 over ``blocks`` words, which must fit a byte."""
    n = len(cycle)
    rho, out = identity(n), []
    for _ in range(n):
        out.append((bytes(rho).ljust(256, b"\0"),
                    bytes(b + x for b in range(0, blocks * n, n) for x in inverse(rho))))
        rho = compose(rho, cycle)
    return tuple(out)


def _ties(sigma: bytes, cycle: Perm, blocks: int) -> tuple[Tie, ...]:
    """The powers rho of ``cycle`` that minimise rho^-1 sigma rho: the first
    block decides the key unless it ties, so only these can give the least
    flattening of a tuple of ``blocks`` words starting with sigma."""
    table = sigma.ljust(256, b"\0")
    firsts = [idx.translate(table).translate(rho) for rho, idx in _rotations(cycle, 1)]
    least = min(firsts)
    return tuple(tie for tie, first in zip(_rotations(cycle, blocks), firsts) if first == least)


def _least_conjugate(flat: bytes, ties: tuple[Tie, ...]) -> bytes:
    # (rho^-1 p rho)[j] = rho[p[rho^-1[j]]] on every block at once.
    table = flat.ljust(256, b"\0")
    return min(idx.translate(table).translate(rho) for rho, idx in ties)


def key_to_tuple(key: CanonicalKey | bytes, n: int) -> tuple[Perm, ...]:
    """The words (sigma, s_1, ..., s_g, tau) of a flat key, ``bytes`` for a
    ``bytes`` key; n < 1 or a ragged last word raises ``ValueError``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n = {n}")
    if len(key) % n:
        raise ValueError(f"key length {len(key)} is not a multiple of n = {n}")
    return tuple([key[i : i + n] for i in range(0, len(key), n)])


def _admitted(g: int, n: int) -> bool:
    """Whether (g, n) is feasible, that is n >= g + 1 (the ends' fixed points
    total 2g+2, each count at most n and congruent to n mod 2).  Raises
    ``ResourceLimit`` when I(n) * C(n,2)^g exceeds ``SIZE_LIMIT``.

    I(n) = I(n-1) + (n-1) I(n-2) >= n I(n-2) >= 2 I(n-2) and I(0) = I(1) = 1
    give I(n) >= 2^(n // 2), which exceeds ``SIZE_LIMIT`` once n // 2 reaches
    its bit length; that refuses every n >= 46 before any work of size n.
    Below that, g < n keeps the exact product small."""
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    if n < g + 1:
        return False
    if n // 2 >= SIZE_LIMIT.bit_length() or count_involutions(n) * comb(n, 2) ** g > SIZE_LIMIT:
        raise ResourceLimit(f"enumeration size I(n) * C(n,2)^g exceeds the cap of {SIZE_LIMIT}")
    return True


def enumerate_m(g: int, n: int) -> set[CanonicalKey]:
    """Canonical keys of all monodromy tuples for the given genus and order.

    Every simultaneous-conjugation class contains tuples whose product is
    exactly the standard cycle, and those form a single orbit under the
    cycle's centralizer, so distinct keys are distinct classes.  Infeasible
    parameters yield the empty set.
    """
    return enumerate_m_with_cycle(g, n, None)


def _splits(p: list[int], sigma: Perm | list[int], least: int) -> list[tuple[int, int]]:
    """The pairs (i, j), least <= i < j, in one cycle of p and both fixed by
    sigma: swapping p[i] and p[j] splits that cycle in two.  Walks the cycle
    of p through each such i."""
    out = []
    for i in range(least, len(p)):
        if sigma[i] == i:
            j = p[i]
            while j != i:
                if j > i and sigma[j] == j:
                    out.append((i, j))
                j = p[j]
    return out


def _involution_splits(p: list[int]) -> list[tuple[int, int]]:
    """The splits of p that leave an involution: each 2-cycle of an
    involution, the three pairs of a lone 3-cycle, or the two opposite pairs
    of a lone 4-cycle, when every other cycle has length at most 2.  The
    points x with p(p(x)) != x are those on longer cycles: three or four of
    them form one cycle, and five or more leave no such split."""
    long = [x for x in range(len(p)) if p[p[x]] != x]
    if not long:
        return [(x, y) for x, y in enumerate(p) if x < y]
    if len(long) == 3:
        a, b, c = long
        return [(a, b), (a, c), (b, c)]
    if len(long) == 4:
        a = long[0]
        return [(a, p[p[a]]), (p[a], p[p[p[a]]])]
    return []


def enumerate_m_with_cycle(g: int, n: int, base_cycle: Perm | None) -> set[CanonicalKey]:
    """:func:`_keys` as tuples: :func:`enumerate_m` with the product normalised
    to any n-cycle (``None`` is the standard one); the count must not depend on it."""
    return {tuple(key) for key in _keys(g, n, base_cycle)}


def _keys(g: int, n: int, base_cycle: Perm | None) -> set[bytes]:
    """The canonical keys of :func:`enumerate_m_with_cycle` as ``bytes``.

    Two reductions make the work follow the classes found rather than the
    I(n) * C(n,2)^g candidate tuples:

    * Cycle splitting.  With ind p = n - #cycles(p), a tuple has
      ind sigma + g + ind tau = (n - a)/2 + g + (n - b)/2 = n - 1, the index
      of the cycle, where a + b = 2g + 2 are the ends' fixed points.  The
      index is subadditive, so equality holds on every prefix of sigma's
      ind sigma disjoint transpositions and the middles: each (i j) swaps
      r[i] and r[j] in the remainder r, the cycle at the start, and must
      split a cycle of r (i and j in it) rather than merge two (a minimal
      transitive factorization, Goulden and Jackson, Proc. AMS 125 (1997)).
      :func:`_splits` walks r's cycle through each i and pairs it with the
      later points j on it, so no cycle list is built.  sigma's
      transpositions commute, so they are taken in increasing order of their
      least point i, which builds each sigma once.  The last middle must
      leave tau, an involution; its cycle count, and so its fixed-point
      count 2g + 2 - a, is already fixed, and the candidates are read off r
      (:func:`_involution_splits`).
    * Least tuples only.  A key is the least flattening of a tuple over the
      powers of the cycle, so every class has one tuple that is its own key,
      and only that tuple is built: sigma must be least among its
      conjugates, and each middle least among its conjugates by the powers
      that fix every word before it.  Those powers commute with the cycle,
      so the ones that fix sigma and every middle fix tau as well.
    """
    feasible = _admitted(g, n)
    if base_cycle is not None and (sorted(base_cycle) != list(range(n))
                                   or cycle_type(base_cycle) != (n,)):
        raise ValueError("base cycle must be an n-cycle")
    if not feasible:
        return set()  # before the standard cycle, which is work of size n
    cycle = standard_cycle(n) if base_cycle is None else tuple(base_cycle)
    rotations = _rotations(cycle, 1)[1:]
    # swap[i][j] is the word of (i j); conjugation by rho maps it to
    # swap[rho[i]][rho[j]], the same object exactly when rho fixes it.
    swap = [[b""] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            swap[i][j] = swap[j][i] = bytes(transposition(n, i, j))
    keys: set[bytes] = set()
    # sigma's word and the remainder r, both updated in place by each swap.
    sigma, r, unmoved = list(range(n)), list(cycle), identity(n)

    def visit(depth: int, head: bytes, stab: list[bytes]) -> None:
        # head is sigma and `depth` middles, r their remainder, and stab the
        # powers of the cycle other than the identity that fix head.
        if depth == g:
            keys.add(head + bytes(r))
            return
        for i, j in _splits(r, unmoved, 0) if depth < g - 1 else _involution_splits(r):
            word, fixing = swap[i][j], stab
            if stab:
                if any(swap[rho[i]][rho[j]] < word for rho in stab):
                    continue
                fixing = [rho for rho in stab if swap[rho[i]][rho[j]] is word]
            r[i], r[j] = r[j], r[i]
            visit(depth + 1, head + word, fixing)
            r[i], r[j] = r[j], r[i]

    def build(least: int, fixed: int) -> None:
        # sigma fixes `fixed` points, and its transpositions' least points
        # are all below `least`.
        if fixed <= 2 * g + 2:
            head, stab = bytes(sigma), []
            table = head.ljust(256, b"\0")
            for rho, idx in rotations:
                if (image := idx.translate(table).translate(rho)) < head:
                    break
                if image == head:
                    stab.append(rho)
            else:
                if g or is_involution(r):
                    visit(0, head, stab)
        if fixed - 2 < 2 * g + 2 - n:
            return
        for i, j in _splits(r, sigma, least):
            sigma[i], sigma[j] = j, i
            r[i], r[j] = r[j], r[i]
            build(i + 1, fixed - 2)
            sigma[i], sigma[j] = i, j
            r[i], r[j] = r[j], r[i]

    build(0, n)
    return keys


# -- braid moves --------------------------------------------------------------------

Move = str | tuple[str, int]


def applicable_moves(g: int, variant: str) -> list[Move]:
    moves: list[Move] = [("swap", i) for i in range(1, g)]
    if g >= 1:
        moves += ["left_turn", "right_turn"]
    if variant == VARIANT_NONSPLIT:
        moves.append("flip")
    return moves


def apply_move(words: tuple[Perm, ...], move: Move) -> tuple[Perm, ...]:
    """One braid move on the words (sigma, s_1, ..., s_g, tau) of a valid
    tuple, not validated: :func:`component_count` certifies each image by its
    key's membership in M; other callers call :func:`validate_tuple`.  Every
    entry of a valid tuple is its own inverse, which the swap and the turns
    rely on; on other tuples their images are wrong.  The moves run on
    ``bytes`` words, as the closure passes them; tuple words are converted.

    >>> apply_move(((0, 1), (1, 0)), "flip") == ((1, 0), (0, 1))
    True
    """
    g = len(words) - 2
    if g < 1 and move in ("left_turn", "right_turn"):
        raise ValueError(f"{move} needs g >= 1")
    tuples = not isinstance(words[0], bytes)
    words = tuple(map(bytes, words)) if tuples else words
    if isinstance(move, tuple):
        name, i = move
        if name != "swap":
            raise ValueError(f"unknown move {move!r}")
        if not 1 <= i < g:
            raise ValueError(f"swap index {i} needs 1 <= i < g = {g}")
        # s_i, s_(i+1) -> s_i s_(i+1) s_i, s_i
        a, b = words[i].ljust(256, b"\0"), words[i + 1].ljust(256, b"\0")
        out = (*words[:i], words[i].translate(b).translate(a), words[i], *words[i + 2 :])
    elif move == "left_turn":
        sigma, s1 = words[0].ljust(256, b"\0"), words[1].ljust(256, b"\0")
        # sigma [s1, sigma] = sigma s1 sigma s1^-1 sigma^-1, left to right.
        new_s1 = words[0].translate(s1).translate(sigma)
        out = (new_s1.translate(s1).translate(sigma), new_s1, *words[2:])
    elif move == "right_turn":
        sg, tau = words[-2].ljust(256, b"\0"), words[-1].ljust(256, b"\0")
        # [tau, sg] tau = tau^-1 sg^-1 tau sg tau, left to right.
        new_sg = words[-1].translate(sg).translate(tau)
        out = (*words[:-2], new_sg, new_sg.translate(sg).translate(tau))
    elif move == "flip":
        # Entry i becomes P c_i P^-1 with P = c_0 ... c_(i-1), last entry
        # first; maketrans(P, points) is the table of P^-1.
        prefix, rewritten, points = words[0], [], bytes(range(len(words[0])))
        for word in words[1:]:
            step = prefix.translate(word.ljust(256, b"\0"))
            rewritten.append(step.translate(bytes.maketrans(prefix, points)))
            prefix = step
        out = (*reversed(rewritten), words[0])
    else:
        raise ValueError(f"unknown move {move!r}")
    return tuple(map(tuple, out)) if tuples else out


# -- orbit counting --------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitCertificate:
    """Component count with one canonical representative per orbit."""

    g: int
    n: int
    variant: str
    m_count: int
    component_count: int
    representatives: tuple[CanonicalKey, ...]
    orbit_sizes: tuple[int, ...]

    def __post_init__(self):
        if sum(self.orbit_sizes) != self.m_count:
            raise AssertionError("orbit sizes do not sum to the class count")


def component_count(g: int, n: int, variant: str) -> OrbitCertificate:
    """Count orbits of the applicable moves on the canonical keys.

    The moves commute with simultaneous conjugation, so applying each move to
    one representative per key gives the full relation.  Each move is a
    bijection on the keys, so the keys reachable from one key form its whole
    orbit: a breadth-first search from the least unvisited key visits one
    orbit, and starting in sorted order lists the orbits by their least key.
    An image's key is its conjugate by a power of the cycle, which keeps the
    product and the cycle types, so an image is valid exactly when its key is
    in M; a miss raises AssertionError.  The search runs on the ``bytes``
    keys of :func:`_keys` as built; only the representatives become tuples,
    in the certificate.

    The search closes under the split moves only, for both variants; each
    nonsplit orbit is then a split orbit joined with its image under the
    flip, read off the flip of the orbit's least key.  With b_1, ...,
    b_(g+1) the braid generators acting on the g + 2 entries (b_j takes
    (x, y) at entries j - 1, j to (x y x^-1, x)), swap_i is b_(i+1),
    left_turn is b_1^2 and right_turn is b_(g+1)^-2, and the flip F acts as
    Garside's half-twist Delta, with Delta b_j Delta^-1 = b_(g+2-j)
    (Garside, Quart. J. Math. 20 (1969)).  Delta^2 conjugates every entry
    by the product, a power of the cycle, so F is an involution on keys and
    there F swap_i F = swap_(g-i), F left_turn F = right_turn^-1 and
    F right_turn F = left_turn^-1.  So if k = w(k0) for a word w in the
    split moves, F(k) = w'(F(k0)) with w' the conjugated word: F maps the
    split orbit of k0 onto the split orbit of F(k0).  As F is an
    involution, this pairs the split orbits (a flip that does not raises
    AssertionError), and each pair is kept at its lesser index, so the
    nonsplit orbits too are listed by their least key.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    members = _keys(g, n, None)
    if not members:
        return OrbitCertificate(g, n, variant, 0, 0, (), ())
    split = applicable_moves(g, VARIANT_SPLIT)
    cycle = standard_cycle(n)
    ties: dict[bytes, tuple[Tie, ...]] = {}  # sigma -> its least rotations
    alone = _rotations(cycle, g + 2)[:1]  # the ties of a sigma whose image is its key

    def image_key(key: bytes, words: tuple[bytes, ...], move: Move) -> bytes:
        image_words = apply_move(words, move)
        least = ties.get(image_words[0])
        if least is None:
            least = ties[image_words[0]] = _ties(image_words[0], cycle, g + 2)
        flat = b"".join(image_words)
        image = flat if least == alone else _least_conjugate(flat, least)
        if image not in members:
            raise AssertionError(f"move {move!r} takes {tuple(key)} out of M")
        return image

    orbit_of: dict[bytes, int] = {}
    reps: list[bytes] = []
    sizes: list[int] = []
    for start in sorted(members):
        if start in orbit_of:
            continue
        orbit_of[start] = len(reps)
        orbit = [start]
        for key in orbit:  # the list grows while it is read: a FIFO queue
            words = key_to_tuple(key, n)
            for move in split:
                image = image_key(key, words, move)
                if image not in orbit_of:
                    orbit_of[image] = len(reps)
                    orbit.append(image)
        reps.append(start)
        sizes.append(len(orbit))
    if variant == VARIANT_NONSPLIT:
        # flip[i] is the split orbit of the flip of reps[i]
        flip = [orbit_of[image_key(key, key_to_tuple(key, n), "flip")] for key in reps]
        if any(flip[j] != i for i, j in enumerate(flip)):
            raise AssertionError("the flip does not pair the split orbits")
        pairs = [(i, j) for i, j in enumerate(flip) if i <= j]
        reps = [reps[i] for i, _ in pairs]
        sizes = [sizes[i] + sizes[j] if i < j else sizes[i] for i, j in pairs]
    return OrbitCertificate(g, n, variant, len(members), len(reps), tuple(map(tuple, reps)), tuple(sizes))
