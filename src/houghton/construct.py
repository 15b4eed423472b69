"""Constructions that produce generation certificates.

Every function here builds concrete group elements together with a
certificate whose steps re-derive those elements from the declared
generators.  Construction code is free to be clever; the certificate
checker in ``certs`` re-validates everything independently, so a bug in
this module can only cause a raised ``ConstructError`` or a rejected
certificate, never a wrongly accepted one.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .perm import FinPerm
from .elem import (
    G,
    Group,
    GroupElement,
    class_tk_relabel,
    finitary,
    in_class_tk,
    make_s,
    member,
    t,
)
from .certs import (
    Axiom,
    CertError,
    CheckEqual,
    Derive,
    PositiveCertificate,
    Word,
    eval_word,
    verify,
    verify_positive,
    walk_error,
)
from .bounds import BoundsError, obstruction


class ConstructError(ValueError):
    pass


# -- word helpers ------------------------------------------------------------


def _inv_word(word: Sequence[Tuple[str, int]]) -> Tuple[Tuple[str, int], ...]:
    return tuple((name, -exp) for name, exp in reversed(tuple(word)))


def _merge_word(word: Sequence[Tuple[str, int]]) -> Word:
    """Combine adjacent letters with the same name and drop zero exponents."""
    out: List[Tuple[str, int]] = []
    for name, exp in word:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            total = out[-1][1] + exp
            out.pop()
            if total:
                out.append((name, total))
        else:
            out.append((name, exp))
    return tuple(out)


@dataclass
class ConstructionTranscript:
    """Named intermediate elements plus the certificate deriving them."""

    named: Dict[str, GroupElement]
    certificate: PositiveCertificate


class _Builder:
    """Accumulates certificate steps while evaluating them eagerly."""

    def __init__(self, target: Group, generators: Dict[str, GroupElement]):
        self.target = target
        self.generators = dict(generators)
        self.env: Dict[str, GroupElement] = dict(generators)
        self.steps: List[object] = []

    def derive(self, name: str, word: Sequence[Tuple[str, int]]) -> GroupElement:
        w = _merge_word(word)
        try:
            val = eval_word(self.env, w)
        except CertError as exc:
            raise ConstructError("cannot derive %r: %s" % (name, exc)) from exc
        return self.record(name, w, val)

    def record(self, name: str, word: Word, val: GroupElement) -> GroupElement:
        """A Derive step whose value the caller knows; finish() re-checks it."""
        if name in self.env:
            raise ConstructError("name %r already used" % name)
        self.env[name] = val
        self.steps.append(Derive(name, _merge_word(word)))
        return val

    def pin(self, name: str) -> GroupElement:
        """Record the current value of name as a CheckEqual step."""
        val = self.env[name]
        self.steps.append(CheckEqual(name, val))
        return val

    def expect(self, name: str, value: GroupElement) -> None:
        if self.env[name] != value:
            raise ConstructError(
                "derived %r does not match the planned value" % name
            )
        self.steps.append(CheckEqual(name, value))

    def axiom(self, variant: str, params: dict) -> None:
        self.steps.append(Axiom(variant, dict(params)))

    def certificate(self) -> PositiveCertificate:
        return PositiveCertificate(
            self.target, dict(self.generators), tuple(self.steps)
        )

    def extend(self, other: "_Builder") -> None:
        """Append the steps of other with the values it derived.

        Every generator of other must be bound here to the same value.
        """
        for name, val in other.generators.items():
            if self.env.get(name) != val:
                raise ConstructError("%r differs from the value its steps assume" % name)
        for step in other.steps:
            if isinstance(step, Derive):
                if step.name in self.env:
                    raise ConstructError("name %r already used" % step.name)
                self.env[step.name] = other.env[step.name]
            self.steps.append(step)

    def finish(self) -> PositiveCertificate:
        cert = self.certificate()
        res = verify_positive(cert)
        if not res.ok:
            raise ConstructError("built certificate failed to verify: %s" % res.reason)
        return cert


# -- walking a tracked 3-cycle by conjugation --------------------------------
#
# Conjugating a 3-cycle X by a translated copy of a fixed 3-cycle moves at
# most the points of X that lie in the copy's support.  If the copy meets
# supp(X) in a single point, exactly that point is renamed.  A breadth-first
# search over such moves walks one point of X at a time to a chosen target.


def _point_walk(
    start: int,
    target: int,
    others: frozenset,
    neighbours: Callable[[int, frozenset], Iterator[Tuple[int, int, int]]],
    lo: int,
    hi: int,
) -> List[Tuple[int, int]]:
    """Moves (m, e) of a shortest walk of one point from start to target
    inside [lo, hi], by breadth-first search.

    neighbours(p, others) yields the moves (m, e, next point) open at p
    while the other tracked points are others, always in the same order,
    so the walk found is a function of the input alone.
    """
    if start == target:
        return []
    seen = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for m, e, p2 in neighbours(p, others):
                if not lo <= p2 <= hi or p2 in seen:
                    continue
                seen[p2] = (p, (m, e))
                if p2 == target:
                    moves = []
                    while seen[p2] is not None:
                        p2, move = seen[p2]
                        moves.append(move)
                    moves.reverse()
                    return moves
                nxt.append(p2)
        frontier = nxt
    raise ConstructError("no conjugation walk from %d to %d" % (start, target))


# -- the 3-cycle criterion tests for G_1 and G_2 -----------------------------


def euclid_word(d1: int, d2: int) -> Word:
    """A word in c = (-d1 0 d2) and s = t evaluating to exactly (-1 0 1).

    Requires d1, d2 >= 1 and gcd(d1, d2) = 1.  The word conjugates c by
    translates s^-m c^e s^m, each of which meets the tracked cycle in one
    point alone and so renames that point: -d1 walks to -1, then d2 to 1.
    """
    if d1 < 1 or d2 < 1:
        raise ConstructError("gaps must be positive")
    if math.gcd(d1, d2) != 1:
        raise ConstructError("gaps %d, %d are not coprime" % (d1, d2))
    u = (-d1, 0, d2)

    def neighbours(p: int, others: frozenset):
        for i in range(3):
            m = p - u[i]
            if not any(a + m in others for a in u):
                for e in (1, -1):
                    yield m, e, u[(i + e) % 3] + m

    margin = 3 * (d1 + d2) + 5
    lo, hi = -d1 - margin, d2 + margin
    moves = _point_walk(-d1, -1, frozenset({0, d2}), neighbours, lo, hi)
    moves += _point_walk(d2, 1, frozenset({-1, 0}), neighbours, lo, hi)
    w = [letter for m, e in moves for letter in (("s", -m), ("c", e), ("s", m))]
    word = _merge_word(_inv_word(w) + (("c", 1),) + tuple(w))
    env = {"c": finitary(FinPerm.cycle(-d1, 0, d2)), "s": t(1)}
    if eval_word(env, word) != finitary(FinPerm.cycle(-1, 0, 1)):
        raise ConstructError("internal: reduction word does not evaluate to (-1 0 1)")
    if len(word) > 6 * (d1 + d2):
        raise ConstructError("internal: reduction word too long")
    return word


@dataclass
class CriterionResult:
    positions: Tuple[int, int, int]  # the cycle's sorted positions where s reads as t^k
    verdict: str  # "positive" or "negative"
    certificate: object


def _criterion_test(k: int, cycle: FinPerm, s: GroupElement) -> CriterionResult:
    """Decide whether a 3-cycle and a relabelled t^k generate G_k, k = 1 or
    2, where the closing axiom or an obstruction applies.

    The cycle's points are read at their positions where s becomes t^k.
    A positive closes with the axiom for G_k; for G_1 it closes on the
    3-cycle at the middle position and its two neighbours, which the
    Euclid reduction derives from the cycle.  A negative comes from
    bounds.obstruction.  Where neither applies, or the kernel would refuse
    to walk the orbits of s, ConstructError.
    """
    if not cycle.is_three_cycle():
        raise ConstructError("criterion inapplicable: not a 3-cycle")
    err = walk_error([s, finitary(cycle)])
    if err:
        raise ConstructError("criterion inapplicable: %s" % err)
    w = in_class_tk(s, k)
    if w is None:
        raise ConstructError("criterion inapplicable: s is not conjugate to %s"
                             % ("t or t^-1" if k == 1 else "t^2 or t^-2"))
    rel = class_tk_relabel(s, w, tuple(cycle.support))
    q0, q1, q2 = vals = tuple(sorted(rel.values()))
    if not _closes(k, vals):
        try:
            neg = obstruction(G(k), cycle, s, "s")
        except BoundsError as exc:
            raise ConstructError(str(exc)) from exc
        if neg is None:
            raise ConstructError(
                "criterion inapplicable: no criterion or obstruction applies at positions %r"
                % (vals,)
            )
        return CriterionResult(vals, "negative", neg)
    b = _Builder(G(k), {"a": finitary(cycle), "s": s})
    name = "a"
    if k == 1:
        # s acts as t on the positions, so euclid_word with c bound to the
        # cycle in the orientation of (q0 q1 q2) gives (q1-1 q1 q1+1) there
        p0 = min(rel, key=rel.__getitem__)
        e = 1 if rel[cycle.apply(p0)] == q1 else -1
        name = "r"
        b.derive(name, [
            ("a", e * x) if n == "c" else (n, x) for n, x in euclid_word(q1 - q0, q2 - q1)
        ])
        b.pin(name)
    b.axiom(_CLOSING_AXIOM[k], {"cycle": name, "s": "s"})
    return CriterionResult(vals, "positive", b.finish())


def gcd_test(cycle: FinPerm, s: GroupElement) -> CriterionResult:
    """Decide whether a 3-cycle and a relabelled translation generate G_1:
    exactly when the gaps between the cycle's positions along the single
    orbit of s are coprime."""
    return _criterion_test(1, cycle, s)


def g2_seed_test(cycle: FinPerm, s: GroupElement) -> CriterionResult:
    """Decide whether a 3-cycle and a relabelled t^2 generate G_2, where a
    criterion applies.

    Read where s becomes t^2, two points of one parity two apart and one
    of the other form a g2_seed; three points of one parity lie on one
    orbit of s, so the cycle fixes the other, which both elements leave
    invariant.  Any other pattern raises ConstructError.
    """
    return _criterion_test(2, cycle, s)


# -- words over the basis 3-cycles (1 2 j) ------------------------------------


def _cn(j: int) -> str:
    return "a%d" % j


def three_cycle_word(a: int, b: int, c: int) -> Word:
    """A word over the generators (1 2 j) evaluating to the cycle (a b c).

    All points must be >= 1 and distinct; points named in the word are
    the letters a<j> for the cycles (1 2 j).
    """
    pts = (a, b, c)
    if len(set(pts)) != 3 or min(pts) < 1:
        raise ConstructError("bad 3-cycle %r" % (pts,))
    if 1 in pts:
        i = pts.index(1)
        pts = (pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3])
        if pts[1] == 2:
            return ((_cn(pts[2]), 1),)
        if pts[2] == 2:
            return ((_cn(pts[1]), -1),)
        _, y, z = pts
        return ((_cn(y), -1), (_cn(z), 1))
    if 2 in pts:
        i = pts.index(2)
        _, y, z = (pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3])
        return ((_cn(y), -1), (_cn(z), 1), (_cn(y), 1))
    return (
        (_cn(c), -1),
        (_cn(a), -1),
        (_cn(b), 1),
        (_cn(a), 1),
        (_cn(c), 1),
    )


def alt_basis_words(k: int, m: int) -> List[Word]:
    """Words for (1 2 j), 3 <= j <= m, over the a<j> (j <= 2k) and T = t^k."""
    if k < 3:
        raise ConstructError("need k >= 3")
    if m < 3:
        raise ConstructError("need m >= 3")
    return [_basis_word(j, k) for j in range(3, m + 1)]


def _basis_word(j: int, k: int) -> Word:
    if j <= 2 * k:
        return ((_cn(j), 1),)
    r = ((j - k - 1) % k) + 1
    n = (j - k - r) // k
    omega = _merge_word(
        (("T", -n),) + three_cycle_word(r, r + 1, r + k) + (("T", n),)
    )
    return _merge_word(omega + _basis_word(j - k, k) + _inv_word(omega))


# -- the two-generator construction for G_k, k >= 3 ---------------------------


def _even_extension(twok: int, triple: Tuple[int, int, int]) -> FinPerm:
    """An even permutation of {1..2k} sending (1, 2, 3) to the triple."""
    a, b, c = triple
    mapping = {1: a, 2: b, 3: c}
    rest = [x for x in range(1, twok + 1) if x not in (1, 2, 3)]
    targets = [x for x in range(1, twok + 1) if x not in (a, b, c)]
    for x, y in zip(rest, targets):
        mapping[x] = y
    perm = FinPerm({x: y for x, y in mapping.items() if x != y})
    if not perm.is_even():
        u, v = rest[-2], rest[-1]
        mapping[u], mapping[v] = mapping[v], mapping[u]
        perm = FinPerm({x: y for x, y in mapping.items() if x != y})
    return perm


def two_gen_alpha(k: int) -> ConstructionTranscript:
    """A single even element alpha with <alpha, t^k> = G_k, certified.

    The certificate derives the commutator of alpha with a translate of
    itself, checks it equals (1 2 3), then checks the conjugate of that
    cycle under each translate against the expected 3-cycle.
    """
    if k < 3:
        raise ConstructError("need k >= 3")
    twok = 2 * k
    triples = list(combinations(range(1, twok + 1), 3))
    n = len(triples)
    blocks = [FinPerm.cycle(1, 3)]
    blocks.extend(_even_extension(twok, tr) for tr in triples)
    blocks.append(FinPerm.cycle(2, 3))
    alpha_fin = FinPerm()
    for i, blk in enumerate(blocks):
        alpha_fin = alpha_fin * blk.translate(2 * i * k)
    if not alpha_fin.is_even():
        raise ConstructError("internal: alpha is not even")
    alpha = finitary(alpha_fin)
    b = _Builder(G(k), {"alpha": alpha, "T": t(k)})
    b.derive("beta", [("T", 2 * (n + 1)), ("alpha", 1), ("T", -2 * (n + 1))])
    b.derive("c", [("beta", -1), ("alpha", -1), ("beta", 1), ("alpha", 1)])
    b.expect("c", finitary(FinPerm.cycle(1, 2, 3)))
    basis_names: Dict[int, str] = {}
    for m, tr in enumerate(triples, start=1):
        b.derive("b%d" % m, [("T", 2 * m), ("alpha", 1), ("T", -2 * m)])
        b.derive("w%d" % m, [("b%d" % m, -1), ("c", 1), ("b%d" % m, 1)])
        b.expect("w%d" % m, finitary(FinPerm.cycle(*tr)))
        if tr[0] == 1 and tr[1] == 2:
            basis_names[tr[2]] = "w%d" % m
    b.axiom(
        "alt_basis",
        {
            "step": "T",
            "base": 0,
            "c": k,
            "cycles": [basis_names[j] for j in range(3, k + 3)],
        },
    )
    cert = b.finish()
    return ConstructionTranscript(dict(b.env), cert)


# -- laying out finitary members -----------------------------------------------


def _relabel(partial: Dict[int, int]) -> FinPerm:
    """An even omega whose inverse extends the point -> slot assignment.

    Under h = make_s(omega, k) the orbit coordinate of a point p is
    omega^{-1}(p), so slot plans are realised by inverting the completed
    assignment.  Unassigned points of the combined domain/image set are
    matched in ascending order; parity is fixed with a faraway
    transposition.
    """
    dom = set(partial)
    img = set(partial.values())
    if len(img) != len(dom):
        raise ConstructError("partial map is not injective")
    carrier = dom | img
    mapping = dict(partial)
    mapping.update(zip(sorted(carrier - dom), sorted(carrier - img)))
    perm = FinPerm({x: y for x, y in mapping.items() if x != y})
    if not perm.is_even():
        far = max(carrier | {0}) + 2
        perm = perm * FinPerm.cycle(far, far + 1)
    return perm.inverse()


# the axiom that closes a certificate for G_k, k = 1 or 2, on one 3-cycle
_CLOSING_AXIOM = {1: "gcd_criterion", 2: "g2_seed"}


def _closes(k: int, vals: Sequence[int]) -> bool:
    """Whether the closing axiom for G_k accepts a 3-cycle whose points sit
    at the orbit positions vals of the relabelled t^k, k = 1 or 2.

    G_1 needs coprime gaps between the sorted positions, G_2 the seed
    pattern: two positions of one parity two apart plus one of the other.
    """
    if k == 1:
        a, m, z = sorted(vals)
        return math.gcd(m - a, z - m) == 1
    evens = [v for v in vals if v % 2 == 0]
    odds = [v for v in vals if v % 2]
    pair, lone = (evens, odds) if len(evens) == 2 else (odds, evens)
    return len(pair) == 2 and len(lone) == 1 and abs(pair[0] - pair[1]) == 2


def _layout_ok(sigma: FinPerm, pos: Dict[int, int], k: int) -> bool:
    """Whether h = make_s(omega, k), k = 1 or 2, seals sigma via _chain.

    pos holds the orbit position under h, omega^-1(p), of every point p of
    supp(sigma).  A 3-cycle closes on itself, so _closes reads its own
    positions.  Otherwise the chain derives the 3-cycle (a y m): y is the
    top position, a that of the top point's preimage and m that of the
    bottom point's image plus the span.  G_1 needs coprime gaps y - a and
    m - y; G_2 an even span and a seed pattern on (a, y, m).
    """
    supp = sigma.support
    if len(supp) == 3:
        return _closes(k, [pos[p] for p in supp])
    top = max(supp, key=pos.__getitem__)
    bot = min(supp, key=pos.__getitem__)
    y = pos[top]
    span = y - pos[bot]
    a = pos[sigma.inverse().apply(top)]
    m = pos[sigma.apply(bot)] + span
    return (k == 1 or span % 2 == 0) and _closes(k, (a, y, m))


def _chain(b: _Builder, seed: str, pos: Dict[int, int], k: int) -> str:
    """The name of a 3-cycle, derived from seed, that h seals for G_k.

    pos holds the orbit positions of supp(seed) under h, as in _layout_ok.
    A 3-cycle seed is returned as it is, pinned when derived.  Otherwise
    the seed is conjugated by its own h-translate by the span, which meets
    the seed's support only at the top point: that point is renamed, and
    the quotient with the seed is a 3-cycle.
    """
    if len(pos) == 3:
        if seed not in b.generators:
            b.pin(seed)
        return seed
    span = max(pos.values()) - min(pos.values())
    if span < k or span % k:
        raise ConstructError("span must be a positive multiple of %d" % k)
    n = span // k
    b.derive(seed + "_a", [("h", -n), (seed, 1), ("h", n)])
    b.derive(seed + "_p", [(seed + "_a", -1), (seed, 1), (seed + "_a", 1)])
    b.derive(seed + "_r", [(seed, 1), (seed + "_p", -1)])
    rv = b.env[seed + "_r"]
    if rv.shift != 0 or not rv.fin.is_three_cycle():
        raise ConstructError("chain did not produce a 3-cycle")
    b.pin(seed + "_r")
    return seed + "_r"


def _seal(b: _Builder, seed: str, pos: Dict[int, int], k: int) -> PositiveCertificate:
    """Chain the seed to a 3-cycle, close with the axiom for G_k, verify."""
    b.axiom(_CLOSING_AXIOM[k], {"cycle": _chain(b, seed, pos, k), "s": "h"})
    return b.finish()


def _layouts(ss: Sequence[FinPerm]) -> Iterator[Dict[int, int]]:
    """Edge layouts of the union of the supports of ss, as maps point ->
    orbit position.

    An edge b -> (b)g of one element g goes at the bottom, an edge
    (p)g'^-1 -> p of one element g' at the top, and every other point
    between them in ascending order.  The roles (g', g) are first two
    distinct members of ss, then a member with itself, then every other
    pair drawn from the members and their inverses.  For one or two
    members and G_1 the first layout seals them: on consecutive slots the
    top point of g' has its preimage just below it and the bottom point
    of g its image just above it, and a gap of 1 makes the gcd 1.

    For G_2 the later layouts vary the parities that _layout_ok reads:
    a one-slot hole may open the bottom edge, the top edge, and each
    middle point that some member's chain reads (its lowest point and
    that point's image, its highest point and that point's preimage).

    A union of three points is a single 3-cycle up to inversion, with no
    four-point edge layout: its one layout is the points in ascending
    order on slots 0, 1, 2, which closes it on itself for G_1 and G_2.
    """
    n = len(ss)
    union = sorted(frozenset().union(*(s.support for s in ss)))
    if len(union) == 3:
        yield {q: i for i, q in enumerate(union)}
        return
    gs = tuple(ss) + tuple(s.inverse() for s in ss)  # gs[(i + n) % 2n] inverts gs[i]
    plain = [(i, j) for i in range(n) for j in range(n) if i != j]
    plain += [(i, i) for i in range(n)]
    rest = (r for r in product(range(2 * n), repeat=2) if r not in plain)
    for ti, bi in chain(plain, rest):
        for p in sorted(gs[ti].support):
            x = gs[(ti + n) % (2 * n)].apply(p)
            for b in sorted(gs[bi].support):
                y = gs[bi].apply(b)
                if len({x, p, b, y}) < 4:
                    continue
                seq = [b, y] + [q for q in union if q not in (x, p, b, y)] + [x, p]
                rank = {q: i for i, q in enumerate(seq)}
                read = set()
                for s, s_inv in zip(ss, gs[n:]):
                    lo = min(s.support, key=rank.__getitem__)
                    hi = max(s.support, key=rank.__getitem__)
                    read.update((lo, s.apply(lo), hi, s_inv.apply(hi)))
                holes = [y, p] + [q for q in seq[2:-2] if q in read]
                for gaps in product((1, 2), repeat=len(holes)):
                    gap = dict(zip(holes, gaps))
                    pos, slot = {}, -1
                    for q in seq:
                        slot += gap.get(q, 1)
                        pos[q] = slot
                    yield pos


# -- frames for non-finitary members ---------------------------------------------


def _next_prime(n: int) -> int:
    while True:
        n += 1
        if n > 2 and all(n % p for p in range(2, int(n ** 0.5) + 1)):
            return n


@dataclass
class _Frame:
    k: int
    q: int
    c: int
    base: int
    sigma: FinPerm
    powers: Tuple[int, ...]  # p_i with g_i^{p_i} of shift -c
    orders: Tuple[int, ...]  # orders of the finitary parts of g_i^{p_i}


def _nonalt_frame(k: int, gs: Sequence[GroupElement], avoidb: int) -> _Frame:
    shifts = [g.shift for g in gs]
    c0 = 1
    for s in shifts:
        c0 = c0 * abs(s) // math.gcd(c0, abs(s))
    q = 2 * k + 2
    for _ in range(60):
        q = _next_prime(q)
        if q % k != 1 % k:
            continue
        # the orders of the finitary parts can track c itself (and hence
        # q), so vary c as well as q when a divisor collision shows up
        for j in range(8):
            c = c0 * ((q + 2) // c0 + 1 + j)
            powers = tuple(-c // s for s in shifts)
            raised = [g ** p for g, p in zip(gs, powers)]
            orders = tuple(r.fin.order() for r in raised)
            if any(r % q == 0 for r in orders):
                continue
            m = max(
                [avoidb]
                + [g.eventual_bound() for g in gs]
                + [r.eventual_bound() for r in raised]
            )
            base = m + 2 * c + 9
            sigma = FinPerm.cycle(*range(base + 1, base + q + 1))
            return _Frame(k, q, c, base, sigma, powers, orders)
    raise ConstructError("could not find a usable frame")


def _nu_step(k: int) -> int:
    """The step e with which nu acts on the frame block, as sigma^e.

    Read where h becomes t^k, the frame's 3-cycle T0 is (P+e-q, P, P+e),
    P the last point of the block's translate by c.  Its gaps q-e and e
    are coprime because q is prime and 0 < e < q, so gcd_criterion closes
    G_1 on T0.  With e = 2, P and P+2 are adjacent on one orbit of t^2,
    and P+2-q lies on the other because q is odd, so g2_seed closes G_2
    on T0.  k = 1 and 2 therefore take e = 2 and need no search.  For
    k >= 3 the walk takes e = k+1: nu acts on each block as a step-(k+1)
    circulant, so tracked points stay at least k+1 apart and aligned
    escape anchors exist.
    """
    return 2 if k <= 2 else k + 1


def _derive_t0(b: _Builder, q: int, c: int, k: int) -> GroupElement:
    """Derive the frame's 3-cycle T0 from h and nu, both bound in b.

    The translate of nu by c + q - 1 meets supp(nu) in a single point,
    so conjugating nu by it renames that point and the quotient with nu
    is a 3-cycle.
    """
    d0 = c + q - 1
    if d0 % k:
        raise ConstructError("internal: first translate is not a multiple of k")
    b.derive("A0", [("h", -d0 // k), ("nu", 1), ("h", d0 // k)])
    b.derive("s0", [("A0", -1), ("nu", 1), ("A0", 1)])
    t0 = b.derive("T0", [("nu", 1), ("s0", -1)])
    if t0.shift != 0 or not t0.fin.is_three_cycle():
        raise ConstructError("internal: overlap step did not give a 3-cycle")
    return t0


def _nonalt_certificates(
    frame: _Frame, w: FinPerm, gs: Sequence[GroupElement]
) -> Tuple[PositiveCertificate, ...]:
    """Certificates that h = make_s(w, k) generates G_k with each g in gs.

    Each one derives z = g^p h^(c/k), its power mu and the power nu of mu
    that acts as sigma^e, e = _nu_step(k), on the frame block and as its
    inverse on the block's translate by c, whatever g is.  Every later
    step depends on h and nu alone, so it is derived once and appended to
    each certificate with its values: the 3-cycle T0, then for k = 1 and 2
    the axiom gcd_criterion or g2_seed on T0 itself, and for k >= 3 the
    walk and the alt_basis axiom.
    """
    k, q, c = frame.k, frame.q, frame.c
    sigma = frame.sigma
    e = _nu_step(k)
    nu = finitary(sigma ** e * (sigma ** -e).translate(c))
    h = make_s(w, k)
    shared = _Builder(G(k), {"h": h, "nu": nu})
    _derive_t0(shared, q, c, k)
    if k <= 2:
        shared.axiom(_CLOSING_AXIOM[k], {"cycle": "T0", "s": "h"})
    else:
        b0 = frame.base + 3 * c
        names = _nonalt_walk(_NuMoves(shared, frame, w), b0)
        shared.axiom("alt_basis", {"step": "h", "base": b0, "c": k, "cycles": names})
    out = []
    for g, power, order in zip(gs, frame.powers, frame.orders):
        b = _Builder(G(k), {"g": g, "h": h})
        b.derive("z", [("g", power), ("h", c // k)])
        b.derive("mu", [("z", order)])
        b.expect("mu", finitary((sigma ** order) * (sigma ** (-order)).translate(c)))
        exp = (e * pow(order % q, -1, q)) % q
        b.derive("nu", [("mu", exp)])
        b.extend(shared)
        out.append(b.finish())
    return tuple(out)


def _translates(nu: FinPerm, w: FinPerm) -> Callable[[int], FinPerm]:
    """delta -> nu conjugated by h^(delta/k), h = make_s(w, k), without a
    power of h: h^n = w^-1 t^(kn) w moves each x to ((x)w^-1 + kn)w."""
    pulled = nu.conjugate(w.inverse())
    return lambda delta: pulled.translate(delta).conjugate(w)


class _NuMoves:
    """Conjugations of tracked 3-cycles by the h-translates of nu, recorded
    in a builder.

    A move (delta, e) conjugates a cycle by the e-th power of the
    translate of nu by delta, which must meet the cycle's support in
    exactly the moving point; each translate permutes its two q-point
    blocks transitively.  Every translate is named once, on first use.
    """

    def __init__(self, b: _Builder, frame: _Frame, w: FinPerm):
        self.b = b
        self.frame = frame
        self.translate = _translates(b.env["nu"].fin, w)
        # per delta: the h-translate of nu, its support and its inverse
        self.vcache: Dict[int, Tuple[FinPerm, frozenset, FinPerm]] = {}
        # per point: every move (support, delta, image, preimage) in search order
        self.moves_at: Dict[int, List[Tuple[frozenset, int, int, int]]] = {}
        self.names_by_delta = {0: "nu"}
        self.named = [0]  # the deltas in names_by_delta, sorted
        self.cycles = 0  # the 3-cycles T1, T2, ... derived so far

    def translate_of_nu(self, delta: int) -> Tuple[FinPerm, frozenset, FinPerm]:
        if delta not in self.vcache:
            val = self.translate(delta)
            self.vcache[delta] = (val, val.support, val.inverse())
        return self.vcache[delta]

    def conjugator_name(self, delta: int) -> str:
        # the conjugate by h^n of the nearest named translate (ties to the
        # smaller delta), so that the kernel raises h only to small powers
        named = self.named
        if delta not in self.names_by_delta:
            i = bisect_left(named, delta)
            near = min(named[max(i - 1, 0):i + 1], key=lambda d: (abs(delta - d), d))
            n = (delta - near) // self.frame.k
            name = "f%d" % (len(named) - 1)
            word = (("h", -n), (self.names_by_delta[near], 1), ("h", n))
            self.b.record(name, word, finitary(self.translate_of_nu(delta)[0]))
            self.names_by_delta[delta] = name
            named.insert(i, delta)
        return self.names_by_delta[delta]

    def neighbours(self, p: int, others: frozenset) -> Iterator[Tuple[int, int, int]]:
        """The moves (delta, e, next point) of p that miss the others."""
        if p not in self.moves_at:
            k, q, c, base = self.frame.k, self.frame.q, self.frame.c, self.frame.base
            moves = self.moves_at[p] = []
            for blockstart in (base + 1, base + c + 1):
                # only deltas that are multiples of k, in ascending u
                for u in range((p - blockstart) % k, q, k):
                    delta = p - (blockstart + u)
                    # h relabels t^k by frame.sigma (times a permutation far
                    # below it in a mixed pair) and p lies above both, so
                    # h^(delta/k) carries the block onto a set that holds p
                    val, supp, inv = self.translate_of_nu(delta)
                    moves.append((supp, delta, val.apply(p), inv.apply(p)))
        for supp, delta, image, preimage in self.moves_at[p]:
            if supp.isdisjoint(others):
                yield delta, 1, image
                yield delta, -1, preimage

    def conjugate(self, src: str, carrier: str, e: int) -> str:
        """Derive the next T<n> as src conjugated by carrier^e."""
        self.cycles += 1
        name = "T%d" % self.cycles
        self.b.derive(name, [(carrier, -e), (src, 1), (carrier, e)])
        return name


def _nonalt_walk(moves: _NuMoves, b0: int) -> List[str]:
    """Derive the 3-cycles (b0+1, b0+2, b0+j) for j = 3..k+2.

    A breadth-first search over single-point moves can place a cycle on
    any three well-separated points.  The adjacent pinned cycles the
    axiom needs are then assembled by conjugation: a spread cycle
    through one pin is conjugated by spread cycles that drag the loose
    points onto the other pin and the sweep positions.
    """
    b, frame = moves.b, moves.frame
    k, q, c, base = frame.k, frame.q, frame.c, frame.base
    spread = c + q + 5
    far = [b0 + (i + 2) * spread for i in range(3)]
    lo = base + q + 1
    hi = far[-1] + c + q + 5

    def build_cycle(targets: Sequence[int]) -> str:
        """Walk a fresh copy of T0 onto the three target points."""
        cur_name = "T0"
        tracked = sorted(b.env["T0"].fin.support)
        goals = sorted(targets)
        for idx in (2, 1, 0):
            others = frozenset(v for i, v in enumerate(tracked) if i != idx)
            for delta, e in _point_walk(tracked[idx], goals[idx], others, moves.neighbours, lo, hi):
                cur_name = moves.conjugate(cur_name, moves.conjugator_name(delta), e)
            tracked[idx] = goals[idx]
        val = b.env[cur_name]
        if val.shift != 0 or val.fin.support != frozenset(targets):
            raise ConstructError("internal: walk lost the tracked cycle")
        return cur_name

    def drag(src_name: str, mover: int, carrier_name: str, dest: int) -> str:
        """Conjugate so the mover point of src lands on dest."""
        e = 1 if b.env[carrier_name].apply(mover) == dest else -1
        return moves.conjugate(src_name, carrier_name, e)

    a_name = build_cycle([b0 + 1, far[0], far[1]])
    y_name = build_cycle([b0 + 2, far[0], far[2]])
    a2_name = drag(a_name, far[0], y_name, b0 + 2)
    if b.env[a2_name].fin.support != frozenset({b0 + 1, b0 + 2, far[1]}):
        raise ConstructError("internal: pin assembly failed")
    names: List[str] = []
    for j in range(3, k + 3):
        yj_name = build_cycle([b0 + j, far[1], far[2]])
        cj_name = drag(a2_name, far[1], yj_name, b0 + j)
        val = b.env[cj_name]
        if val.shift != 0 or val.fin.support != frozenset(
            {b0 + 1, b0 + 2, b0 + j}
        ):
            raise ConstructError("internal: sweep assembly failed")
        b.pin(cj_name)
        names.append(cj_name)
    return names


# -- common partners -------------------------------------------------------------


@dataclass
class PartnerResult:
    h: GroupElement  # conjugator^-1 t^k conjugator
    conjugator: FinPerm
    certificates: Tuple[PositiveCertificate, ...]


def common_partner(k: int, gs: Sequence[GroupElement]) -> PartnerResult:
    """One h in the class of t^k generating G_k with each member of gs.

    The finitary members, taken once up to inversion, are laid out on the
    orbit positions of h by the first of _layouts that seals them all; a
    3-cycle closes on itself there, any other member on its chain.  They
    need k = 1 or 2.  The non-finitary members get one frame beyond that
    layout.  h relabels t^k by the frame's cycle times the layout's
    relabelling.  The certificates follow the order of gs, and each is
    verified.
    """
    if k < 1:
        raise ConstructError("need k >= 1")
    gs = list(gs)
    if not gs:
        raise ConstructError("need at least one element")
    grp = G(k)
    reps: List[FinPerm] = []
    for g in gs:
        if not member(g, grp) or g.is_identity():
            raise ConstructError("element %s is not a nontrivial member of G_%d" % (g, k))
        if g.shift == 0 and not any(g.fin == r or g.fin == r.inverse() for r in reps):
            reps.append(g.fin)
    nonfin = [g for g in gs if g.shift]
    omega, pos = FinPerm(), {}
    if reps:
        if k > 2:
            raise ConstructError("finitary members need k = 1 or 2, not %d" % k)
        pos = next((p for p in _layouts(reps) if all(_layout_ok(s, p, k) for s in reps)), None)
        if pos is None:
            raise ConstructError("no relabelling found for the finitary members")
        omega = _relabel(pos)
    conjugator = omega
    if nonfin:
        # h = omega^-1 s omega for the frame's relabelled t^k s, so the frame
        # is sized for omega g omega^-1 and lies beyond every point that
        # omega or a finitary member moves
        w = finitary(omega)
        avoidb = max(
            [g.eventual_bound() for g in nonfin]
            + [abs(p) for p in omega.support | set(pos)]
        )
        frame = _nonalt_frame(k, [w * g * w.inverse() for g in nonfin], avoidb)
        conjugator = frame.sigma * omega
    h = make_s(conjugator, k)
    err = walk_error([h])
    if err:
        raise ConstructError("the partner passes the kernel's walk limits: %s" % err)
    framed = iter(_nonalt_certificates(frame, conjugator, nonfin) if nonfin else ())
    certs = []
    for g in gs:
        if g.shift:
            certs.append(next(framed))
            continue
        rep = next(r for r in reps if g.fin == r or g.fin == r.inverse())
        b = _Builder(grp, {"g": g, "h": h})
        seed = "g"
        if g.fin != rep:
            seed = "gg"
            b.derive(seed, [("g", -1)])
        certs.append(_seal(b, seed, {p: pos[p] for p in rep.support}, k))
    return PartnerResult(h, conjugator, tuple(certs))


@dataclass
class PartnerAltResult:
    omega: FinPerm
    h: GroupElement
    transcript: ConstructionTranscript  # named holds the generators g and h


def _partner_alt(k: int, sigma: FinPerm) -> PartnerAltResult:
    if not isinstance(sigma, FinPerm):
        raise ConstructError("need a finitary permutation")
    res = common_partner(k, [finitary(sigma)])
    (cert,) = res.certificates
    return PartnerAltResult(
        res.conjugator, res.h, ConstructionTranscript(dict(cert.generators), cert)
    )


def partner_alt_g1(sigma: FinPerm) -> PartnerAltResult:
    """An even finitary omega with <sigma, s_omega> = G_1, certified."""
    return _partner_alt(1, sigma)


def partner_alt_g2(sigma: FinPerm) -> PartnerAltResult:
    """An even finitary omega with <sigma, s_omega^2> = G_2, certified."""
    return _partner_alt(2, sigma)


def partner_nonalt(k: int, gs: Sequence[GroupElement]) -> PartnerResult:
    """One h of class [t^k] generating G_k with each g_i, all non-finitary."""
    gs = list(gs)
    for g in gs:
        if g.shift == 0:
            raise ConstructError("element %s is finitary" % g)
    return common_partner(k, gs)


def pair_partner_g1(g1: GroupElement, g2: GroupElement) -> PartnerResult:
    """One h in [t] with <g1, h> = <g2, h> = G_1, both certified."""
    return common_partner(1, [g1, g2])


def pair_partner_g2(g1: GroupElement, g2: GroupElement) -> PartnerResult:
    """One h in [t^2] with <g1, h> = <g2, h> = G_2, both certified."""
    return common_partner(2, [g1, g2])


# -- support parity reduction ----------------------------------------------------


@dataclass
class ReduceTranscript:
    steps: Tuple[Tuple[str, object], ...]
    result: FinPerm


def evens_odds_reduce(sigma_star: GroupElement, omega: FinPerm) -> ReduceTranscript:
    """One conjugation round lowering |supp ∩ 2Z| of omega by exactly one.

    sigma_star must send 0 to an odd point and every negative even point
    of the shifted support to an even point.
    """
    if not isinstance(omega, FinPerm) or not omega.is_even():
        raise ConstructError("omega must be an even finitary permutation")
    evens = sorted(p for p in omega.support if p % 2 == 0)
    if not evens:
        raise ConstructError("omega has no even support points")
    if sigma_star.apply(0) % 2 == 0:
        raise ConstructError("sigma_star must send 0 to an odd point")
    # (i) translate so the largest even support point sits at 0
    j = evens[-1]
    om1 = omega.translate(-j)
    steps: List[Tuple[str, object]] = [("conjugate by t^%d" % (-j), om1)]
    for p in om1.support:
        if p % 2 == 0 and p < 0 and sigma_star.apply(p) % 2:
            raise ConstructError("sigma_star sends the negative even %d to an odd point" % p)
    # (ii) move odd support points off the moving set of sigma_star
    moving = sorted(p for p in om1.support if p % 2 and sigma_star.apply(p) != p)
    far = max(
        [abs(p) for p in om1.support]
        + [sigma_star.eventual_bound(), 1]
    )
    far += far % 2 + 1  # first odd beyond the window
    pairs = []
    tgt = far
    for p in moving:
        pairs.append((p, tgt))
        tgt += 2
    if len(pairs) % 2:
        pairs.append((tgt, tgt + 2))
    pi = FinPerm.from_cycles(pairs)
    om2 = om1.conjugate(pi)
    steps.append(("conjugate by the odd-support shuffle %s" % pi, om2))
    # (iii) conjugate by sigma_star itself
    out = finitary(om2).conjugate(sigma_star)
    if out.shift != 0:
        raise ConstructError("internal: conjugate is not finitary")
    om3 = out.fin
    steps.append(("conjugate by sigma_star", om3))
    before = sum(1 for p in om2.support if p % 2 == 0)
    after = sum(1 for p in om3.support if p % 2 == 0)
    if after != before - 1:
        raise ConstructError("even support count did not drop by one")
    return ReduceTranscript(tuple(steps), om3)
