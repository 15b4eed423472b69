"""Constructions that produce generation certificates.

Every function here builds concrete group elements together with a
certificate whose steps re-derive those elements from the declared
generators.  Construction code is free to be clever; the certificate
checker in ``certs`` re-validates everything independently, so a bug in
this module can only cause a raised ``ConstructError`` or a rejected
certificate, never a wrongly accepted one.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .perm import FinPerm, PermError
from .elem import (
    ElemError,
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
from .orbits import decompose
from .certs import (
    Axiom,
    CheckEqual,
    Derive,
    NegativeCertificate,
    PositiveCertificate,
    Word,
    eval_word,
    verify,
    verify_positive,
)


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
        val = eval_word(self.env, w)
        if name in self.env:
            raise ConstructError("name %r already used" % name)
        self.env[name] = val
        self.steps.append(Derive(name, w))
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


def _walk_point(
    orient: Tuple[int, int, int],
    start: int,
    target: int,
    others: frozenset,
    lo: int,
    hi: int,
) -> List[Tuple[int, int]]:
    """Moves (m, e) walking a point from start to target.

    Each move conjugates the tracked cycle by (the e-th power of) the
    oriented 3-cycle ``orient`` translated by m; the other tracked points
    must stay outside the translated support.
    """
    if start == target:
        return []
    u = orient
    seen = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(3):
                m = p - u[i]
                anchors = (u[0] + m, u[1] + m, u[2] + m)
                if any(a in others for a in anchors):
                    continue
                for e in (1, -1):
                    p2 = u[(i + e) % 3] + m
                    if p2 < lo or p2 > hi or p2 in seen:
                        continue
                    seen[p2] = (p, m, e)
                    if p2 == target:
                        moves = []
                        cur = p2
                        while seen[cur] is not None:
                            prev, mm, ee = seen[cur]
                            moves.append((mm, ee))
                            cur = prev
                        moves.reverse()
                        return moves
                    nxt.append(p2)
        frontier = nxt
    raise ConstructError(
        "no conjugation walk from %d to %d" % (start, target)
    )


def _reduction_moves(
    orient: Tuple[int, int, int],
    tracked: Dict[str, int],
    plans: Sequence[Tuple[str, int]],
    margin: int,
) -> List[Tuple[int, int]]:
    pts = list(tracked.values()) + [tgt for _, tgt in plans]
    lo = min(pts) - margin
    hi = max(pts) + margin
    moves: List[Tuple[int, int]] = []
    for pid, tgt in plans:
        others = frozenset(v for k, v in tracked.items() if k != pid)
        moves.extend(_walk_point(orient, tracked[pid], tgt, others, lo, hi))
        tracked[pid] = tgt
    return moves


def _conjugation_word(
    seed: Sequence[Tuple[str, int]],
    moves: Sequence[Tuple[int, int]],
    cyc_name: str,
    trans_name: str,
) -> Word:
    """seed conjugated by the product of translated cycle powers."""
    w: List[Tuple[str, int]] = []
    for m, e in moves:
        w.extend([(trans_name, -m), (cyc_name, e), (trans_name, m)])
    return _merge_word(_inv_word(w) + tuple(seed) + tuple(w))


# -- gcd criterion ------------------------------------------------------------


def euclid_word(d1: int, d2: int) -> Word:
    """A word in c = (-d1 0 d2) and s = t evaluating to exactly (-1 0 1).

    Requires d1, d2 >= 1 and gcd(d1, d2) = 1.
    """
    if d1 < 1 or d2 < 1:
        raise ConstructError("gaps must be positive")
    if math.gcd(d1, d2) != 1:
        raise ConstructError("gaps %d, %d are not coprime" % (d1, d2))
    orient = (-d1, 0, d2)
    tracked = {"A": -d1, "B": 0, "C": d2}
    moves = _reduction_moves(orient, tracked, [("A", -1), ("C", 1)], 3 * (d1 + d2) + 5)
    word = _conjugation_word((("c", 1),), moves, "c", "s")
    env = {"c": finitary(FinPerm.cycle(-d1, 0, d2)), "s": t(1)}
    if eval_word(env, word) != finitary(FinPerm.cycle(-1, 0, 1)):
        raise ConstructError("internal: reduction word does not evaluate to (-1 0 1)")
    if len(word) > 6 * (d1 + d2):
        raise ConstructError("internal: reduction word too long")
    return word


@dataclass
class GcdTestResult:
    d1: int
    d2: int
    gcd: int
    verdict: str  # "positive" or "negative"
    certificate: object


def _oriented_triple(el: GroupElement, rel: Dict[int, int]) -> Tuple[int, int, int]:
    """The 3-cycle el written in relabelled coordinates, as an oriented triple."""
    pts = sorted(el.fin.support)
    x = pts[0]
    y = el.apply(x)
    z = el.apply(y)
    return (rel[x], rel[y], rel[z])


def gcd_test(cycle: FinPerm, s: GroupElement) -> GcdTestResult:
    """Decide whether a 3-cycle and a relabelled translation generate G_1.

    The verdict depends only on the gcd of the gaps between the cycle's
    points measured along the single orbit of s.
    """
    if not cycle.is_three_cycle():
        raise ConstructError("criterion inapplicable: not a 3-cycle")
    w = in_class_tk(s, 1)
    if w is None:
        raise ConstructError(
            "criterion inapplicable: s is not conjugate to t or t^-1"
        )
    pts = tuple(sorted(cycle.support))
    try:
        rel = class_tk_relabel(s, w, pts)
    except ElemError as exc:
        raise ConstructError("point off the orbit of s: %s" % exc) from exc
    q0, q1, q2 = sorted(rel[p] for p in pts)
    d1, d2 = q1 - q0, q2 - q1
    g = math.gcd(d1, d2)
    gens = {"a": finitary(cycle), "s": s}
    if g > 1:
        neg = NegativeCertificate(
            G(1), gens, "block_system", {"relabel": str(s), "modulus": g}
        )
        res = verify(neg)
        if not res.ok:
            raise ConstructError("block system certificate failed: %s" % res.reason)
        return GcdTestResult(d1, d2, g, "negative", neg)
    b = _Builder(G(1), gens)
    # centre the middle point of the cycle at relabelled position 0
    b.derive("c0", [("s", q1), ("a", 1), ("s", -q1)])
    c0 = b.env["c0"]
    rel0 = class_tk_relabel(s, w, tuple(sorted(c0.fin.support)))
    orient = _oriented_triple(c0, rel0)
    tracked = {pos: pos for pos in (-d1, 0, d2)}
    moves = _reduction_moves(
        orient, tracked, [(-d1, -1), (d2, 1)], 3 * (d1 + d2) + 5
    )
    b.derive("r", _conjugation_word((("c0", 1),), moves, "c0", "s"))
    rv = b.env["r"]
    if rv.shift != 0 or not rv.fin.is_three_cycle():
        raise ConstructError("internal: reduced element is not a 3-cycle")
    b.pin("r")
    b.axiom("gcd_criterion", {"cycle": "r", "s": "s"})
    return GcdTestResult(d1, d2, 1, "positive", b.finish())


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
    from itertools import combinations

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


# -- canonical relabellings ----------------------------------------------------


def _complete_map(partial: Dict[int, int]) -> FinPerm:
    """Extend a partial injection to an even finitary permutation.

    Unassigned points of the combined domain/image set are matched in
    ascending order; parity is fixed with a faraway transposition.
    """
    dom = set(partial)
    img = set(partial.values())
    if len(img) != len(dom):
        raise ConstructError("partial map is not injective")
    carrier = dom | img
    rest_dom = sorted(carrier - dom)
    rest_img = sorted(carrier - img)
    mapping = dict(partial)
    for x, y in zip(rest_dom, rest_img):
        mapping[x] = y
    perm = FinPerm({x: y for x, y in mapping.items() if x != y})
    if not perm.is_even():
        far = max(carrier | {0}) + 2
        perm = perm * FinPerm.cycle(far, far + 1)
    return perm


def _relabel(partial: Dict[int, int]) -> FinPerm:
    """An even omega whose inverse extends the point -> slot assignment.

    Under h = make_s(omega, k) the orbit coordinate of a point p is
    omega^{-1}(p), so slot plans are realised by inverting the completed
    assignment.
    """
    return _complete_map(partial).inverse()


def _positions(omega: FinPerm, points) -> Dict[int, int]:
    inv = omega.inverse()
    return {p: inv.apply(p) for p in points}


# -- single finitary partners --------------------------------------------------


@dataclass
class PartnerAltResult:
    omega: FinPerm
    h: GroupElement
    transcript: ConstructionTranscript


def _chain_g1(
    b: _Builder,
    seed_name: str,
    sigma: FinPerm,
    pos: Dict[int, int],
) -> str:
    """Overlap-trick chain turning a finitary seed into a coprime 3-cycle.

    Conjugating the seed by its own translate that meets the seed's
    support only at the top point replaces that point, and multiplying
    by the inverse leaves a 3-cycle whose orbit-index gaps are coprime.
    Returns the name of the derived 3-cycle.
    """
    vals = sorted(pos.values())
    delta = vals[-1] - vals[0]
    if delta < 1:
        raise ConstructError("degenerate support")
    b.derive(seed_name + "_a", [("h", -delta), (seed_name, 1), ("h", delta)])
    b.derive(
        seed_name + "_p",
        [(seed_name + "_a", -1), (seed_name, 1), (seed_name + "_a", 1)],
    )
    b.derive(seed_name + "_r", [(seed_name, 1), (seed_name + "_p", -1)])
    rv = b.env[seed_name + "_r"]
    if rv.shift != 0 or not rv.fin.is_three_cycle():
        raise ConstructError("chain did not produce a 3-cycle")
    b.pin(seed_name + "_r")
    return seed_name + "_r"


def _g1_gaps(sigma: FinPerm, pos: Dict[int, int]) -> Tuple[int, int]:
    """Orbit-index gaps of the 3-cycle the overlap chain will produce."""
    top = max(pos, key=lambda p: pos[p])
    bot = min(pos, key=lambda p: pos[p])
    a = pos[sigma.inverse().apply(top)]
    y = pos[top]
    m = pos[sigma.apply(bot)] + (y - pos[bot])
    return (y - a, m - y)


def _g1_chain_ok(sigma: FinPerm, pos: Dict[int, int]) -> bool:
    ga, gb = _g1_gaps(sigma, pos)
    return math.gcd(ga, gb) == 1


def partner_alt_g1(sigma: FinPerm) -> PartnerAltResult:
    """An even finitary omega with <sigma, s_omega> = G_1, certified."""
    if not isinstance(sigma, FinPerm) or sigma.is_identity():
        raise ConstructError("need a nontrivial finitary permutation")
    if not sigma.is_even():
        raise ConstructError("need an even permutation")
    supp = sorted(sigma.support)
    top = supp[-1]
    pred = sigma.inverse().apply(top)
    others = [p for p in supp if p not in (top, pred)]
    partial = {p: i for i, p in enumerate(others)}
    partial[pred] = len(supp) - 2
    partial[top] = len(supp) - 1
    omega = _relabel(partial)
    h = make_s(omega, 1)
    pos = _positions(omega, supp)
    if not _g1_chain_ok(sigma, pos):
        raise ConstructError("internal: canonical relabelling gaps not coprime")
    b = _Builder(G(1), {"g": finitary(sigma), "h": h})
    rname = _chain_g1(b, "g", sigma, pos)
    b.axiom("gcd_criterion", {"cycle": rname, "s": "h"})
    cert = b.finish()
    return PartnerAltResult(omega, h, ConstructionTranscript(dict(b.env), cert))


def _chain_g2(
    b: _Builder,
    seed_name: str,
    sigma: FinPerm,
    pos: Dict[int, int],
) -> str:
    """Overlap-trick chain for G_2; the translate moves by h-powers (2Z)."""
    vals = sorted(pos.values())
    delta = vals[-1] - vals[0]
    if delta % 2 or delta < 2:
        raise ConstructError("span must be a positive even number")
    b.derive(seed_name + "_a", [("h", -delta // 2), (seed_name, 1), ("h", delta // 2)])
    b.derive(
        seed_name + "_p",
        [(seed_name + "_a", -1), (seed_name, 1), (seed_name + "_a", 1)],
    )
    b.derive(seed_name + "_r", [(seed_name, 1), (seed_name + "_p", -1)])
    rv = b.env[seed_name + "_r"]
    if rv.shift != 0 or not rv.fin.is_three_cycle():
        raise ConstructError("chain did not produce a 3-cycle")
    b.pin(seed_name + "_r")
    return seed_name + "_r"


def _seed_pattern_ok(pts: Sequence[int]) -> bool:
    evens = [p for p in pts if p % 2 == 0]
    odds = [p for p in pts if p % 2]
    pair, lone = (evens, odds) if len(evens) == 2 else (odds, evens)
    return len(pair) == 2 and len(lone) == 1 and abs(pair[0] - pair[1]) == 2


def _g2_points(sigma: FinPerm, pos: Dict[int, int]) -> Tuple[int, int, int]:
    top = max(pos, key=lambda p: pos[p])
    bot = min(pos, key=lambda p: pos[p])
    a = pos[sigma.inverse().apply(top)]
    y = pos[top]
    m = pos[sigma.apply(bot)] + (y - pos[bot])
    return (a, y, m)


def _g2_chain_ok(sigma: FinPerm, pos: Dict[int, int]) -> bool:
    vals = sorted(pos.values())
    if (vals[-1] - vals[0]) % 2:
        return False
    return _seed_pattern_ok(_g2_points(sigma, pos))


def partner_alt_g2(sigma: FinPerm) -> PartnerAltResult:
    """An even finitary omega with <sigma, s_omega^2> = G_2, certified."""
    if not isinstance(sigma, FinPerm) or sigma.is_identity():
        raise ConstructError("need a nontrivial finitary permutation")
    if not sigma.is_even():
        raise ConstructError("need an even permutation")
    supp = sorted(sigma.support)
    if len(supp) == 3:
        # a 3-cycle relabelled onto {0, 1, 2} is itself a usable seed
        omega = _relabel({p: i for i, p in enumerate(supp)})
        h = make_s(omega, 2)
        b = _Builder(G(2), {"g": finitary(sigma), "h": h})
        b.axiom("g2_seed", {"cycle": "g", "s": "h"})
        cert = b.finish()
        return PartnerAltResult(omega, h, ConstructionTranscript(dict(b.env), cert))
    partial = _g2_single_partial(sigma)
    omega = _relabel(partial)
    h = make_s(omega, 2)
    pos = _positions(omega, supp)
    if not _g2_chain_ok(sigma, pos):
        raise ConstructError("internal: relabelling does not give a seed pattern")
    b = _Builder(G(2), {"g": finitary(sigma), "h": h})
    rname = _chain_g2(b, "g", sigma, pos)
    b.axiom("g2_seed", {"cycle": rname, "s": "h"})
    cert = b.finish()
    return PartnerAltResult(omega, h, ConstructionTranscript(dict(b.env), cert))


def _g2_designations(sigma: FinPerm):
    supp = sorted(sigma.support)
    for q in supp:
        qg = sigma.apply(q)
        for p in supp:
            pred = sigma.inverse().apply(p)
            if len({q, qg, pred, p}) < 4:
                continue
            others = [x for x in supp if x not in (q, qg, pred, p)]
            partial = {q: 0, qg: 2, pred: 1}
            slot = 3
            for x in others:
                partial[x] = slot
                slot += 1
            partial[p] = slot if slot % 2 == 0 else slot + 1
            yield partial


def _g2_single_partial(sigma: FinPerm) -> Dict[int, int]:
    for partial in _g2_designations(sigma):
        return partial
    raise ConstructError("no usable designation for the seed relabelling")


# -- partners for non-finitary elements ----------------------------------------


def _avoid_bound(avoid) -> int:
    if avoid is None:
        return 0
    if isinstance(avoid, int):
        return abs(avoid)
    if isinstance(avoid, FinPerm):
        return max((abs(p) for p in avoid.support), default=0)
    raise ConstructError("avoid must be an int bound or a FinPerm")


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
            fins = [(g ** p).fin for g, p in zip(gs, powers)]
            orders = tuple(f.order() for f in fins)
            if any(r % q == 0 for r in orders):
                continue
            m = max(
                [avoidb]
                + [g.eventual_bound() for g in gs]
                + [(g ** p).eventual_bound() for g, p in zip(gs, powers)]
            )
            base = m + 2 * c + 9
            sigma = FinPerm.cycle(*range(base + 1, base + q + 1))
            return _Frame(k, q, c, base, sigma, powers, orders)
    raise ConstructError("could not find a usable frame")


def _nonalt_certificate(
    frame: _Frame,
    g: GroupElement,
    h: GroupElement,
    power: int,
    order: int,
) -> PositiveCertificate:
    k, q, c, base = frame.k, frame.q, frame.c, frame.base
    sigma = frame.sigma
    b = _Builder(G(k), {"g": g, "h": h})
    b.derive("z", [("g", power), ("h", c // k)])
    b.derive("mu", [("z", order)])
    predicted = finitary((sigma ** order) * (sigma ** (-order)).translate(c))
    b.expect("mu", predicted)
    # nu acts on each q-point block as a step-(k+1) circulant, so tracked
    # points stay at least k+1 apart and aligned escape anchors exist
    exp = ((k + 1) * pow(order % q, -1, q)) % q
    b.derive("nu", [("mu", exp)])
    # the translate of nu by c + q - 1 meets supp(nu) in a single point,
    # so conjugating nu by it renames that point and the quotient with nu
    # is a 3-cycle
    d0 = c + q - 1
    if d0 % k:
        raise ConstructError("internal: first translate is not a multiple of k")
    b.derive("A0", [("h", -d0 // k), ("nu", 1), ("h", d0 // k)])
    b.derive("s0", [("A0", -1), ("nu", 1), ("A0", 1)])
    b.derive("T0", [("nu", 1), ("s0", -1)])
    t0 = b.env["T0"]
    if t0.shift != 0 or not t0.fin.is_three_cycle():
        raise ConstructError("internal: overlap step did not give a 3-cycle")
    b0 = base + 3 * c
    names = _nonalt_walk(b, frame, h, b0)
    b.axiom("alt_basis", {"step": "h", "base": b0, "c": k, "cycles": names})
    return b.finish()


def _nonalt_walk(
    b: _Builder, frame: _Frame, h: GroupElement, b0: int
) -> List[str]:
    """Derive the 3-cycles (b0+1, b0+2, b0+j) for j = 3..k+2.

    A move conjugates a tracked 3-cycle by an h-translate of nu, which
    must meet the cycle's support in exactly the moving point; each
    translate permutes its two q-point blocks transitively, so a
    breadth-first search over single-point moves can place a cycle on
    any three well-separated points.  The adjacent pinned cycles the
    axiom needs are then assembled by conjugation: a spread cycle
    through one pin is conjugated by spread cycles that drag the loose
    points onto the other pin and the sweep positions.
    """
    k, q, c, base = frame.k, frame.q, frame.c, frame.base
    nu = b.env["nu"]
    # per delta: the support of the h-translate of nu, its map and inverse map
    vcache: Dict[int, Tuple[frozenset, Dict[int, int], Dict[int, int]]] = {}
    names_by_delta: Dict[int, str] = {}
    fcount = [0]

    def translate_of_nu(delta: int) -> Tuple[frozenset, Dict[int, int], Dict[int, int]]:
        if delta not in vcache:
            val = nu.conjugate(h ** (delta // k))
            supp = val.fin.support
            fwd = {x: val.apply(x) for x in supp}
            vcache[delta] = (supp, fwd, {y: x for x, y in fwd.items()})
        return vcache[delta]

    def conjugator_name(delta: int) -> str:
        if delta not in names_by_delta:
            name = "f%d" % fcount[0]
            fcount[0] += 1
            b.derive(name, [("h", -delta // k), ("nu", 1), ("h", delta // k)])
            names_by_delta[delta] = name
        return names_by_delta[delta]

    def neighbours(p: int, others: frozenset):
        for blockstart in (base + 1, base + c + 1):
            for u in range(q):
                delta = p - (blockstart + u)
                if delta % k:
                    continue
                supp, fwd, inv = translate_of_nu(delta)
                if p not in supp or not supp.isdisjoint(others):
                    continue
                yield (delta, 1, fwd[p])
                yield (delta, -1, inv[p])

    spread = c + q + 5
    far = [b0 + (i + 2) * spread for i in range(3)]
    lo = base + q + 1
    hi = far[-1] + c + q + 5

    def walk(start: int, target: int, others: frozenset):
        if start == target:
            return []
        seen = {start: None}
        frontier = [start]
        while frontier:
            nxt = []
            for p in frontier:
                for delta, e, p2 in neighbours(p, others):
                    if p2 < lo or p2 > hi or p2 in seen:
                        continue
                    seen[p2] = (p, delta, e)
                    if p2 == target:
                        moves = []
                        cur = p2
                        while seen[cur] is not None:
                            prev, dd, ee = seen[cur]
                            moves.append((dd, ee))
                            cur = prev
                        moves.reverse()
                        return moves
                    nxt.append(p2)
            frontier = nxt
        raise ConstructError("no walk from %d to %d" % (start, target))

    tname = [0]

    def build_cycle(targets: Sequence[int]) -> str:
        """Walk a fresh copy of T0 onto the three target points."""
        cur_name = "T0"
        tracked = sorted(b.env["T0"].fin.support)
        goals = sorted(targets)
        for idx in (2, 1, 0):
            others = frozenset(v for i, v in enumerate(tracked) if i != idx)
            for delta, e in walk(tracked[idx], goals[idx], others):
                fname = conjugator_name(delta)
                tname[0] += 1
                nm = "T%d" % tname[0]
                b.derive(nm, [(fname, -e), (cur_name, 1), (fname, e)])
                cur_name = nm
            tracked[idx] = goals[idx]
        val = b.env[cur_name]
        if val.shift != 0 or val.fin.support != frozenset(targets):
            raise ConstructError("internal: walk lost the tracked cycle")
        return cur_name

    def drag(src_name: str, mover: int, carrier_name: str, dest: int) -> str:
        """Conjugate so the mover point of src lands on dest."""
        e = 1 if b.env[carrier_name].apply(mover) == dest else -1
        tname[0] += 1
        nm = "T%d" % tname[0]
        b.derive(nm, [(carrier_name, -e), (src_name, 1), (carrier_name, e)])
        return nm

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


@dataclass
class PartnerResult:
    h: GroupElement
    sigma: FinPerm
    certificates: Tuple[PositiveCertificate, ...]


def partner_nonalt(
    k: int, gs: Sequence[GroupElement], avoid=None
) -> PartnerResult:
    """One element h = s_sigma^k of class [t^k] generating G_k with each g_i.

    Every g_i must be a non-finitary member of G_k.  The support of the
    conjugating cycle sigma avoids the window described by ``avoid``.
    """
    if k < 1:
        raise ConstructError("need k >= 1")
    gs = list(gs)
    if not gs:
        raise ConstructError("need at least one element")
    for g in gs:
        if not member(g, G(k)):
            raise ConstructError("element %s is not in G_%d" % (g, k))
        if g.shift == 0:
            raise ConstructError("element %s is finitary" % g)
    avoidb = _avoid_bound(avoid)
    frame = _nonalt_frame(k, gs, avoidb)
    h = make_s(frame.sigma, k)
    if in_class_tk(h, k) is None:
        raise ConstructError("internal: partner is not in class [t^k]")
    certs = tuple(
        _nonalt_certificate(frame, g, h, p, r)
        for g, p, r in zip(gs, frame.powers, frame.orders)
    )
    return PartnerResult(h, frame.sigma, certs)


# -- partners for pairs ---------------------------------------------------------


@dataclass
class PairPartnerResult:
    h: GroupElement
    conjugator: FinPerm
    certificates: Tuple[PositiveCertificate, PositiveCertificate]


def _candidate_maps(s1: FinPerm, s2: FinPerm):
    """Candidate relabellings of the union support, best designs first."""
    import itertools
    import random

    u = sorted(s1.support | s2.support)
    n = len(u)
    yield {p: i for i, p in enumerate(u)}
    if n <= 6:
        for perm in itertools.permutations(range(n)):
            yield {p: perm[i] for i, p in enumerate(u)}
    # designed layouts: a chosen edge of each permutation sits on top
    for pm1 in sorted(s1.support):
        x1 = s1.inverse().apply(pm1)
        for pm2 in sorted(s2.support):
            x2 = s2.inverse().apply(pm2)
            if len({pm1, x1, pm2, x2}) < 4:
                continue
            rest = [p for p in u if p not in (pm1, x1, pm2, x2)]
            for order in ((x1, pm1, x2, pm2), (x2, pm2, x1, pm1)):
                lay = {p: i for i, p in enumerate(rest)}
                for j, p in enumerate(order):
                    lay[p] = len(rest) + j
                yield lay
    # random spread layouts; the wider slot range frees up parities
    rng = random.Random(20210 + n)
    for trial in range(20000):
        width = 2 * n + 4 if trial < 10000 else 3 * n + 9
        slots = rng.sample(range(width), n)
        yield {p: s for p, s in zip(u, slots)}


def _designed_layouts(sigma: FinPerm, k: int):
    supp = sorted(sigma.support)
    yield {p: i for i, p in enumerate(supp)}
    if k == 2 and len(supp) >= 4:
        yield from _g2_designations(sigma)


def _complete_pair_layout(sA: FinPerm, sB: FinPerm, ok, k: int, rng):
    """Design a full layout for sA, then solve for sB's free slots.

    Random joint layouts rarely satisfy both seed patterns when the two
    supports share points, so fix one element's layout by design and
    search only the slots still free for the other.
    """
    from itertools import permutations

    supp_b = sorted(sB.support)
    for partial_a in _designed_layouts(sA, k):
        if not ok(sA, dict(partial_a)):
            continue
        fixed = {p: partial_a[p] for p in supp_b if p in partial_a}
        free = [p for p in supp_b if p not in partial_a]
        used = set(partial_a.values())
        pool = [
            s
            for s in range(0, max(used) + 2 * len(free) + 13)
            if s not in used
        ]

        def check(assign):
            pos_b = dict(fixed)
            pos_b.update(assign)
            if ok(sB, pos_b):
                full = dict(partial_a)
                full.update(assign)
                return full
            return None

        if not free:
            full = check({})
            if full:
                return full
            continue
        if len(free) <= 2:
            for combo in permutations(pool, len(free)):
                full = check(dict(zip(free, combo)))
                if full:
                    return full
        else:
            for _ in range(4000):
                combo = rng.sample(pool, len(free))
                full = check(dict(zip(free, combo)))
                if full:
                    return full
    return None


def _pair_finitary_omega(s1: FinPerm, s2: FinPerm, ok, k: int) -> FinPerm:
    import random

    rng = random.Random(31100 + len(s1.support | s2.support))
    big, small = (s1, s2) if len(s1.support) >= len(s2.support) else (s2, s1)
    for a, b in ((big, small), (small, big)):
        partial = _complete_pair_layout(a, b, ok, k, rng)
        if partial is not None:
            return _relabel(partial)
    for partial in _candidate_maps(s1, s2):
        omega = _relabel(partial)
        pos1 = _positions(omega, sorted(s1.support))
        pos2 = _positions(omega, sorted(s2.support))
        if ok(s1, pos1) and ok(s2, pos2):
            return omega
    raise ConstructError("no relabelling found for the finitary pair")


def _pair_partner(k: int, g1: GroupElement, g2: GroupElement) -> PairPartnerResult:
    grp = G(k)
    chain = _chain_g1 if k == 1 else _chain_g2
    chain_ok = _g1_chain_ok if k == 1 else _g2_chain_ok
    single = partner_alt_g1 if k == 1 else partner_alt_g2

    def seal(b: _Builder, rname: str) -> None:
        if k == 1:
            b.axiom("gcd_criterion", {"cycle": rname, "s": "h"})
        else:
            b.axiom("g2_seed", {"cycle": rname, "s": "h"})

    for g in (g1, g2):
        if not member(g, grp) or g.is_identity():
            raise ConstructError("both elements must be nontrivial members of G_%d" % k)

    fin1, fin2 = g1.shift == 0, g2.shift == 0
    if fin1 and fin2:
        s1, s2 = g1.fin, g2.fin
        if s2 == s1 or s2 == s1.inverse():
            # reuse the first chain; derive the first element if inverted
            res = single(s1)
            omega, h = res.omega, res.h
            certs = []
            for g, inverted in ((g1, False), (g2, s2 != s1)):
                b = _Builder(grp, {"g": g, "h": h})
                seed = "g"
                if inverted:
                    b.derive("gg", [("g", -1)])
                    seed = "gg"
                sig = g.fin.inverse() if inverted else g.fin
                pos = _positions(omega, sorted(sig.support))
                if len(sig.support) == 3 and k == 2:
                    if seed != "g":
                        b.pin(seed)
                    seal(b, seed)
                else:
                    seal(b, chain(b, seed, sig, pos))
                certs.append(b.finish())
            return PairPartnerResult(h, omega, (certs[0], certs[1]))
        omega = _pair_finitary_omega(s1, s2, chain_ok, k)
        h = make_s(omega, k)
        certs = []
        for g in (g1, g2):
            b = _Builder(grp, {"g": g, "h": h})
            pos = _positions(omega, sorted(g.fin.support))
            seal(b, chain(b, "g", g.fin, pos))
            certs.append(b.finish())
        return PairPartnerResult(h, omega, (certs[0], certs[1]))
    if not fin1 and not fin2:
        pr = partner_nonalt(k, [g1, g2])
        return PairPartnerResult(pr.h, pr.sigma, (pr.certificates[0], pr.certificates[1]))
    # mixed: relabel for the finitary one, then frame the other beyond it
    gf, gn = (g1, g2) if fin1 else (g2, g1)
    res = single(gf.fin)
    omega = res.omega
    wconj = finitary(omega)
    gprime = wconj * gn * wconj.inverse()
    avoidb = max(
        [gn.eventual_bound(), gprime.eventual_bound()]
        + [abs(p) for p in omega.support | gf.fin.support]
    )
    frame = _nonalt_frame(k, [gprime], avoidb)
    psi = frame.sigma * omega
    h = make_s(psi, k)
    bf = _Builder(grp, {"g": gf, "h": h})
    posf = _positions(psi, sorted(gf.fin.support))
    if k == 2 and len(gf.fin.support) == 3:
        seal(bf, "g")
    else:
        if not chain_ok(gf.fin, posf):
            raise ConstructError("internal: mixed-pair relabelling failed")
        seal(bf, chain(bf, "g", gf.fin, posf))
    cert_f = bf.finish()
    cert_n = _nonalt_certificate(frame, gn, h, frame.powers[0], frame.orders[0])
    certs = (cert_f, cert_n) if fin1 else (cert_n, cert_f)
    return PairPartnerResult(h, psi, certs)


def pair_partner_g1(g1: GroupElement, g2: GroupElement) -> PairPartnerResult:
    """One h in [t] with <g1, h> = <g2, h> = G_1, both certified."""
    return _pair_partner(1, g1, g2)


def pair_partner_g2(g1: GroupElement, g2: GroupElement) -> PairPartnerResult:
    """One h in [t^2] with <g1, h> = <g2, h> = G_2, both certified."""
    return _pair_partner(2, g1, g2)


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
