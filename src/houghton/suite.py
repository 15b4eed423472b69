"""The eleven acceptance checks, runnable from the CLI and the test suite.

Each criterion function returns (ok, detail).  They use fixed RNG seeds
so runs are reproducible; `scale` < 1 shrinks the sample counts for a
quick smoke run from the command line.
"""

import math
import random
import time
from collections import Counter
from itertools import combinations
from typing import Callable, List, Tuple

from .perm import FinPerm
from .elem import G, GroupElement, finitary, in_class_tk, make_s, t
from .certs import (
    Axiom,
    CheckEqual,
    Derive,
    NegativeCertificate,
    PositiveCertificate,
    eval_word,
    verify,
    verify_negative,
    verify_positive,
)
from .construct import (
    g2_seed_test,
    gcd_test,
    pair_partner_g1,
    pair_partner_g2,
    partner_alt_g1,
    partner_alt_g2,
    partner_nonalt,
    two_gen_alpha,
)
from .bounds import defeat_ten, refute_dominating, spread_zero_witness
from .oracle import ball_affine_counterexample, ball_contains, bfs_closure_finite


def _rand_even_fin(rng, span=10, size=(3, 7)) -> FinPerm:
    while True:
        pts = rng.sample(range(-span, span + 1), rng.randint(*size))
        p = FinPerm.from_cycles([tuple(pts)])
        if not p.is_even():
            rest = [x for x in range(-span, span + 1) if x not in pts]
            p = p * FinPerm.cycle(*rng.sample(rest, 2))
        if not p.is_identity() and p.is_even():
            return p


def _rand_member(rng, shifts, span=8) -> GroupElement:
    while True:
        n = rng.randint(0, 6)
        fin = FinPerm()
        if n >= 2:
            pts = rng.sample(range(-span, span + 1), n)
            fin = FinPerm.from_cycles([tuple(pts)])
            if not fin.is_even():
                rest = [x for x in range(-span, span + 1) if x not in pts]
                fin = fin * FinPerm.cycle(*rng.sample(rest, 2))
        if fin.is_even():
            return finitary(fin) * t(rng.choice(shifts))


def _rand_nonfin(rng, k, span=10) -> GroupElement:
    shifts = [m * k for m in (-3, -2, -1, 1, 2, 3)]
    while True:
        g = _rand_member(rng, shifts, span=span)
        if g.shift != 0:
            return g


def criterion_1() -> Tuple[bool, str]:
    """Gcd criterion on the exhaustive (a 0 b) grid."""
    for a in range(-6, 0):
        for b in range(1, 7):
            res = gcd_test(FinPerm.cycle(a, 0, b), t(1))
            want = "positive" if math.gcd(-a, b) == 1 else "negative"
            if res.verdict != want or not verify(res.certificate).ok:
                return False, "pair (%d 0 %d) failed" % (a, b)
            if want == "negative" and res.certificate.variant != "block_system":
                return False, "pair (%d 0 %d): wrong negative variant" % (a, b)
    return True, "36/36 pairs certified"


def criterion_2() -> Tuple[bool, str]:
    """Ball searches agree with the gcd criterion."""
    h = t(1)
    g = finitary(FinPerm.cycle(-1, 0, 1))
    rep = ball_contains(g, h, finitary(FinPerm.cycle(0, 1, 2)), 10)
    if rep.found is None:
        return False, "(0 1 2) not found within radius 10"
    if eval_word({"g": g, "h": h}, rep.found) != finitary(FinPerm.cycle(0, 1, 2)):
        return False, "found word does not evaluate to the target"
    checked = 0
    for a in range(-6, 0):
        for b in range(1, 7):
            d = math.gcd(-a, b)
            if d == 1:
                continue
            rep = ball_affine_counterexample(
                finitary(FinPerm.cycle(a, 0, b)), h, d, 12
            )
            if rep.found is not None:
                return False, "affine violator in blocked pair (%d 0 %d)" % (a, b)
            checked += 1
    return True, "found (0 1 2); %d blocked pairs clean at radius 12" % checked


def criterion_3() -> Tuple[bool, str]:
    """Basis 3-cycles generate Alt on finite truncations."""
    for n in range(4, 8):
        c = bfs_closure_finite(
            [FinPerm.cycle(1, 2, m) for m in range(3, n + 1)], range(1, n + 1)
        )
        if c.order != math.factorial(n) // 2:
            return False, "order %d on %d points" % (c.order, n)
    return True, "orders N!/2 for N in 4..7"


def criterion_4() -> Tuple[bool, str]:
    """Two-generator construction identities for k in {3, 4, 5}."""
    for k in (3, 4, 5):
        n = len(list(combinations(range(1, 2 * k + 1), 3)))
        tr = two_gen_alpha(k)
        if not verify_positive(tr.certificate).ok:
            return False, "certificate rejected for k=%d" % k
        pins = sum(1 for s in tr.certificate.steps if isinstance(s, CheckEqual))
        if pins != n + 1:
            return False, "k=%d: %d identities checked, wanted %d" % (k, pins, n + 1)
    return True, "all identities verified for k=3,4,5 (n=20,56,120)"


def criterion_5() -> Tuple[bool, str]:
    """<(1 2 3), t> = G_1 and <(1 2 3), t^2> = G_2."""
    res = gcd_test(FinPerm.cycle(1, 2, 3), t(1))
    if res.verdict != "positive" or not verify_positive(res.certificate).ok:
        return False, "G_1 certificate failed"
    r2 = g2_seed_test(FinPerm.cycle(1, 2, 3), t(2))
    if r2.verdict != "positive" or not verify_positive(r2.certificate).ok:
        return False, "G_2 certificate failed"
    return True, "both certificates verify"


def criterion_6(scale: float = 1.0) -> Tuple[bool, str]:
    """Shared partners for random non-finitary tuples."""
    rng = random.Random(2026)
    trials = max(1, int(100 * scale))
    closings: Counter = Counter()
    for i in range(trials):
        k = rng.choice([1, 2, 3])
        gs = [_rand_nonfin(rng, k) for _ in range(rng.randint(1, 4))]
        res = partner_nonalt(k, gs)
        if in_class_tk(res.h, k) is None:
            return False, "trial %d: partner not in the class of t^%d" % (i, k)
        for cert in res.certificates:
            if not verify_positive(cert).ok:
                return False, "trial %d: certificate rejected" % i
        closings.update(_closed_on(cert) for cert in res.certificates)
    return True, "%d random tuples certified; %s" % (trials, _closed_by(closings))


def _closed_on(cert: PositiveCertificate) -> str:
    """G_k and the axiom a certificate closes on, e.g. 'G_2 g2_seed'."""
    return "G_%d %s" % (cert.target.k, cert.steps[-1].variant)


def _closed_by(closings: Counter) -> str:
    return "closed by " + ", ".join("%s %d" % kv for kv in sorted(closings.items()))


def _rand_pair(rng, k):
    kinds = rng.choices(["ff", "fn", "nn"], weights=[6, 2, 2])[0]
    def fin():
        return finitary(_rand_even_fin(rng, span=8, size=(3, 6)))
    def nonfin():
        return _rand_nonfin(rng, k, span=7)
    if kinds == "ff":
        return fin(), fin()
    if kinds == "fn":
        pair = (fin(), nonfin())
        return pair if rng.random() < 0.5 else (pair[1], pair[0])
    return nonfin(), nonfin()


def criterion_7(scale: float = 1.0) -> Tuple[bool, str]:
    """Pair partners in G_1 and G_2 with verified conjugators."""
    trials = max(1, int(500 * scale))
    closings: Counter = Counter()
    for k, fn in ((1, pair_partner_g1), (2, pair_partner_g2)):
        rng = random.Random(4000 + k)
        for i in range(trials):
            g1, g2 = _rand_pair(rng, k)
            res = fn(g1, g2)
            if res.h != make_s(res.conjugator, k):
                return False, "G_%d trial %d: conjugator mismatch" % (k, i)
            if in_class_tk(res.h, k) is None:
                return False, "G_%d trial %d: h not in class" % (k, i)
            for cert in res.certificates:
                if not verify_positive(cert).ok:
                    return False, "G_%d trial %d: certificate rejected" % (k, i)
            closings.update(_closed_on(cert) for cert in res.certificates)
    return True, "%d pairs per group certified; %s" % (trials, _closed_by(closings))


def criterion_8(scale: float = 1.0) -> Tuple[bool, str]:
    """Spread-zero witnesses for k in {3..6}."""
    trials = max(1, int(250 * scale))
    for k in (3, 4, 5, 6):
        rng = random.Random(800 + k)
        for i in range(trials):
            h = _rand_member(rng, [m * k for m in (-2, -1, 0, 1, 2)])
            _, cert = spread_zero_witness(k, h)
            if not verify_negative(cert).ok:
                return False, "k=%d trial %d rejected" % (k, i)
    return True, "%d witnesses per k verified" % trials


def criterion_9(scale: float = 1.0) -> Tuple[bool, str]:
    """Ten-cycle defeats for random members of G_1 and G_2."""
    trials = max(1, int(1000 * scale))
    for k, shifts in ((1, [-3, -2, -1, 0, 1, 2, 3]), (2, [-4, -2, 0, 2, 4])):
        rng = random.Random(900 + k)
        for i in range(trials):
            h = _rand_member(rng, shifts)
            _, cert = defeat_ten(h, G(k))
            if not verify_negative(cert).ok:
                return False, "G_%d trial %d rejected" % (k, i)
    return True, "%d defeats per group verified" % trials


def criterion_10(scale: float = 1.0) -> Tuple[bool, str]:
    """Dominating-set refutations for random finite sets."""
    trials = max(1, int(200 * scale))
    for k in (1, 2):
        rng = random.Random(700 + k)
        shifts = [m * k for m in (-2, -1, 0, 1, 2)]
        for i in range(trials):
            S = [_rand_member(rng, shifts) for _ in range(rng.randint(1, 10))]
            _, certs = refute_dominating(S, G(k))
            if len(certs) != len(S) or not all(verify_negative(c).ok for c in certs):
                return False, "G_%d trial %d rejected" % (k, i)
    return True, "%d sets per group refuted" % trials


def _mutations(cert, rng):
    """Semantic edits of a certificate, each breaking its meaning."""
    out = []
    if isinstance(cert, PositiveCertificate):
        steps = list(cert.steps)
        pins = [i for i, s in enumerate(steps) if isinstance(s, CheckEqual)]
        derives = [i for i, s in enumerate(steps) if isinstance(s, Derive) and s.word]
        for i in rng.sample(pins, min(len(pins), 12)):
            s = steps[i]
            bad = list(steps)
            bad[i] = CheckEqual(s.name, s.expected * t(1))
            out.append(PositiveCertificate(cert.target, cert.generators, tuple(bad)))
        for i in rng.sample(derives, min(len(derives), 8)):
            s = steps[i]
            j = rng.randrange(len(s.word))
            w = list(s.word)
            w[j] = (w[j][0], w[j][1] + 1)
            bad = list(steps)
            bad[i] = Derive(s.name, tuple(w))
            # a changed derivation must fail a later pin or the axioms;
            # only keep it when the verifier has something to catch
            cand = PositiveCertificate(cert.target, cert.generators, tuple(bad))
            if not verify_positive(cand).ok:
                out.append(cand)
        for i, s in enumerate(steps):
            if isinstance(s, Axiom):
                params = dict(s.params)
                if "base" in params:
                    params["base"] = params["base"] + 1
                elif "cycle" in params:
                    params["cycle"] = s.params.get("s", "h")
                else:
                    params["sigma"] = "missing"
                bad = list(steps)
                bad[i] = Axiom(s.variant, params)
                out.append(PositiveCertificate(cert.target, cert.generators, tuple(bad)))
        out.append(PositiveCertificate(G(cert.target.k + 1), cert.generators, cert.steps))
        if cert.steps:
            out.append(
                PositiveCertificate(cert.target, cert.generators, cert.steps[:-1])
            )
    else:
        edits = []
        if cert.variant == "block_system":
            edits = [{"modulus": 1}, {"relabel": "t^99"}]
        elif cert.variant == "invariant_set":
            edits = [
                {"orbits": []},
                {"orbits": list(cert.params["orbits"]) + ["fin999"]},
                {"element": "missing"},
            ]
        elif cert.variant == "imprimitivity3":
            edits = [{"points": [1, 1, 2]}, {"h": "missing"}]
        elif cert.variant == "not_in_group":
            edits = [{"witness": "missing"}]
        for edit in edits:
            params = dict(cert.params)
            params.update(edit)
            out.append(
                NegativeCertificate(cert.target, cert.generators, cert.variant, params)
            )
        if cert.variant == "finitary":
            gens = dict(cert.generators)
            gens["extra"] = t(max(1, cert.target.k))
            out.append(NegativeCertificate(cert.target, gens, cert.variant, cert.params))
    return out


def criterion_11() -> Tuple[bool, str]:
    """Mutated certificates are rejected."""
    rng = random.Random(11)
    accepted = []
    for a, b in ((-1, 1), (-2, 3), (-3, 2), (-5, 4), (-2, 2), (-4, 2), (-6, 3)):
        accepted.append(gcd_test(FinPerm.cycle(a, 0, b), t(1)).certificate)
    accepted.append(two_gen_alpha(3).certificate)
    for s in (FinPerm.cycle(0, 1, 2), FinPerm.from_cycles([(0, 3), (1, 5)])):
        accepted.append(partner_alt_g1(s).transcript.certificate)
        accepted.append(partner_alt_g2(s).transcript.certificate)
    accepted.extend(partner_nonalt(2, [t(2)]).certificates)
    accepted.extend(partner_nonalt(3, [t(3)]).certificates)
    accepted.append(defeat_ten(t(1), G(1))[1])
    accepted.append(defeat_ten(t(2), G(2))[1])
    accepted.append(spread_zero_witness(3, t(3))[1])
    accepted.append(spread_zero_witness(4, t(4))[1])
    total = 0
    while total < 500:
        for cert in accepted:
            if not verify(cert).ok:
                return False, "a baseline certificate does not verify"
            for bad in _mutations(cert, rng):
                if verify(bad).ok:
                    return False, "a mutated certificate was accepted"
                total += 1
    return True, "%d mutations all rejected" % total


CRITERIA: List[Tuple[str, Callable[..., Tuple[bool, str]], float, bool]] = [
    ("1 gcd criterion grid", criterion_1, 1.0, False),
    ("2 oracle cross-check", criterion_2, 60.0, False),
    ("3 finite Alt closures", criterion_3, 10.0, False),
    ("4 two-generator identities", criterion_4, 30.0, False),
    ("5 (1 2 3) with t and t^2", criterion_5, 1.0, False),
    ("6 shared partners", criterion_6, 120.0, True),
    ("7 pair partners", criterion_7, 300.0, True),
    ("8 spread-zero witnesses", criterion_8, 60.0, True),
    ("9 ten-cycle defeats", criterion_9, 120.0, True),
    ("10 dominating-set refutations", criterion_10, 60.0, True),
    ("11 mutation soundness", criterion_11, 30.0, False),
]


def run_all(scale: float = 1.0):
    """Run every criterion; yields (name, ok, detail, elapsed, budget)."""
    for name, fn, budget, scalable in CRITERIA:
        start = time.monotonic()
        if scalable and scale != 1.0:
            ok, detail = fn(scale)
        else:
            ok, detail = fn()
        yield name, ok, detail, time.monotonic() - start, budget
