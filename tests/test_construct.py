import math
import random
import time
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from houghton import construct
from houghton.perm import FinPerm
from houghton.elem import (
    G,
    class_tk_relabel,
    finitary,
    in_class_tk,
    make_s,
    parse_element,
    t,
)
from houghton.certs import (
    Axiom,
    Derive,
    PositiveCertificate,
    cert_from_json,
    cert_to_json,
    eval_word,
    verify,
    verify_positive,
)
from houghton.construct import (
    ConstructError,
    alt_basis_words,
    common_partner,
    euclid_word,
    evens_odds_reduce,
    g2_seed_test,
    gcd_test,
    pair_partner_g1,
    pair_partner_g2,
    partner_alt_g1,
    partner_alt_g2,
    partner_nonalt,
    three_cycle_word,
    two_gen_alpha,
)
from houghton.suite import _rand_nonfin


def rand_even(rng, span=10, size=(3, 7)):
    """A random nontrivial even finitary permutation."""
    while True:
        pts = rng.sample(range(-span, span), rng.randint(*size))
        p = FinPerm.from_cycles([tuple(pts)])
        if not p.is_even():
            rest = [x for x in range(-span, span) if x not in pts]
            p = p * FinPerm.cycle(*rng.sample(rest, 2))
        if not p.is_identity() and p.is_even():
            return p


def rand_nonfin(rng, k, span=7):
    """A random non-finitary member of G_k."""
    while True:
        n = rng.randint(0, 5)
        fin = FinPerm()
        if n >= 2:
            pts = rng.sample(range(-span, span), n)
            fin = FinPerm.from_cycles([tuple(pts)])
            if not fin.is_even():
                rest = [x for x in range(-span, span) if x not in pts]
                fin = fin * FinPerm.cycle(*rng.sample(rest, 2))
        m = rng.choice([-2, -1, 1, 2])
        g = finitary(fin) * t(m * k)
        if g.shift != 0:
            return g


# -- euclid_word --------------------------------------------------------------


def test_euclid_word_trivial():
    assert euclid_word(1, 1) == (("c", 1),)


@pytest.mark.parametrize("d1,d2", [(1, 2), (2, 3), (3, 5), (5, 6), (4, 9), (6, 5)])
def test_euclid_word_reduces(d1, d2):
    w = euclid_word(d1, d2)
    env = {"c": finitary(FinPerm.cycle(-d1, 0, d2)), "s": t(1)}
    assert eval_word(env, w) == finitary(FinPerm.cycle(-1, 0, 1))
    assert len(w) <= 6 * (d1 + d2)


def test_euclid_word_rejects_common_factor():
    with pytest.raises(ConstructError):
        euclid_word(2, 4)


# -- gcd_test -----------------------------------------------------------------


def test_gcd_test_grid():
    for a in range(-6, 0):
        for b in range(1, 7):
            res = gcd_test(FinPerm.cycle(a, 0, b), t(1))
            q0, q1, q2 = res.positions
            g = math.gcd(q1 - q0, q2 - q1)
            assert g == math.gcd(-a, b)
            if g == 1:
                assert res.verdict == "positive"
                assert verify(res.certificate).ok
            else:
                assert res.verdict == "negative"
                assert verify(res.certificate).ok
                assert res.certificate.params["modulus"] == g


def test_gcd_test_relabelled_translation():
    s = make_s(FinPerm.cycle(0, 5, 3), 1)
    res = gcd_test(FinPerm.cycle(1, 4, 9), s)
    assert res.verdict == "positive"
    assert verify_positive(res.certificate).ok


def test_gcd_test_inapplicable():
    with pytest.raises(ConstructError, match="inapplicable"):
        gcd_test(FinPerm.cycle(0, 1, 2), t(2))
    with pytest.raises(ConstructError, match="inapplicable"):
        gcd_test(FinPerm.cycle(0, 1), t(1))


@pytest.mark.parametrize("cycle,s,verdict", [
    ((1, 2, 3), "t^2", "positive"),
    ((0, 2, 4), "t^2", "negative"),
    ((0, 2, 4), "t^-2", "negative"),
    # s = (-2 3 7)(0 9 5) t^2 = make_s((0 5 9), 2) relabels the points
    ((0, 2, 4), "(-2 3 7)(0 9 5) t^2", "positive"),
    ((0, 1, 3), "(-2 3 7)(0 9 5) t^2", "negative"),
])
def test_g2_seed_test(cycle, s, verdict):
    res = g2_seed_test(FinPerm.cycle(*cycle), parse_element(s))
    assert res.verdict == verdict
    assert verify(res.certificate).ok
    if verdict == "negative":
        assert res.certificate.variant == "invariant_set"


def test_g2_seed_test_inapplicable():
    # positions 1, 2 and 5: two orbits, but the odd points are 4 apart
    cases = (((1, 2, 5), t(2)), ((5, 9, 1), make_s(FinPerm.cycle(0, 5, 9), 2)),
             ((0, 1, 2), t(1)), ((0, 1), t(2)))
    for cycle, s in cases:
        with pytest.raises(ConstructError, match="inapplicable"):
            g2_seed_test(FinPerm.cycle(*cycle), s)


# -- words over the basis cycles ----------------------------------------------


def test_three_cycle_word_all_small_triples():
    env = {"a%d" % j: finitary(FinPerm.cycle(1, 2, j)) for j in range(3, 9)}
    for a, b, c in permutations(range(1, 8), 3):
        w = three_cycle_word(a, b, c)
        assert eval_word(env, w) == finitary(FinPerm.cycle(a, b, c))


def test_alt_basis_words_spec_point():
    # for k = 3 the word for (1 2 7) conjugates (1 2 4) by a translate
    words = alt_basis_words(3, 7)
    env = {"a%d" % j: finitary(FinPerm.cycle(1, 2, j)) for j in range(3, 7)}
    env["T"] = t(3)
    assert eval_word(env, words[-1]) == finitary(FinPerm.cycle(1, 2, 7))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_alt_basis_words_evaluate(k):
    env = {"a%d" % j: finitary(FinPerm.cycle(1, 2, j)) for j in range(3, 2 * k + 1)}
    env["T"] = t(k)
    for j, w in zip(range(3, 26), alt_basis_words(k, 25)):
        assert eval_word(env, w) == finitary(FinPerm.cycle(1, 2, j))


# -- two-generator construction ------------------------------------------------


@pytest.mark.parametrize("k", [3, 4])
def test_two_gen_alpha(k):
    tr = two_gen_alpha(k)
    assert verify_positive(tr.certificate).ok
    alpha = tr.certificate.generators["alpha"]
    assert alpha.shift == 0 and alpha.fin.is_even()
    # the commutator target and every conjugated basis cycle are pinned
    n = len(list(combinations(range(1, 2 * k + 1), 3)))
    assert tr.named["c"] == finitary(FinPerm.cycle(1, 2, 3))
    assert len([s for s in tr.certificate.steps if type(s).__name__ == "CheckEqual"]) == n + 1


def test_two_gen_alpha_rejects_small_k():
    with pytest.raises(ConstructError):
        two_gen_alpha(2)


# -- single partners -------------------------------------------------------------


def test_partner_alt_g1_simple_cycle():
    res = partner_alt_g1(FinPerm.cycle(0, 1, 2))
    assert in_class_tk(res.h, 1) is not None
    assert verify_positive(res.transcript.certificate).ok


def test_partner_alt_g2_three_cycle_is_direct_seed():
    res = partner_alt_g2(FinPerm.cycle(4, 9, -1))
    assert in_class_tk(res.h, 2) is not None
    # no derivations needed: the generator itself is the seed
    assert all(type(s).__name__ == "Axiom" for s in res.transcript.certificate.steps)


@pytest.mark.parametrize("seed", range(6))
def test_partner_alt_random(seed):
    rng = random.Random(100 + seed)
    for _ in range(8):
        sigma = rand_even(rng)
        r1 = partner_alt_g1(sigma)
        assert in_class_tk(r1.h, 1) is not None
        r2 = partner_alt_g2(sigma)
        assert in_class_tk(r2.h, 2) is not None


def test_partner_alt_large_support():
    # a 301-cycle: the chain's letter h^300 moves few points, though an
    # a-priori bound of 300 |supp| on it exceeds the kernel's limit; each
    # partner verifies its certificate before returning it
    sigma = FinPerm.cycle(*range(0, 602, 2))
    for k, fn in ((1, partner_alt_g1), (2, partner_alt_g2)):
        assert in_class_tk(fn(sigma).h, k) is not None


def _even_perms(points):
    """Every nontrivial even permutation of points."""
    for img in permutations(points):
        p = FinPerm({a: b for a, b in zip(points, img) if a != b})
        if not p.is_identity() and p.is_even():
            yield p


@pytest.mark.parametrize("k", [1, 2])
def test_every_single_member_on_six_points_gets_a_partner(k):
    for sigma in _even_perms(range(6)):
        (cert,) = common_partner(k, [finitary(sigma)]).certificates
        assert verify(cert_from_json(cert_to_json(cert))).ok, sigma


def test_g1_three_cycle_member_closes_on_itself():
    # beside any other member a 3-cycle closes on itself by gcd_criterion;
    # after its own inverse it is derived as gg
    members = list(_even_perms(range(5)))
    for a, b in product(members, repeat=2):
        if 3 not in (len(a.support), len(b.support)):
            continue
        res = pair_partner_g1(finitary(a), finitary(b))
        for g, cert in zip((a, b), res.certificates):
            if len(g.support) == 3:
                last = cert.steps[-1]
                assert last.variant == "gcd_criterion", (a, b)
                assert last.params["cycle"] in ("g", "gg"), (a, b)


def test_partner_alt_rejects_odd():
    with pytest.raises(ConstructError):
        partner_alt_g1(FinPerm.cycle(0, 1))


# -- partners for non-finitary elements -----------------------------------------


def test_partner_nonalt_translation():
    res = partner_nonalt(1, [t(1)])
    assert in_class_tk(res.h, 1) is not None
    assert verify_positive(res.certificates[0]).ok


def test_partner_nonalt_shared_partner():
    gs = [t(2), finitary(FinPerm.cycle(0, 1, 2)) * t(-2)]
    res = partner_nonalt(2, gs)
    assert len(res.certificates) == 2
    for cert, g in zip(res.certificates, gs):
        assert cert.generators["g"] == g
        assert cert.generators["h"] == res.h


@pytest.mark.parametrize("seed", range(5))
def test_partner_nonalt_random(seed):
    rng = random.Random(500 + seed)
    for _ in range(4):
        k = rng.randint(1, 4)
        gs = [rand_nonfin(rng, k) for _ in range(rng.randint(1, 2))]
        res = partner_nonalt(k, gs)
        assert in_class_tk(res.h, k) is not None
        assert len(res.certificates) == len(gs)


def test_partner_nonalt_large_shift():
    # k = 1 does not walk: its certificate closes on the frame's 3-cycle
    # T0 through gcd_criterion, so its length does not grow with the shift;
    # partner_nonalt verifies its certificate before returning it
    res = partner_nonalt(1, [t(5003)])
    assert in_class_tk(res.h, 1) is not None


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from([5, 7, 11, 13]),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=-40, max_value=40),
    st.randoms(use_true_random=False),
)
def test_translates_relabel_nu(k, q, c, n, rng):
    # w is a frame q-cycle times a scrambled part below it, as in
    # common_partner; the relabelled nu is nu conjugated by h^n
    base = 2 * c + 20
    sigma = FinPerm.cycle(*range(base + 1, base + q + 1))
    w = sigma * rand_even(rng)
    nu = sigma ** (k + 1) * (sigma ** -(k + 1)).translate(c)
    relabelled = construct._translates(nu, w)(n * k)
    assert finitary(relabelled) == finitary(nu).conjugate(make_s(w, k) ** n)


def test_partner_nonalt_short_conjugator_words():
    # each f-step conjugates the nearest named translate by h^n, so the
    # exponents stay small however far the walk reaches (k = 3 walks)
    res = partner_nonalt(3, [t(501)])
    (cert,) = res.certificates
    fsteps = [s for s in cert.steps if isinstance(s, Derive) and s.name.startswith("f")]
    assert fsteps
    assert sum(abs(s.word[-1][1]) for s in fsteps) <= 10_000
    for c in res.certificates:
        assert verify(cert_from_json(cert_to_json(c))).ok


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.sampled_from([5, 7, 11, 13]),
    st.integers(min_value=1, max_value=30),
    st.randoms(use_true_random=False),
    st.data(),
)
def test_closing_matches_the_kernel(k, q, c, rng, data):
    # h = make_s(w, k) translates by k in the coordinate y(x) = (x)w^-1, and
    # for k = 2 the parity of y names the orbit, so _closes on y agrees with
    # the kernel on its own orbit coordinates.  w is a frame q-cycle times a
    # scrambled part below it, as in common_partner, and the points lie on
    # the frame block and above it
    base = 2 * c + 20
    sigma = FinPerm.cycle(*range(base + 1, base + q + 1))
    w = sigma * rand_even(rng)
    pts = data.draw(
        st.lists(st.integers(base + 1, base + q + 8), min_size=3, max_size=3, unique=True)
    )
    cert = PositiveCertificate(
        G(k),
        {"h": make_s(w, k), "c": finitary(FinPerm.cycle(*pts))},
        (Axiom("gcd_criterion" if k == 1 else "g2_seed", {"cycle": "c", "s": "h"}),),
    )
    w_inv = w.inverse()
    assert construct._closes(k, [w_inv.apply(p) for p in pts]) == verify_positive(cert).ok


@pytest.mark.parametrize("k", [1, 2])
def test_frame_cycle_closes_g1_and_g2(k):
    # read where h becomes t^k, T0 is (P+e-q, P, P+e) for nu stepping by e
    # on the frame block: e = 2 closes it for G_1 and for G_2 on every prime
    # q the frame can pick, e = 3 never for G_2, since q >= 7 there
    rng = random.Random(k)
    start = time.perf_counter()
    q, cases = 2 * k + 2, 0
    while (q := construct._next_prime(q)) <= 61:
        for c in range(q + 3, q + 41):
            if c % k:
                continue
            base = 2 * c + 20
            sigma = FinPerm.cycle(*range(base + 1, base + q + 1))
            h = make_s(sigma * rand_even(rng), k)
            for e, closes in [(construct._nu_step(k), True)] + [(3, False)] * (k == 2):
                nu = finitary(sigma ** e * (sigma ** -e).translate(c))
                t0 = construct._derive_t0(construct._Builder(G(k), {"h": h, "nu": nu}), q, c, k)
                cert = PositiveCertificate(
                    G(k),
                    {"h": h, "T0": t0},
                    (Axiom(construct._CLOSING_AXIOM[k], {"cycle": "T0", "s": "h"}),),
                )
                assert verify_positive(cert).ok == closes, (q, c, e)
                cases += 1
    assert cases == (608 if k == 1 else 570)
    assert time.perf_counter() - start < 2.0


def test_partner_nonalt_closes_on_one_cycle():
    # for k = 1 and 2 the length of a certificate does not grow with the shift
    start = time.perf_counter()
    for k, c, variant in ((1, 5003, "gcd_criterion"), (2, 5006, "g2_seed")):
        (cert,) = partner_nonalt(k, [t(c)]).certificates
        assert len(cert.steps) <= 20
        assert cert.steps[-1].variant == variant
        assert verify(cert_from_json(cert_to_json(cert))).ok
    assert time.perf_counter() - start < 1.0


def test_partner_nonalt_closes_on_the_frame_cycle():
    # for k = 1 and 2 every certificate closes on T0 itself, with no walk
    # step T<n> and no conjugator f<n>
    rng = random.Random(2026)
    for _ in range(200):
        k = rng.choice([1, 2])
        gs = [_rand_nonfin(rng, k) for _ in range(rng.randint(1, 4))]
        for cert in partner_nonalt(k, gs).certificates:
            names = [s.name for s in cert.steps if isinstance(s, Derive)]
            assert names == ["z", "mu", "nu", "A0", "s0", "T0"]
            assert cert.steps[-1] == Axiom(construct._CLOSING_AXIOM[k], {"cycle": "T0", "s": "h"})
            assert verify(cert_from_json(cert_to_json(cert))).ok


def test_partner_nonalt_walks_once_per_frame(monkeypatch):
    # the walk depends on h and nu alone, never on the member
    calls = [0]
    walk = construct._point_walk

    def counting(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(construct, "_point_walk", counting)
    partner_nonalt(3, [t(3)])
    one = calls[0]
    calls[0] = 0
    gs = [t(3), t(-6), finitary(FinPerm.cycle(0, 1, 2)) * t(-3), finitary(FinPerm.cycle(3, -1, 5)) * t(6)]
    res = partner_nonalt(3, gs)
    assert 0 < calls[0] <= one
    # z, mu, the pin on mu and nu come first; the rest is shared
    suffixes = [cert.steps[4:] for cert in res.certificates]
    assert all(steps == suffixes[0] for steps in suffixes)


def test_builder_extend_checks_the_shared_generators():
    cyc = finitary(FinPerm.cycle(0, 1, 2))
    shared = construct._Builder(G(1), {"h": t(1), "nu": cyc})
    shared.derive("x", [("h", -1), ("nu", 1), ("h", 1)])
    b = construct._Builder(G(1), {"h": t(1), "nu": cyc.inverse()})
    with pytest.raises(ConstructError, match="'nu' differs"):
        b.extend(shared)
    b = construct._Builder(G(1), {"h": t(1), "nu": cyc})
    b.extend(shared)
    assert b.env["x"] == finitary(FinPerm.cycle(1, 2, 3))
    assert b.steps == shared.steps


def test_partner_nonalt_rejects_finitary():
    with pytest.raises(ConstructError):
        partner_nonalt(1, [finitary(FinPerm.cycle(0, 1, 2))])


def test_partner_nonalt_rejects_nonmember():
    with pytest.raises(ConstructError):
        partner_nonalt(2, [t(3)])


# -- partners for pairs ----------------------------------------------------------


def pair_checks(res, k, g1, g2):
    assert in_class_tk(res.h, k) is not None
    assert res.h == make_s(res.conjugator, k)
    for cert, g in zip(res.certificates, (g1, g2)):
        assert cert.generators["g"] == g
        assert cert.generators["h"] == res.h


def test_pair_partner_inverse_pair():
    # a 3-cycle and its inverse cannot share a relabelling directly;
    # the second certificate derives the inverse and reuses the chain
    g = finitary(FinPerm.cycle(0, 1, 2))
    for k, fn in ((1, pair_partner_g1), (2, pair_partner_g2)):
        res = fn(g, g.inverse())
        pair_checks(res, k, g, g.inverse())


def test_pair_partner_equal_pair():
    g = finitary(FinPerm.from_cycles([(0, 4), (2, 7)]))
    res = pair_partner_g1(g, g)
    pair_checks(res, 1, g, g)


def rand_ff(rng, span):
    """A finitary member drawn as the interactive benchmark draws them:
    one cycle of 3-6 points of [-span, span], made even by a transposition."""
    pts = rng.sample(range(-span, span + 1), rng.randint(3, 6))
    p = FinPerm.cycle(*pts)
    if not p.is_even():
        rest = [x for x in range(-span, span + 1) if x not in pts]
        p = p * FinPerm.cycle(*rng.sample(rest, 2))
    return finitary(p)


@pytest.mark.parametrize("k,fn", [(1, pair_partner_g1), (2, pair_partner_g2)])
def test_pair_partner_finitary_random(k, fn):
    rng = random.Random(40 + k)
    for span, count in ((10, 10), (4, 1500), (8, 1500)):
        for _ in range(count):
            g1, g2 = rand_ff(rng, span), rand_ff(rng, span)
            pair_checks(fn(g1, g2), k, g1, g2)


@pytest.mark.parametrize("k,fn", [(1, pair_partner_g1), (2, pair_partner_g2)])
def test_pair_partner_mixed_random(k, fn):
    rng = random.Random(60 + k)
    for _ in range(6):
        gf = finitary(rand_even(rng))
        gn = rand_nonfin(rng, k)
        pair_checks(fn(gf, gn), k, gf, gn)
        pair_checks(fn(gn, gf), k, gn, gf)


@pytest.mark.parametrize("k,fn", [(1, pair_partner_g1), (2, pair_partner_g2)])
def test_pair_partner_nonfinitary_random(k, fn):
    rng = random.Random(80 + k)
    for _ in range(4):
        g1 = rand_nonfin(rng, k)
        g2 = rand_nonfin(rng, k)
        pair_checks(fn(g1, g2), k, g1, g2)


@pytest.mark.parametrize("a,b", [
    # the earlier randomised layout search raised on these two pairs
    ("(-7 5 -2)", "(-7 -6 5)"),
    ("(-1 5 3)", "(-7 -1 8 2 -6 6)(1 3)"),
    # a 3-cycle inside a (4-cycle)(2-cycle)
    ("(-8 5 -4)", "(-8 7)(-4 3 5 2)"),
    ("(1 4 2)", "(-4 4 -2 1)(2 3)"),
    # every edge of one meets every edge of the other: both edges come
    # from one element, and the layout needs a hole
    ("(1 2)(3 4)", "(1 3)(2 4)"),
    # a 5-cycle with its square and its cube: for G_2 only layouts with
    # an inverse among the roles work
    ("(0 1 2 3 4)", "(0 2 4 1 3)"),
    ("(0 1 2 3 4)", "(0 3 1 4 2)"),
    # for G_2 this pair needs a hole before a middle point
    ("(-8 -3 5 -6 1)", "(-5 7 6 2 0)"),
])
@pytest.mark.parametrize("k,fn", [(1, pair_partner_g1), (2, pair_partner_g2)])
def test_pair_partner_hard_layouts(k, fn, a, b):
    # pair_partner verifies each certificate before returning it
    g1, g2 = parse_element(a), parse_element(b)
    pair_checks(fn(g1, g2), k, g1, g2)


def _members(rng, k, kind):
    return [finitary(rand_even(rng, span=8, size=(3, 6))) if c == "f" else rand_nonfin(rng, k)
            for c in kind]


@pytest.mark.parametrize("kind", ["fff", "ffn", "fnn", "nnn"])
@pytest.mark.parametrize("k", [1, 2])
def test_common_partner_triples(k, kind):
    # a raise is allowed, a wrong accept never: every certificate is
    # re-read from its JSON and verified again
    rng = random.Random(1000 * k + kind.count("f"))
    made = 0
    for _ in range(4):
        gs = _members(rng, k, kind)
        rng.shuffle(gs)
        try:
            res = common_partner(k, gs)
        except ConstructError:
            continue
        made += 1
        assert in_class_tk(res.h, k) is not None
        assert res.h == make_s(res.conjugator, k)
        assert len(res.certificates) == len(gs)
        for cert, g in zip(res.certificates, gs):
            assert cert.generators == {"g": g, "h": res.h}
            assert verify(cert_from_json(cert_to_json(cert))).ok
    assert made


def test_common_partner_repeated_finitary_members():
    # one layout serves a member, its inverse and a repeat of either
    g = finitary(FinPerm.cycle(0, 1, 2, 5, 3))
    for k in (1, 2):
        gs = [g, g.inverse(), t(k), g]
        res = common_partner(k, gs)
        for cert, x in zip(res.certificates, gs):
            assert cert.generators["g"] == x
        assert res.certificates[0].steps == res.certificates[3].steps


def test_common_partner_rejects_finitary_beyond_g2():
    with pytest.raises(ConstructError):
        common_partner(3, [finitary(FinPerm.cycle(1, 2, 3))])
    with pytest.raises(ConstructError):
        common_partner(1, [])
    with pytest.raises(ConstructError):
        common_partner(1, [t(1), finitary(FinPerm())])


def test_pair_partner_rejects_nonmember():
    with pytest.raises(ConstructError):
        pair_partner_g2(finitary(FinPerm.cycle(0, 1, 2)), t(1))


# -- support parity reduction ------------------------------------------------------


def test_evens_odds_reduce_drops_one_even():
    rng = random.Random(9)
    sig = finitary(FinPerm.cycle(0, 3))
    for _ in range(20):
        while True:
            om = rand_even(rng, span=8, size=(3, 6))
            if any(p % 2 == 0 for p in om.support):
                break
        r = evens_odds_reduce(sig, om)
        before = sum(1 for p in om.support if p % 2 == 0)
        after = sum(1 for p in r.result.support if p % 2 == 0)
        assert after == before - 1
        assert len(r.steps) == 3


def test_evens_odds_reduce_preconditions():
    with pytest.raises(ConstructError):
        evens_odds_reduce(finitary(FinPerm.cycle(0, 4, 2)), FinPerm.cycle(1, 2, 4))
    with pytest.raises(ConstructError):
        evens_odds_reduce(finitary(FinPerm.cycle(0, 3)), FinPerm.cycle(1, 3, 5))


# -- one criterion path -------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2]), st.randoms(use_true_random=False))
def test_criterion_tests_agree_with_the_one_step_certificate(k, rng):
    # a positive exactly when the closing axiom accepts the cycle itself;
    # otherwise a negative that verifies, or ConstructError
    span = rng.choice([4, 6, 10])
    s = make_s(rand_even(rng, span), rng.choice([-k, k]))
    cycle = FinPerm.cycle(*rng.sample(range(-span, span + 1), 3))
    one_step = PositiveCertificate(
        G(k),
        {"a": finitary(cycle), "s": s},
        (Axiom("gcd_criterion" if k == 1 else "g2_seed", {"cycle": "a", "s": "s"}),),
    )
    try:
        res = (gcd_test if k == 1 else g2_seed_test)(cycle, s)
    except ConstructError:
        verdict = None
    else:
        verdict = res.verdict
        assert verify(cert_from_json(cert_to_json(res.certificate))).ok
    assert (verdict == "positive") == verify_positive(one_step).ok


@pytest.mark.parametrize("s", [t(1), t(-1), make_s(FinPerm.cycle(0, 5, 3), 1),
                               make_s(FinPerm.cycle(0, 5, 3), -1)], ids=str)
@pytest.mark.parametrize("pts", [(1, 4, 9), (1, 9, 4)])
def test_gcd_test_positive_for_either_sign_and_orientation(s, pts):
    res = gcd_test(FinPerm.cycle(*pts), s)
    assert res.verdict == "positive"
    assert verify(cert_from_json(cert_to_json(res.certificate))).ok
    # the axiom closes on the derived cycle at the middle position and its
    # two neighbours
    assert res.certificate.steps[-1].params["cycle"] == "r"
    r = res.certificate.steps[-2].expected
    q1 = res.positions[1]
    rel = class_tk_relabel(s, in_class_tk(s, 1), tuple(r.fin.support))
    assert sorted(rel.values()) == [q1 - 1, q1, q1 + 1]


@pytest.mark.parametrize("k,fn,s", [(1, gcd_test, make_s(FinPerm.cycle(0, 5, 3), 1)),
                                    (2, g2_seed_test, make_s(FinPerm.cycle(0, 5, 3), 2))])
def test_criterion_tests_walk_the_orbits_of_s_once(monkeypatch, k, fn, s):
    from houghton import elem

    calls, real = [], elem.decompose

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(elem, "decompose", counted)
    # s moves 5 onto the orbit positions 0, 1, 2 of the points 5, 1, 2
    res = fn(FinPerm.cycle(5, 1, 2), s)
    assert res.verdict == "positive"
    assert calls == [s]


@pytest.mark.parametrize("k,shifts", [(3, (21, 33, 39, 51)), (2, (14, 22, 26, 60))])
def test_common_partner_refuses_a_partner_past_the_walk_limits(k, shifts):
    start = time.perf_counter()
    with pytest.raises(ConstructError, match="exceeds the limit"):
        common_partner(k, [t(c) for c in shifts])
    assert time.perf_counter() - start < 1.0
