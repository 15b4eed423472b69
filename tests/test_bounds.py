import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from houghton.perm import FinPerm
from houghton.elem import G, GroupElement, finitary, make_s, parse_element, t
from houghton.certs import verify_negative
from houghton.orbits import decompose
from houghton.bounds import (
    BoundsError,
    defeat_set,
    defeat_ten,
    obstruction,
    refute_dominating,
    spread_zero_witness,
)


def rand_member(rng, shifts, span=8):
    """A random member with an even finitary part and the given shifts."""
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


# -- defeat set ----------------------------------------------------------------


def test_defeat_set_canonical():
    ds = defeat_set(G(1))
    assert len(ds.cycles) == 10
    assert ds.group == G(1)
    supports = {frozenset(c.support) for c in ds.cycles}
    assert supports == {frozenset(c) for c in combinations(range(1, 6), 3)}
    # no cycle together with its inverse
    as_perms = set(ds.cycles)
    assert all(c.inverse() not in as_perms for c in ds.cycles)


def test_defeat_set_rejects_other_groups():
    with pytest.raises(BoundsError):
        defeat_set(G(3))


# -- spread zero ----------------------------------------------------------------


def test_spread_zero_translation_k4():
    sigma, cert = spread_zero_witness(4, t(4))
    assert sigma == FinPerm.cycle(1, 2, 3)
    assert cert.variant == "invariant_set"
    assert cert.params["orbits"] == ["inf0"]
    assert verify_negative(cert).ok


def test_spread_zero_translation_k3_imprimitivity():
    sigma, cert = spread_zero_witness(3, t(3))
    assert cert.variant == "imprimitivity3"
    assert cert.params["points"] == [1, 2, 3]
    assert verify_negative(cert).ok


def test_spread_zero_shift_six():
    # the shifts of (1 2 3) and h generate 6Z, not 3Z: no orbit walk needed
    _, cert = spread_zero_witness(3, parse_element("(1 2 3) t^6"))
    assert cert.variant == "shift_lattice"
    assert verify_negative(cert).ok


def test_spread_zero_finitary():
    _, cert = spread_zero_witness(5, parse_element("(1 2 3)"))
    assert cert.variant == "finitary"
    assert verify_negative(cert).ok


def test_spread_zero_rejects_small_k_and_nonmember():
    with pytest.raises(BoundsError):
        spread_zero_witness(2, t(2))
    with pytest.raises(BoundsError):
        spread_zero_witness(3, t(2))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_spread_zero_random(k):
    rng = random.Random(900 + k)
    for _ in range(25):
        h = rand_member(rng, [-2 * k, -k, 0, k, 2 * k])
        _, cert = spread_zero_witness(k, h)
        assert verify_negative(cert).ok


# -- no finite dominating set ------------------------------------------------------


def test_refute_dominating_translation():
    w, certs = refute_dominating([t(1)], G(1))
    assert w == FinPerm.cycle(1, 3, 5)
    assert certs[0].variant == "block_system"
    assert certs[0].params == {"relabel": "t^1", "modulus": 2}
    assert verify_negative(certs[0]).ok


def test_refute_dominating_g2_translation():
    w, certs = refute_dominating([t(2)], G(2))
    assert w == FinPerm.cycle(1, 3, 5)
    assert certs[0].variant == "invariant_set"
    assert verify_negative(certs[0]).ok


def test_refute_dominating_mixed_set():
    w, certs = refute_dominating([parse_element("(0 1 2)"), t(1)], G(1))
    assert w == FinPerm.cycle(3, 5, 7)
    assert [c.variant for c in certs] == ["finitary", "block_system"]
    assert all(verify_negative(c).ok for c in certs)


def test_refute_dominating_wrong_shift_member():
    # t^2 in G_2-with-target-G_1 is rejected as a nonmember, but a
    # doubled shift inside the right group falls to the shift lattice
    w, certs = refute_dominating([t(2)], G(1))
    assert certs[0].variant == "shift_lattice"
    assert verify_negative(certs[0]).ok


def test_refute_dominating_rejects_nonmember():
    with pytest.raises(BoundsError):
        refute_dominating([t(1)], G(2))


@pytest.mark.parametrize("k", [1, 2])
def test_refute_dominating_random(k):
    rng = random.Random(70 + k)
    for _ in range(15):
        S = [
            rand_member(rng, [-2 * k, -k, 0, k, 2 * k])
            for _ in range(rng.randint(1, 10))
        ]
        w, certs = refute_dominating(S, G(k))
        assert len(certs) == len(S)
        assert all(verify_negative(c).ok for c in certs)
        m = max(s.eventual_bound() for s in S)
        assert sorted(w.support) == [m + 1, m + 3, m + 5]


# -- ten-cycle defeats ----------------------------------------------------------------


def test_defeat_ten_g1_translation():
    sigma, cert = defeat_ten(t(1), G(1))
    assert sigma == FinPerm.cycle(1, 3, 5)
    assert cert.variant == "block_system"
    assert verify_negative(cert).ok


def test_defeat_ten_g1_finitary():
    sigma, cert = defeat_ten(parse_element("(1 2 3)"), G(1))
    assert cert.variant == "finitary"
    assert verify_negative(cert).ok


def test_defeat_ten_g2_translation():
    sigma, cert = defeat_ten(t(2), G(2))
    assert sigma == FinPerm.cycle(1, 3, 5)
    assert cert.variant == "invariant_set"
    assert cert.params["orbits"] == ["inf0"]
    assert verify_negative(cert).ok


def test_defeat_ten_sigma_is_in_the_set():
    ds = defeat_set(G(1))
    rng = random.Random(12)
    for _ in range(40):
        h = rand_member(rng, [-3, -2, -1, 0, 1, 2, 3])
        sigma, cert = defeat_ten(h, G(1))
        assert sigma in ds.cycles
        assert verify_negative(cert).ok


def test_defeat_ten_g2_random():
    ds = defeat_set(G(2))
    rng = random.Random(13)
    for _ in range(40):
        h = rand_member(rng, [-4, -2, 0, 2, 4])
        sigma, cert = defeat_ten(h, G(2))
        assert sigma in ds.cycles
        assert verify_negative(cert).ok


def test_defeat_ten_rejects_nonmember():
    with pytest.raises(BoundsError):
        defeat_ten(t(1), G(2))


# -- the obstruction policy --------------------------------------------------------
#
# Each certificate's claim is checked directly: sampled words in (sigma, s)
# must keep the claimed set, classes or blocks, read off walks of s.

WINDOW = range(-25, 26)


@st.composite
def small_perms(draw, even=False):
    pts = draw(st.lists(st.integers(min_value=-8, max_value=8), unique=True, max_size=6))
    perm = FinPerm(dict(zip(pts, draw(st.permutations(pts)))))
    if even and not perm.is_even():
        perm = perm * FinPerm.cycle(9, 10)
    return perm


three_cycles = st.lists(
    st.integers(min_value=-10, max_value=10), min_size=3, max_size=3, unique=True
).map(lambda pts: FinPerm.cycle(*pts))


def _walk(s, x, steps=150):
    """{point: n} for the points (x)s^n, |n| <= steps."""
    pos, inv = {x: 0}, s.inverse()
    for g, sign in ((s, 1), (inv, -1)):
        y = x
        for n in range(1, steps + 1):
            y = g.apply(y)
            pos.setdefault(y, sign * n)
    return pos


def _words(sigma, s, rng, count=12):
    gens = (finitary(sigma), s)
    for _ in range(count):
        w = GroupElement(FinPerm(), 0)
        for _ in range(rng.randint(1, 5)):
            w = w * gens[rng.randint(0, 1)] ** rng.choice([-2, -1, 1, 2])
        yield w


def _check_claim(cert, k, sigma, s, rng):
    """Sampled words in (sigma, s) keep the structure the certificate claims."""
    words = list(_words(sigma, s, rng))
    variant, params = cert.variant, cert.params
    if variant == "finitary":
        assert all(w.shift == 0 for w in words)
    elif variant == "shift_lattice":
        d = abs(s.shift)
        assert d != k and d % k == 0
        assert all(w.shift % d == 0 for w in words)
    elif variant == "invariant_set":
        dec = decompose(s)
        starts = [
            dec.infinite[int(o[3:])].entry if o.startswith("inf") else dec.finite[int(o[3:])][0]
            for o in params["orbits"]
        ]
        U = set().union(*(_walk(s, x) for x in starts))
        assert any(x in U for x in WINDOW) and not all(x in U for x in WINDOW)
        for w in words:
            assert all((x in U) == (w.apply(x) in U) for x in WINDOW)
    elif variant == "block_system":
        m = params["modulus"]
        pos = _walk(s, min(sigma.support))
        for w in words:
            incs = {(pos[w.apply(x)] - pos[x]) % m for x in WINDOW if w.apply(x) in pos}
            assert len(incs) == 1
    else:
        assert variant == "imprimitivity3"
        block = {}
        for a in params["points"]:
            for x, n in _walk(s, a).items():
                assert block.setdefault(x, n) == n
        for w in words:
            for j in range(-5, 6):
                members = [x for x, n in block.items() if n == j]
                assert len(members) == 3
                assert len({block.get(w.apply(x)) for x in members}) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    small_perms(even=True),
    st.sampled_from([-2, -1, -1, 0, 1, 1, 2]),
    st.booleans(),
    three_cycles,
    st.randoms(use_true_random=False),
)
@example(3, FinPerm(), 1, False, FinPerm.cycle(0, 1, 2), random.Random(0))
@example(3, FinPerm.cycle(4, 7, 5), -1, True, FinPerm.cycle(0, 1, 2), random.Random(0))
@example(2, FinPerm.cycle(0, 1, 2), 1, False, FinPerm.cycle(4, 6, 8), random.Random(0))
@example(1, FinPerm.cycle(0, 5, 3), 1, True, FinPerm.cycle(1, 4, 7), random.Random(0))
def test_obstruction_claims_hold(k, fin, m, relabelled, sigma, rng):
    # a relabelled s = fin^-1 t^(mk) fin has no finite orbits
    s = make_s(fin, m * k) if relabelled else finitary(fin) * t(m * k)
    cert = obstruction(G(k), sigma, s, "s")
    if cert is not None:
        assert cert.generators == {"a": finitary(sigma), "s": s}
        assert verify_negative(cert).ok
        _check_claim(cert, k, sigma, s, rng)


@settings(max_examples=60, deadline=None)
@given(small_perms(), st.sampled_from([1, -1]), three_cycles)
def test_obstruction_class_t1_iff_gaps_not_coprime(omega, sign, sigma):
    s = make_s(omega, sign)
    a, b, c = sorted(_walk(s, 0)[x] for x in sigma.support)
    cert = obstruction(G(1), sigma, s, "s")
    assert (cert is None) == (gcd(b - a, c - b) == 1)
    if cert is not None:
        _check_claim(cert, 1, sigma, s, random.Random(a))


@settings(max_examples=60, deadline=None)
@given(small_perms(), st.sampled_from([2, -2]), three_cycles)
def test_obstruction_class_t2_whenever_one_orbit(omega, sign, sigma):
    s = make_s(omega, sign)
    orbit = _walk(s, min(sigma.support))
    one_orbit = all(x in orbit for x in sigma.support)
    cert = obstruction(G(2), sigma, s, "s")
    assert cert is not None or not one_orbit
    if cert is not None:
        _check_claim(cert, 2, sigma, s, random.Random(len(orbit)))


def test_obstruction_refuses_walks_beyond_the_limits():
    far = parse_element("(0 1 1000000000000) t")
    with pytest.raises(BoundsError, match="exceeds the limit"):
        obstruction(G(1), FinPerm.cycle(1, 2, 3), far, "s")
    with pytest.raises(BoundsError, match="exceeds the limit"):
        obstruction(G(1), FinPerm.cycle(1, 2, 10 ** 12), t(1), "s")
    # no walk is needed for a finitary s or a shift off the lattice
    assert obstruction(G(1), FinPerm.cycle(1, 2, 3), far ** 2, "s").variant == "shift_lattice"
