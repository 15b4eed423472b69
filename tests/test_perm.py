import pytest
from hypothesis import given, strategies as st

from houghton.perm import FinPerm, PermError


def brute_compose(a, b, window):
    # independent pointwise oracle for the right-action product
    return {x: b.apply(a.apply(x)) for x in window}


def test_identity():
    e = FinPerm.identity()
    assert e.apply(5) == 5
    assert e.is_identity()
    assert str(e) == "e"
    assert e.is_even()


def test_single_cycle_action():
    c = FinPerm.cycle(1, 2, 3)
    assert c.apply(1) == 2
    assert c.apply(2) == 3
    assert c.apply(3) == 1
    assert c.apply(0) == 0
    assert c.support == frozenset({1, 2, 3})


def test_compose_order_is_left_then_right():
    a = FinPerm.cycle(1, 2)
    b = FinPerm.cycle(2, 3)
    # (1)(a*b): first a sends 1 to 2, then b sends 2 to 3
    assert (a * b).apply(1) == 3
    assert (b * a).apply(1) == 2


def test_compose_against_pointwise_oracle():
    a = FinPerm.from_cycles([(0, 4, 2), (-1, 7)])
    b = FinPerm.from_cycles([(4, -1), (2, 5, 9)])
    window = range(-12, 13)
    expect = brute_compose(a, b, window)
    got = a * b
    for x in window:
        assert got.apply(x) == expect[x]


def test_overlapping_cycles_compose_left_to_right():
    # (1 2)(2 3) means apply (1 2) first: 1->2->3, 2->1, 3->2... check
    p = FinPerm.from_cycles([(1, 2), (2, 3)])
    assert p.apply(1) == 3
    assert p.apply(2) == 1
    assert p.apply(3) == 2
    assert p == FinPerm.cycle(1, 3, 2)


def test_inverse():
    p = FinPerm.from_cycles([(0, 1, 2), (5, 6)])
    assert (p * p.inverse()).is_identity()
    assert p.inverse().apply(1) == 0


def test_power():
    c = FinPerm.cycle(1, 2, 3)
    assert c ** 3 == FinPerm.identity()
    assert c ** -1 == c.inverse()
    assert c ** 2 == c * c


def test_conjugation_relabels_cycles():
    c = FinPerm.cycle(1, 2, 3)
    w = FinPerm.cycle(1, 5)
    assert c.conjugate(w) == FinPerm.cycle(5, 2, 3)


def test_translate():
    c = FinPerm.cycle(0, 1)
    assert c.translate(10) == FinPerm.cycle(10, 11)
    assert c.translate(-3) == FinPerm.cycle(-3, -2)


def test_parity():
    assert FinPerm.cycle(1, 2, 3).is_even()
    assert not FinPerm.cycle(1, 2).is_even()
    assert FinPerm.from_cycles([(1, 2), (3, 4)]).is_even()
    assert not FinPerm.cycle(1, 2, 3, 4).is_even()
    assert FinPerm.from_cycles([(1, 2), (3, 4, 5, 6)]).is_even()


def test_commutator_identity():
    # (2 3)^-1 (1 3)^-1 (2 3)(1 3) = (1 2 3)
    a = FinPerm.cycle(2, 3)
    b = FinPerm.cycle(1, 3)
    comm = a.inverse() * b.inverse() * a * b
    assert comm == FinPerm.cycle(1, 2, 3)


def test_cycles_canonical_form():
    p = FinPerm.from_cycles([(9, 8, 7), (2, 1)])
    assert p.cycles() == ((1, 2), (7, 9, 8))
    assert str(p) == "(1 2)(7 9 8)"


def test_order():
    assert FinPerm.from_cycles([(1, 2), (3, 4, 5)]).order() == 6
    assert FinPerm.identity().order() == 1


def test_parse_roundtrip():
    for text in ["e", "(1 2)", "(0 1)(7 9 8)", "(-3 -1 4)"]:
        assert str(FinPerm.parse(text)) == text


def test_parse_overlap_and_sign():
    assert FinPerm.parse("(1 2)(2 3)") == FinPerm.cycle(1, 3, 2)
    assert FinPerm.parse("(-1 0)").apply(-1) == 0


def test_parse_rejects_unicode_minus():
    with pytest.raises(PermError):
        FinPerm.parse("(−1 0)")


def test_parse_errors():
    for bad in ["", "(1 2", "1 2)", "(a b)", "( )", "(1 1)", "(1 2 1)", "(0 -0)"]:
        with pytest.raises(PermError):
            FinPerm.parse(bad)


def test_bad_mapping_rejected():
    for bad in [{1: 2, 3: 2}, {1: 2}, {1: 2, 2: 2}, {1: 3, 2: 3, 3: 1}, {1: "2", 2: 1}]:
        with pytest.raises(PermError):
            FinPerm(bad)


points = st.integers(min_value=-20, max_value=20)


@st.composite
def perms(draw):
    pts = draw(st.lists(points, unique=True, max_size=8))
    img = draw(st.permutations(pts))
    return FinPerm(dict(zip(pts, img)))


@given(perms(), perms(), perms())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms())
def test_inverse_property(p):
    assert p * p.inverse() == FinPerm.identity()
    assert p.inverse().inverse() == p


@given(perms())
def test_str_parse_roundtrip(p):
    assert FinPerm.parse(str(p)) == p


@given(perms(), perms())
def test_parity_multiplicative(a, b):
    assert (a * b).is_even() == (a.is_even() == b.is_even())


def test_parse_commas_as_whitespace():
    assert FinPerm.parse("(1, 2, 3)(7,9)") == FinPerm.parse("(1 2 3)(7 9)")


# -- trusted paths against pointwise references --------------------------------
#
# Products, inverses, powers, conjugates and translates build their maps
# without validation.  Each reference below evaluates the formula point by
# point and passes the result through the validating constructor, so a
# leaked fixed point or a non-bijection shows up as an inequality or a
# PermError.


def ref_mul(a, b):
    return FinPerm({x: b.apply(a.apply(x)) for x in a.support | b.support})


def ref_inverse(a):
    return FinPerm({a.apply(x): x for x in a.support})


def ref_translate(a, d):
    return FinPerm({x + d: a.apply(x) + d for x in a.support})


def ref_pow(a, n):
    base = a if n >= 0 else ref_inverse(a)
    out = FinPerm()
    for _ in range(abs(n)):
        out = ref_mul(out, base)
    return out


def ref_conjugate(a, w):
    return ref_mul(ref_mul(ref_inverse(w), a), w)


@given(perms(), perms(), st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-13, max_value=13))
def test_trusted_paths_match_pointwise_reference(a, b, d, n):
    assert a * b == ref_mul(a, b)
    assert a.inverse() == ref_inverse(a)
    assert a.translate(d) == ref_translate(a, d)
    assert a ** n == ref_pow(a, n)
    assert a.conjugate(b) == ref_conjugate(a, b)


@given(perms(), perms())
def test_equal_perms_from_different_routes_hash_equal(a, b):
    p = a * b
    routes = [
        p,
        ref_mul(a, b),
        FinPerm.parse(str(p)),
        p.translate(7).translate(-7),
        a * (b * a) * a.inverse(),
        (p ** -1) ** -1,
        p ** (p.order() + 1),
    ]
    assert all(r == p for r in routes)
    assert len({hash(r) for r in routes}) == 1
    assert len(set(routes)) == 1
    ident = [FinPerm(), FinPerm.identity(), p * p.inverse(), p ** 0, p ** p.order()]
    assert len(set(ident)) == 1 and ident[2].is_identity()


def test_power_rotates_cycles():
    c = FinPerm.cycle(1, 2, 3)
    assert c ** 200000 == c ** 2 == c.inverse()
    assert c ** (10 ** 12) == c ** -(10 ** 12 + 1) == c ** 1 == c
    mixed = FinPerm.from_cycles([(1, 2, 3), (4, 5), (6, 7, 8, 9)])
    for n in range(-13, 14):
        assert mixed ** n == ref_pow(mixed, n)
