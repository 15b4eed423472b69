import pytest
from hypothesis import given, settings, strategies as st

from houghton.perm import FinPerm
from houghton import elem
from houghton.elem import (
    GroupElement,
    Group,
    ElemError,
    G,
    H2,
    class_tk_relabel,
    finitary,
    identity,
    in_class_tk,
    make_s,
    member,
    parse_element,
    parse_group,
    t,
)


WINDOW = range(-25, 26)


def test_t_action():
    assert t().apply(5) == 6
    assert t(-3).apply(0) == -3


def test_normal_form_composition():
    # t * (1 2) sends 0 -> 1 -> 2, so it equals (0 1) t^1
    g = t() * finitary(FinPerm.cycle(1, 2))
    assert g == GroupElement(FinPerm.cycle(0, 1), 1)
    assert str(g) == "(0 1) t^1"


def test_compose_pointwise_oracle():
    g = parse_element("(0 3 -2) t^2")
    h = parse_element("(1 -4) t^-1")
    gh = g * h
    for x in WINDOW:
        assert gh.apply(x) == h.apply(g.apply(x))


def test_inverse_pointwise():
    g = parse_element("(0 3 -2)(5 7) t^3")
    gi = g.inverse()
    for x in WINDOW:
        assert gi.apply(g.apply(x)) == x
    assert (g * gi).is_identity()


def test_power():
    g = parse_element("(0 1) t^1")
    assert g ** 0 == identity()
    assert g ** 2 == g * g
    assert g ** -2 == (g * g).inverse()


def test_conjugate_by_translation_shifts_support():
    g = finitary(FinPerm.cycle(1, 2, 3))
    assert g.conjugate(t(5)).fin == FinPerm.cycle(6, 7, 8)


def test_eventual_bound():
    assert t(4).eventual_bound() == 0
    assert parse_element("(-7 2) t^1").eventual_bound() == 7
    assert identity().eventual_bound() == 0


def test_make_s_is_relabelled_translation():
    sigma = FinPerm.cycle(0, 5)
    s = make_s(sigma, 1)
    # s acts as x -> (x)sigma^-1 + 1 then sigma
    for x in WINDOW:
        assert s.apply(x) == sigma.apply(sigma.inverse().apply(x) + 1)
    assert s.shift == 1


def test_str_parse_roundtrip():
    for text in ["e", "t^1", "t^-2", "(1 2 3) t^2", "(0 1) t^1", "(-3 0)(4 5)"]:
        assert str(parse_element(text)) == text


def test_parse_bare_t():
    assert parse_element("t") == t(1)
    assert parse_element("(1 2) t") == parse_element("(1 2) t^1")


def test_parse_rejects_garbage():
    for bad in ["", "t^", "x", "(1 2)t^^2", "(1 2) s", "t^2 (1 2)",
                "(1 1)", "(1 2 1) t", "(3 4 3) t^-2"]:
        with pytest.raises(ElemError):
            parse_element(bad)


def test_parse_rejects_unicode_minus():
    with pytest.raises(ElemError):
        parse_element("t^−1")


def test_groups():
    assert str(H2) == "H2"
    assert str(G(3)) == "G3"
    assert parse_group("G2") == G(2)
    assert parse_group("G_2") == G(2)
    assert parse_group("H2") == H2
    with pytest.raises(ElemError):
        parse_group("F2")
    with pytest.raises(ElemError):
        G(0)


def test_group_grammar():
    # the CLI and certificates read group names with the same grammar
    for text in ("G3", "G_3", "Gk:3", " Gk:3 "):
        assert parse_group(text) == G(3)
    for text in ("Gk:0", "G0", "Gk:", "Gk3", "G_k:3", "Gk:-1", "g3"):
        with pytest.raises(ElemError):
            parse_group(text)


def test_member():
    three = finitary(FinPerm.cycle(1, 2, 3))
    swap = finitary(FinPerm.cycle(1, 2))
    assert member(three, G(1))
    assert member(three, G(5))
    assert not member(swap, G(1))
    assert member(swap, H2)
    assert member(t(4), G(2))
    assert not member(t(3), G(2))
    assert member(three * t(2), G(2))
    assert not member(swap * t(2), G(2))


def test_in_class_tk_translation():
    w = in_class_tk(t(1), 1)
    assert w is not None and w.sign == 1 and w.seeds == (0,)
    w = in_class_tk(t(-2), 2)
    assert w is not None and w.sign == -1 and len(w.seeds) == 2


def test_in_class_tk_wrong_shift():
    assert in_class_tk(t(2), 1) is None
    assert in_class_tk(finitary(FinPerm.cycle(1, 2, 3)), 1) is None


def test_in_class_tk_finite_orbit_rejected():
    # (0 2) t^2 fixes the point 2, so it is not conjugate to t^2
    g = parse_element("(0 2) t^2")
    assert in_class_tk(g, 2) is None


def test_in_class_tk_clean_element_accepted():
    g = parse_element("(0 1) t^2")
    w = in_class_tk(g, 2)
    assert w is not None and w.sign == 1


def _check_witness(g, w):
    # pi(j + n k) = (seed_j) g^n must be injective on a window and
    # intertwine g with the index translation by k
    pi = {}
    for j, seed in enumerate(w.seeds):
        for n in range(-8, 9):
            pi[j + n * w.k] = (g ** n).apply(seed)
    vals = list(pi.values())
    assert len(set(vals)) == len(vals)
    for idx in list(pi):
        if idx + w.k in pi:
            assert g.apply(pi[idx]) == pi[idx + w.k]


def test_witness_conjugacy_for_relabelled_translations():
    for sigma, k in [
        (FinPerm.cycle(0, 5), 1),
        (FinPerm.from_cycles([(0, 3), (1, -4, 7)]), 2),
        (FinPerm.cycle(-2, 6, 1), 3),
    ]:
        s = make_s(sigma, k)
        w = in_class_tk(s, k)
        assert w is not None and w.sign == 1
        _check_witness(s, w)
        si = s.inverse()
        wi = in_class_tk(si, k)
        assert wi is not None and wi.sign == -1
        _check_witness(si, wi)


def test_class_tk_relabel_consistency():
    sigma = FinPerm.cycle(0, 5)
    s = make_s(sigma, 1)
    w = in_class_tk(s, 1)
    rel = class_tk_relabel(s, w, (0, 5, 6))
    # relabelled points must respect the action: rel[(y)s] = rel[y] + sign*k
    for y in (0, 5):
        img = s.apply(y)
        full = class_tk_relabel(s, w, (y, img))
        assert full[img] == full[y] + w.k
    assert len(set(rel.values())) == 3


perm_strategy = st.builds(
    lambda pts, img: FinPerm(dict(zip(pts, img))),
    st.lists(st.integers(min_value=-10, max_value=10), unique=True, max_size=6),
    st.none(),
).flatmap(lambda _: st.just(None))


@st.composite
def small_perms(draw):
    pts = draw(st.lists(st.integers(min_value=-10, max_value=10), unique=True, max_size=6))
    img = draw(st.permutations(pts))
    return FinPerm(dict(zip(pts, img)))


@st.composite
def elements(draw):
    return GroupElement(draw(small_perms()), draw(st.integers(min_value=-4, max_value=4)))


@given(elements(), elements(), elements())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(elements())
def test_inverse_property(g):
    assert (g * g.inverse()).is_identity()
    assert g.inverse().inverse() == g


@given(elements())
def test_roundtrip_property(g):
    assert parse_element(str(g)) == g


@settings(max_examples=60)
@given(small_perms(), st.integers(min_value=1, max_value=3))
def test_make_s_always_in_class(sigma, k):
    s = make_s(sigma, k)
    w = in_class_tk(s, k)
    assert w is not None and w.sign == 1
    _check_witness(s, w)


def test_parse_element_star_and_e_forms():
    assert parse_element("e t^-1") == t(-1)
    assert parse_element("(1 2)*t^2") == parse_element("(1 2) t^2")
    assert parse_element("(1, 2, 3) * t^-1") == parse_element("(1 2 3) t^-1")


# -- trusted products against pointwise references ----------------------------
#
# The product, inverse, power and conjugate of elements are formed without
# validating the finitary part.  Each reference evaluates the action point by
# point on a window beyond which the result is a plain translation, and
# builds the finitary part through the validating FinPerm constructor.


def ref_mul(g, h):
    c = g.shift + h.shift
    w = g.eventual_bound() + h.eventual_bound() + abs(g.shift) + 1
    return GroupElement(FinPerm({x: h.apply(g.apply(x)) - c for x in range(-w, w + 1)}), c)


def ref_inverse(g):
    c = g.shift
    w = g.eventual_bound() + abs(c) + 1
    pre = {g.apply(x): x for x in range(-w - abs(c) - 1, w + abs(c) + 2)}
    return GroupElement(FinPerm({y: pre[y] + c for y in range(-w, w + 1)}), -c)


def ref_pow(g, n):
    base = g if n >= 0 else ref_inverse(g)
    out = identity()
    for _ in range(abs(n)):
        out = ref_mul(out, base)
    return out


def ref_conjugate(g, w):
    return ref_mul(ref_mul(ref_inverse(w), g), w)


@given(elements(), elements(), st.integers(min_value=-9, max_value=9))
def test_trusted_products_match_pointwise_reference(g, h, n):
    assert g * h == ref_mul(g, h)
    assert g.inverse() == ref_inverse(g)
    assert g ** n == ref_pow(g, n)
    assert g.conjugate(h) == ref_conjugate(g, h)


@given(elements(), elements())
def test_equal_elements_from_different_routes_hash_equal(g, h):
    p = g * h
    routes = [p, ref_mul(g, h), parse_element(str(p)), g * (h * g) * g.inverse(),
              (p ** -3) ** -1 * p.inverse() ** 2]
    assert all(r == p for r in routes)
    assert len(set(routes)) == 1
