import functools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from houghton import certs
from houghton.perm import FinPerm
from houghton.elem import (
    G,
    H2,
    GroupElement,
    class_tk_relabel,
    finitary,
    in_class_tk,
    make_s,
    parse_element,
)
from houghton.orbits import decompose
from houghton.bounds import defeat_ten, refute_dominating, spread_zero_witness
from houghton.construct import common_partner, g2_seed_test, gcd_test, two_gen_alpha
from houghton.certs import (
    MAX_POINT,
    MAX_SHIFT,
    MAX_SUPPORT,
    MAX_WORD_POINT,
    Axiom,
    CertError,
    CheckEqual,
    Derive,
    NegativeCertificate,
    PositiveCertificate,
    cert_from_json,
    cert_to_dict,
    cert_to_json,
    eval_word,
    verify,
    verify_negative,
    verify_positive,
)


def gens(**kw):
    return {n: parse_element(s) for n, s in kw.items()}


def pos(target, generators, steps):
    return PositiveCertificate(target=target, generators=generators, steps=tuple(steps))


def neg(target, generators, variant, **params):
    return NegativeCertificate(target=target, generators=generators,
                               variant=variant, params=params)


# -- word evaluation ---------------------------------------------------------


def test_eval_word():
    env = gens(a="(1 2 3)", s="t^1")
    w = (("s", -1), ("a", 1), ("s", 1))
    assert eval_word(env, w) == parse_element("(2 3 4)")
    assert eval_word(env, ()) == parse_element("e")
    with pytest.raises(CertError):
        eval_word(env, (("b", 1),))


# A conjugation word a^-e * y * a^e is evaluated by relabelling y when y is
# finitary; the reference composes the letters point by point and builds the
# value through the validating FinPerm constructor.  Elements move points of
# [-10, 10] and shift by at most 4, letters have |exponent| <= 3, so past
# |x| = 47 the word acts as a plain translation.


def _ref_letter(g, n):
    pre = {g.apply(x): x for x in range(-150, 151)}
    step = g.apply if n > 0 else pre.__getitem__
    def act(x):
        for _ in range(abs(n)):
            x = step(x)
        return x
    return act


def _ref_word(env, word):
    """The value of word, or the CertError text eval_word must raise."""
    for name, exp in word:
        if name not in env:
            return "unknown name %r in word" % (name,)
        if not isinstance(exp, int) or isinstance(exp, bool):
            return "non-integer exponent in word"
    acts = [_ref_letter(env[name], exp) for name, exp in word]
    c = sum(env[name].shift * exp for name, exp in word)
    def value(x):
        for act in acts:
            x = act(x)
        return x
    return GroupElement(FinPerm({x: value(x) - c for x in range(-60, 61)}), c)


@st.composite
def _small_elements(draw, shifted):
    pts = draw(st.lists(st.integers(min_value=-10, max_value=10), unique=True, max_size=6))
    img = draw(st.permutations(pts))
    shift = draw(st.integers(min_value=-4, max_value=4)) if shifted else 0
    return GroupElement(FinPerm(dict(zip(pts, img))), shift)


_NAMES = ["a", "y", "s"]


@given(_small_elements(True), _small_elements(False), _small_elements(True),
       st.sampled_from(_NAMES), st.sampled_from(_NAMES),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3),
       st.sampled_from(["conjugation"] * 4 + ["last exponent", "last name", "unbound", "bool"]),
       st.integers(min_value=0, max_value=2), st.booleans())
def test_conjugation_words_match_pointwise_reference(a, y, s, outer, inner, e, m, kind, at, flag):
    # outer and inner name a shifted a, a finitary y or a shifted s (taken
    # by the general loop), possibly the same one twice, with e = 0 among
    # the exponents; the other kinds break the pattern at one letter, with
    # an unbound name or a bool exponent that must raise as the loop does
    env = {"a": a, "y": y, "s": s}
    word = [[outer, -e], [inner, m], [outer, e]]
    if kind == "last exponent":
        word[2][1] += 1
    elif kind == "last name":
        word[2][0] = _NAMES[(_NAMES.index(outer) + 1) % 3]
    elif kind == "unbound":
        word[at][0] = "u"
    elif kind == "bool":
        word[at][1] = flag
    word = tuple(map(tuple, word))
    want = _ref_word(env, word)
    if isinstance(want, str):
        with pytest.raises(CertError) as exc:
            eval_word(env, word)
        assert str(exc.value) == want
    else:
        assert eval_word(env, word) == want


def _outcome(env, word):
    try:
        return eval_word(env, word)
    except CertError as exc:
        return str(exc)


@given(_small_elements(True), _small_elements(False), st.sampled_from(_NAMES[:2]),
       st.sampled_from(_NAMES[:2]), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=24))
def test_conjugation_words_meet_the_point_limit_as_the_loop_does(a, y, outer, inner, e, m, limit):
    # with the limit among the points the word translates to, the fast
    # path refuses, or hands on, exactly the words the general loop refuses
    env = {"a": a, "y": y}
    word = ((outer, -e), (inner, m), (outer, e))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certs, "MAX_WORD_POINT", limit)
        got = _outcome(env, word)
        mp.setattr(certs, "_conjugation", lambda env, word: None)
        assert got == _outcome(env, word)


def test_conjugation_word_bounded_by_intermediate_product(monkeypatch):
    # a^-1 y moves 9 points, though a^-1 y a moves only y's 3: the word is
    # refused as the general loop refuses it
    monkeypatch.setattr(certs, "MAX_SUPPORT", 8)
    env = {"a": finitary(FinPerm.cycle(*range(6))), "y": finitary(FinPerm.cycle(10, 11, 12)),
           "x": finitary(FinPerm.cycle(10, 11))}
    with pytest.raises(CertError, match="support 9 of the word exceeds the limit 8"):
        eval_word(env, (("a", -1), ("y", 1), ("a", 1)))
    assert eval_word(env, (("a", -1), ("x", 1), ("a", 1))) == finitary(FinPerm.cycle(10, 11))
    # conjugating the shifted t by a moves 6 points, more than a and t together
    monkeypatch.setattr(certs, "MAX_SUPPORT", 5)
    env = {"a": finitary(FinPerm.cycle(0, 10, 20)), "t": parse_element("t")}
    with pytest.raises(CertError, match="support 6 of the word exceeds the limit 5"):
        eval_word(env, (("a", -1), ("t", 1), ("a", 1)))


# -- positive certificates ---------------------------------------------------


def test_g1_three_cycle_and_t():
    cert = pos(G(1), gens(a="(1 2 3)", s="t^1"),
               [Axiom("gcd_criterion", {"cycle": "a", "s": "s"})])
    res = verify_positive(cert)
    assert res.ok, res.reason


def test_g2_seed_certificate():
    cert = pos(G(2), gens(a="(0 1 2)", s="t^2"),
               [Axiom("g2_seed", {"cycle": "a", "s": "s"})])
    res = verify_positive(cert)
    assert res.ok, res.reason


def test_derive_and_check_steps():
    cert = pos(G(1), gens(a="(1 2 3)", s="t^1"),
               [Derive("b", (("s", -1), ("a", 1), ("s", 1))),
                CheckEqual("b", parse_element("(2 3 4)")),
                Axiom("gcd_criterion", {"cycle": "b", "s": "s"})])
    assert verify_positive(cert).ok


def test_check_step_mismatch_rejected():
    cert = pos(G(1), gens(a="(1 2 3)", s="t^1"),
               [Derive("b", (("s", -1), ("a", 1), ("s", 1))),
                CheckEqual("b", parse_element("(2 3 5)")),
                Axiom("gcd_criterion", {"cycle": "b", "s": "s"})])
    res = verify_positive(cert)
    assert not res.ok and "expected" in res.reason


def test_rebinding_name_rejected():
    cert = pos(G(1), gens(a="(1 2 3)", s="t^1"),
               [Derive("a", (("s", 1),)),
                Axiom("gcd_criterion", {"cycle": "a", "s": "s"})])
    assert not verify_positive(cert).ok


def test_gcd_criterion_noncoprime_gaps_rejected():
    # support indices 0, 2, 4 along t: gaps (2, 2)
    cert = pos(G(1), gens(a="(0 2 4)", s="t^1"),
               [Axiom("gcd_criterion", {"cycle": "a", "s": "s"})])
    res = verify_positive(cert)
    assert not res.ok and "coprime" in res.reason


def test_gcd_criterion_requires_single_orbit():
    cert = pos(G(2), gens(a="(0 1 2)", s="t^2"),
               [Axiom("gcd_criterion", {"cycle": "a", "s": "s"})])
    res = verify_positive(cert)
    assert not res.ok and "orbit" in res.reason


def test_gcd_criterion_on_one_orbit_is_not_alt_z():
    # Alt on the even orbit alone must not conclude generation of G_2:
    # without a mixing element the odd orbit is untouched
    cert = pos(G(2), gens(a="(0 2 4)", s="t^2"),
               [Axiom("gcd_criterion", {"cycle": "a", "s": "s"})])
    res = verify_positive(cert)
    assert not res.ok and "Alt(Z)" in res.reason


def test_odd_even_mix_completes_two_orbit_case():
    g = gens(a="(0 2 4)", s="t^2", m="(0 1)(2 3)")
    cert = pos(G(2), g,
               [Axiom("gcd_criterion", {"cycle": "a", "s": "s"}),
                Axiom("odd_even_mix", {"sigma": "m", "s": "s"})])
    res = verify_positive(cert)
    assert res.ok, res.reason


def test_odd_even_mix_requires_mixing_cycle():
    g = gens(a="(0 2 4)", s="t^2", m="(0 2)(4 6)")
    cert = pos(G(2), g,
               [Axiom("gcd_criterion", {"cycle": "a", "s": "s"}),
                Axiom("odd_even_mix", {"sigma": "m", "s": "s"})])
    assert not verify_positive(cert).ok


def test_alt_basis_accepts_basis_cycles():
    g = gens(c3="(1 2 3)", c4="(1 2 4)", u="t^2")
    cert = pos(G(2), g,
               [Axiom("alt_basis", {"step": "u", "base": 0, "c": 2,
                                    "cycles": ["c3", "c4"]})])
    res = verify_positive(cert)
    assert res.ok, res.reason


def test_alt_basis_missing_cycle_rejected():
    g = gens(c3="(1 2 3)", u="t^2")
    cert = pos(G(2), g,
               [Axiom("alt_basis", {"step": "u", "base": 0, "c": 2,
                                    "cycles": ["c3"]})])
    res = verify_positive(cert)
    assert not res.ok and "missing 3-cycle" in res.reason


def test_alt_basis_rejects_step_with_finite_orbits():
    # (0 2) t^2 fixes 2, so it does not sweep every point into the tail
    g = gens(c3="(4 5 6)", c4="(4 5 7)", u="(0 2) t^2")
    cert = pos(G(2), g,
               [Axiom("alt_basis", {"step": "u", "base": 3, "c": 2,
                                    "cycles": ["c3", "c4"]})])
    res = verify_positive(cert)
    assert not res.ok and "finite orbits" in res.reason


def test_g2_seed_rejects_bad_pattern():
    # relabelled support {0, 2, 4}: no opposite-parity point
    cert = pos(G(2), gens(a="(0 2 4)", s="t^2"),
               [Axiom("g2_seed", {"cycle": "a", "s": "s"})])
    res = verify_positive(cert)
    assert not res.ok and "parity" in res.reason


def test_positive_rejects_h2_target():
    cert = pos(H2, gens(a="(1 2 3)", s="t^1"),
               [Axiom("gcd_criterion", {"cycle": "a", "s": "s"})])
    assert not verify_positive(cert).ok


def test_positive_rejects_nonmember_generator():
    cert = pos(G(1), gens(a="(1 2 3)", s="t^1", bad="(1 2)"),
               [Axiom("gcd_criterion", {"cycle": "a", "s": "s"})])
    res = verify_positive(cert)
    assert not res.ok and "member" in res.reason


def test_positive_rejects_wrong_shift_lattice():
    cert = pos(G(1), gens(a="(1 2 3)", s="t^2"),
               [Axiom("gcd_criterion", {"cycle": "a", "s": "s"})])
    res = verify_positive(cert)
    assert not res.ok


def test_positive_needs_alt_z_fact():
    cert = pos(G(1), gens(a="(1 2 3)", s="t^1"), [])
    res = verify_positive(cert)
    assert not res.ok and "Alt(Z)" in res.reason


# -- negative certificates ---------------------------------------------------


def test_finitary_obstruction():
    cert = neg(G(1), gens(a="(1 2 3)", b="(4 5 6)"), "finitary")
    assert verify_negative(cert).ok
    cert = neg(G(1), gens(a="(1 2 3)", s="t^1"), "finitary")
    assert not verify_negative(cert).ok


def test_shift_lattice_obstruction():
    assert verify_negative(neg(G(2), gens(s="t^1"), "shift_lattice")).ok
    assert verify_negative(neg(G(1), gens(s="t^2"), "shift_lattice")).ok
    assert not verify_negative(neg(G(1), gens(s="t^1"), "shift_lattice")).ok
    assert not verify_negative(neg(H2, gens(s="t^1"), "shift_lattice")).ok


def test_not_in_group():
    cert = neg(G(1), gens(a="(1 2)", s="t^1"), "not_in_group", witness="a")
    assert verify_negative(cert).ok
    cert = neg(G(1), gens(a="(1 2 3)", s="t^1"), "not_in_group", witness="a")
    assert not verify_negative(cert).ok


def test_invariant_set_finite_orbit():
    # (0 2) t^2 fixes the point 2; {2} is invariant, so this does not
    # generate G_2
    cert = neg(G(2), gens(g="(0 2) t^2"), "invariant_set",
               element="g", orbits=["fin0"])
    res = verify_negative(cert)
    assert res.ok, res.reason


def test_invariant_set_broken_by_second_generator():
    cert = neg(G(2), gens(g="(0 2) t^2", s="t^2"), "invariant_set",
               element="g", orbits=["fin0"])
    assert not verify_negative(cert).ok


def test_invariant_set_infinite_orbit():
    # the even integers are invariant under t^2
    cert = neg(G(2), gens(s="t^2"), "invariant_set", element="s", orbits=["inf0"])
    res = verify_negative(cert)
    assert res.ok, res.reason


def test_invariant_set_rejects_everything():
    cert = neg(G(2), gens(s="t^2"), "invariant_set",
               element="s", orbits=["inf0", "inf1"])
    res = verify_negative(cert)
    assert not res.ok and "everything" in res.reason


def test_invariant_set_unknown_orbit():
    cert = neg(G(2), gens(s="t^2"), "invariant_set", element="s", orbits=["inf7"])
    assert not verify_negative(cert).ok


def test_block_system():
    # <(0 2 4), t^2> preserves parity
    cert = neg(G(2), gens(a="(0 2 4)", s="t^2"), "block_system",
               relabel="t^1", modulus=2)
    res = verify_negative(cert)
    assert res.ok, res.reason


def test_block_system_rejected_when_not_affine():
    cert = neg(G(1), gens(a="(0 1 2)", s="t^1"), "block_system",
               relabel="t^1", modulus=2)
    res = verify_negative(cert)
    assert not res.ok and "affine" in res.reason


def test_block_system_relabel_must_be_clean():
    cert = neg(G(2), gens(a="(0 2 4)", s="t^2"), "block_system",
               relabel="t^2", modulus=2)
    assert not verify_negative(cert).ok


def test_imprimitivity3():
    cert = neg(G(3), gens(a="(1 2 3)", h="t^3"), "imprimitivity3",
               points=[1, 2, 3], h="h")
    res = verify_negative(cert)
    assert res.ok, res.reason


def test_imprimitivity3_shared_orbit_rejected():
    cert = neg(G(2), gens(a="(1 2 3)", h="t^2"), "imprimitivity3",
               points=[1, 2, 3], h="h")
    res = verify_negative(cert)
    assert not res.ok and "share" in res.reason


def test_imprimitivity3_wrong_sigma_rejected():
    cert = neg(G(3), gens(a="(1 2 4)", h="t^3"), "imprimitivity3",
               points=[1, 2, 3], h="h")
    assert not verify_negative(cert).ok


# -- serialization -----------------------------------------------------------


def test_positive_json_roundtrip():
    cert = pos(G(1), gens(a="(1 2 3)", s="t^1"),
               [Derive("b", (("s", -1), ("a", 1), ("s", 1))),
                CheckEqual("b", parse_element("(2 3 4)")),
                Axiom("gcd_criterion", {"cycle": "b", "s": "s"})])
    text = cert_to_json(cert)
    back = cert_from_json(text)
    assert back == cert
    assert verify(back).ok
    assert cert_to_json(back) == text


def test_negative_json_roundtrip():
    cert = neg(G(2), gens(g="(0 2) t^2"), "invariant_set",
               element="g", orbits=["fin0"])
    back = cert_from_json(cert_to_json(cert))
    assert back == cert
    assert verify(back).ok


def test_from_json_bad_input():
    with pytest.raises(CertError):
        cert_from_json("not json")
    with pytest.raises(CertError):
        cert_from_json('{"target": "G1"}')
    with pytest.raises(CertError):
        cert_from_json('{"target": "X9", "generators": {}}')
    with pytest.raises(CertError):
        cert_from_json("[" * 100000)


def test_unknown_axiom_variant_rejected():
    cert = pos(G(1), gens(a="(1 2 3)", s="t^1"),
               [Axiom("always_true", {})])
    assert not verify_positive(cert).ok


def test_unknown_negative_variant_rejected():
    cert = neg(G(1), gens(s="t^1"), "trust_me")
    assert not verify_negative(cert).ok


# -- hostile parameters: a failing result, never an exception -----------------


def test_block_system_relabel_not_a_string_rejected():
    cert = cert_from_json(
        '{"target": "G1", "generators": {"a": "(0 1 2)", "s": "t"},'
        ' "negative": {"variant": "block_system", "relabel": 5, "modulus": 2}}'
    )
    res = verify(cert)
    assert not res.ok and "relabel" in res.reason


def test_imprimitivity3_unhashable_point_rejected():
    cert = cert_from_json(
        '{"target": "G3", "generators": {"a": "(1 2 3)", "h": "t^3"},'
        ' "negative": {"variant": "imprimitivity3", "points": [1, 2, [3]], "h": "h"}}'
    )
    res = verify(cert)
    assert not res.ok and "points" in res.reason


def test_gcd_criterion_unhashable_name_rejected():
    cert = cert_from_json(
        '{"target": "G1", "generators": {"a": "(1 2 3)", "s": "t"},'
        ' "steps": [{"axiom": {"variant": "gcd_criterion", "cycle": ["a"], "s": "s"}}]}'
    )
    res = verify(cert)
    assert not res.ok and "unknown element name" in res.reason


def test_boolean_exponent_rejected():
    # JSON true must not be read as the exponent 1: x = s^true would pass the
    # pinned check x = t and the certificate would go through
    text = (
        '{"target": "G1", "generators": {"a": "(1 2 3)", "s": "t"},'
        ' "steps": [{"derive": {"name": "x", "word": [["s", true]]}},'
        ' {"check": {"name": "x", "expected": "t"}},'
        ' {"axiom": {"variant": "gcd_criterion", "cycle": "a", "s": "x"}}]}'
    )
    assert verify(cert_from_json(text.replace("true", "1"))).ok
    with pytest.raises(CertError):
        cert_from_json(text)
    cert = pos(G(1), gens(a="(1 2 3)", s="t"),
               [Derive("x", (("s", True),)), CheckEqual("x", parse_element("t")),
                Axiom("gcd_criterion", {"cycle": "a", "s": "x"})])
    res = verify_positive(cert)
    assert not res.ok and "non-integer" in res.reason


def test_boolean_parameters_rejected():
    basis = pos(G(1), gens(u="t", c1="(1 2 3)"),
                [Axiom("alt_basis", {"step": "u", "base": 0, "c": True, "cycles": ["c1"]})])
    assert not verify_positive(basis).ok
    block = neg(G(2), gens(a="(0 2 4)", s="t^2"), "block_system",
                relabel="t^1", modulus=True)
    assert not verify_negative(block).ok
    imp = neg(G(3), gens(a="(1 2 3)", h="t^3"), "imprimitivity3",
              points=[True, 2, 3], h="h")
    assert not verify_negative(imp).ok


def _wide_relabel():
    """s = sigma^-1 t sigma for a scramble sigma of 40 points of [-300, 300]:
    (x)s^n = (n)sigma for x = (0)sigma, and the eventual bound of s is past 300."""
    rng = random.Random(7)
    pts = [-300, 300] + rng.sample(range(-299, 300), 38)
    img = pts[:]
    rng.shuffle(img)
    sigma = FinPerm(dict(zip(pts, img)))
    s = make_s(sigma, 1)
    assert s.eventual_bound() >= 300
    return sigma, s


def test_block_system_with_wide_relabel_element():
    sigma, s = _wide_relabel()
    even = FinPerm.cycle(sigma(0), sigma(2), sigma(4))
    cert = NegativeCertificate(G(1), {"a": finitary(even), "s": s}, "block_system",
                               {"relabel": str(s), "modulus": 2})
    res = verify_negative(cert)
    assert res.ok, res.reason
    odd = FinPerm.cycle(sigma(0), sigma(1), sigma(2))
    cert = NegativeCertificate(G(1), {"a": finitary(odd), "s": s}, "block_system",
                               {"relabel": str(s), "modulus": 2})
    res = verify_negative(cert)
    assert not res.ok and "affine" in res.reason


# -- malformed JSON: CertError, never another exception -----------------------

_GOOD = {
    "target": "G1",
    "generators": {"a": "(1 2 3)", "s": "t"},
    "steps": [
        {"derive": {"name": "b", "word": [["s", -1], ["a", 1], ["s", 1]]}},
        {"check": {"name": "b", "expected": "(2 3 4)"}},
        {"axiom": {"variant": "gcd_criterion", "cycle": "b", "s": "s"}},
    ],
}


def _mutated(**changes):
    data = json.loads(json.dumps(_GOOD))
    data.update(changes)
    return json.dumps(data)


def _with_step(i, step):
    steps = json.loads(json.dumps(_GOOD["steps"]))
    steps[i] = step
    return _mutated(steps=steps)


@pytest.mark.parametrize("text", [
    _mutated(target=5),
    _mutated(generators=["t"]),
    _mutated(negative=5),
    _mutated(steps=5),
    _with_step(0, {"derive": [1]}),
    _with_step(0, {"derive": {"name": "b"}}),
    _with_step(1, {"check": {"name": "b"}}),
    _with_step(2, {"axiom": 5}),
    _with_step(1, {"check": {"name": "b", "expected": "(1 1)"}}),
], ids=["target", "generators", "negative", "steps", "derive-body", "derive-word",
        "check-expected", "axiom-body", "expected-non-bijection"])
def test_malformed_certificate_raises_cert_error(text):
    assert verify(cert_from_json(json.dumps(_GOOD))).ok
    with pytest.raises(CertError):
        cert_from_json(text)


# -- the shift limit: orbit walks are refused before they start -----------------

_HUGE = "t^%d" % 10 ** 12


@pytest.mark.parametrize("cert", [
    pos(G(1), gens(c="(1 2 3)", u=_HUGE),
        [Axiom("alt_basis", {"step": "u", "base": 0, "c": 10 ** 12, "cycles": ["c"]})]),
    neg(G(2), gens(s="t^2", u=_HUGE), "invariant_set", element="s", orbits=["inf0"]),
    neg(G(2), gens(a="(0 2 4)", u=_HUGE), "block_system", relabel="t^1", modulus=2),
    neg(G(3), gens(a="(1 2 3)", h=_HUGE), "imprimitivity3", points=[1, 2, 3], h="h"),
], ids=["alt_basis", "invariant_set", "block_system", "imprimitivity3"])
def test_shift_beyond_limit_rejected_quickly(cert):
    start = time.perf_counter()
    res = verify(cert)
    assert time.perf_counter() - start < 1.0
    assert not res.ok and "exceeds the limit %d" % MAX_SHIFT in res.reason


def test_one_step_gcd_certificate_with_huge_shift_rejected_within_a_second():
    text = json.dumps({
        "target": "G1",
        "generators": {"a": "(1 2 3)", "s": _HUGE},
        "steps": [{"axiom": {"variant": "gcd_criterion", "cycle": "a", "s": "s"}}],
    })
    start = time.perf_counter()
    res = verify(cert_from_json(text))
    assert time.perf_counter() - start < 1.0
    assert not res.ok and "exceeds the limit %d" % MAX_SHIFT in res.reason
    at_limit = pos(G(1), gens(a="(1 2 3)", s="t^%d" % MAX_SHIFT),
                   [Axiom("gcd_criterion", {"cycle": "a", "s": "s"})])
    assert "limit" not in verify(at_limit).reason


# -- the point limit: a walk that would cover a far point is refused --------------

_FAR = "(0 %d)" % 10 ** 12


@pytest.mark.parametrize("text", [
    # the window of block_system was a list of 2 * 10^12 points
    json.dumps({"target": "G1", "generators": {"g": _FAR, "h": "t"},
                "negative": {"variant": "block_system", "modulus": 2, "relabel": "t"}}),
    json.dumps({"target": "G1", "generators": {"g": _FAR, "h": "t"},
                "negative": {"variant": "invariant_set", "element": "h", "orbits": ["inf0"]}}),
], ids=["block_system", "invariant_set"])
def test_far_point_certificates_rejected_within_a_second(text):
    start = time.perf_counter()
    res = verify(cert_from_json(text))
    assert time.perf_counter() - start < 1.0
    assert not res.ok and "exceeds the limit %d" % MAX_POINT in res.reason


_FAR_T = "(0 %d) t^2" % (MAX_POINT + 1)


@pytest.mark.parametrize("cert", [
    pos(G(2), gens(c="(1 2 3)", s=_FAR_T), [Axiom("g2_seed", {"cycle": "c", "s": "s"})]),
    pos(G(1), gens(c="(1 2 3)", s="(0 %d) t" % (MAX_POINT + 1)),
        [Axiom("gcd_criterion", {"cycle": "c", "s": "s"})]),
    pos(G(2), gens(c="(1 2 3)", u=_FAR_T),
        [Axiom("alt_basis", {"step": "u", "base": 10 ** 6, "c": 2, "cycles": ["c"]})]),
    neg(G(1), gens(a="(0 2 4)", s="t"), "block_system",
        relabel="(0 %d) t" % (MAX_POINT + 1), modulus=2),
    neg(G(3), gens(a="(1 2 3)", h="(0 %d) t^3" % (MAX_POINT + 1)),
        "imprimitivity3", points=[1, 2, 3], h="h"),
], ids=["g2_seed", "gcd_criterion", "alt_basis", "block_system_relabel", "imprimitivity3"])
def test_point_beyond_limit_rejected_at_every_walk(cert):
    start = time.perf_counter()
    res = verify(cert)
    assert time.perf_counter() - start < 1.0
    assert not res.ok and "exceeds the limit %d" % MAX_POINT in res.reason


def test_point_at_limit_is_walked():
    s = "(0 %d) t" % MAX_POINT
    cert = pos(G(1), gens(c="(1 2 3)", s=s), [Axiom("gcd_criterion", {"cycle": "c", "s": "s"})])
    assert "limit" not in verify(cert).reason


# -- the support limit: a power or product that grows past it is refused --


def _rejected_within_a_second(cert):
    start = time.perf_counter()
    res = verify(cert)
    assert time.perf_counter() - start < 1.0
    assert not res.ok and "exceeds the limit %d" % MAX_SUPPORT in res.reason


def test_huge_exponent_rejected_quickly():
    # (0 5) t to the n moves n + 5 points: a square on the way outgrows the limit
    steps = [Derive("x", (("s", 10 ** 12),))]
    _rejected_within_a_second(pos(G(1), gens(s="(0 5) t"), steps))


@pytest.mark.parametrize("exps", [(2,), (1, 1)], ids=["power", "product"])
def test_squaring_chain_rejected_quickly(exps):
    # x_{i+1} = x_i^2, written as one letter or as a product of two
    steps = [Derive("x0", (("s", 1),))]
    for i in range(60):
        steps.append(Derive("x%d" % (i + 1), tuple(("x%d" % i, e) for e in exps)))
    _rejected_within_a_second(pos(G(1), gens(s="(0 5) t"), steps))


def test_support_limit_reads_actual_supports():
    # a finitary power never grows, whatever the exponent
    c = finitary(FinPerm.cycle(*range(MAX_SUPPORT)))
    assert eval_word({"c": c}, (("c", 10 ** 12 + 1),)) == c
    # nor does a power of h = w^-1 t w: h^n = w^-1 t^n w moves at most
    # 2 |supp w| points, though n |supp w| is far above the limit
    w = FinPerm.cycle(0, 5, 9)
    assert eval_word({"h": make_s(w, 1)}, (("h", 10 ** 9),)) == make_s(w, 10 ** 9)
    # a product that does outgrow the limit is refused
    env = {"c": c, "d": finitary(FinPerm.cycle(-1, -2))}
    with pytest.raises(CertError, match="exceeds the limit"):
        eval_word(env, (("c", 1), ("d", 1)))


# -- the word point limit: a power whose points pass it is refused -------------


def test_far_word_points_rejected_quickly():
    # h^(2^63) moves few points, but near -2^63; the powers of a below
    # move points 2^63 apart, which CPython hashes alike (2^63 = 4 mod
    # 2^61 - 1): a square of a took minutes before the point limit
    h = "(-1 1)(0 5)(6 7 8)(44 45 49) t"
    steps = [Derive("a", (("h", -4), ("g", 1), ("h", 2 ** 63))),
             Derive("b", (("a", 10 ** 12), ("g", 1), ("a", 1)))]
    start = time.perf_counter()
    res = verify(pos(G(1), gens(g="(1 2 3 4 5)", h=h), steps))
    assert time.perf_counter() - start < 1.0
    assert not res.ok and "exceeds the limit %d" % MAX_WORD_POINT in res.reason


def test_word_point_limit_reads_translated_points():
    # t^-1 (0 L-1) moves (1 L), t^-2 (0 L-1) moves (2 L+1)
    L = MAX_WORD_POINT
    env = {"c": finitary(FinPerm.cycle(0, L - 1)), "t": parse_element("t")}
    assert eval_word(env, (("t", -1), ("c", 1))) == GroupElement(FinPerm.cycle(1, L), -1)
    with pytest.raises(CertError, match="point %d of the word exceeds the limit %d" % (L + 1, L)):
        eval_word(env, (("t", -2), ("c", 1)))
    # a word without a shift moves only points its names move
    far = finitary(FinPerm.cycle(0, L + 1))
    assert eval_word({"c": far}, (("c", 1),)) == far


# -- the scanning negatives check each generator on its own window --------


def _global_window_ok(cert) -> bool:
    """invariant_set and block_system as the kernel checked them before it
    scanned each generator on its own window: every generator at every
    |x| <= W, W = the largest bound plus 4 |shift| + 8 over the generators
    and the base or relabel element, plus (block_system) one far point on
    each side, and the tail closure (invariant_set)."""
    elems = list(cert.generators.values())
    if cert.variant == "invariant_set":
        base = cert.generators[cert.params["element"]]
        wanted = cert.params["orbits"]
        dec = decompose(base)
        chosen_inf = [o for o in dec.infinite if "inf%d" % o.index in wanted]
        chosen_fin = [c for i, c in enumerate(dec.finite) if "fin%d" % i in wanted]
        d, m = abs(base.shift), dec.bound
        pos_res = {o.pos_residue for o in chosen_inf}
        neg_res = {o.neg_residue for o in chosen_inf}
        inner = {p for o in chosen_inf for p in o.exceptional_points}
        inner.update(p for c in chosen_fin for p in c)

        def in_U(x):
            if x > m:
                return bool(chosen_inf) and x % d in pos_res
            if x < -m:
                return bool(chosen_inf) and x % d in neg_res
            return x in inner

        elems.append(base)
        W = max(g.eventual_bound() for g in elems) + 4 * max(abs(g.shift) for g in elems) + 8
        window = range(-W, W + 1)
        if not any(map(in_U, window)):
            return False
        if all(map(in_U, window)) and (not chosen_inf or (len(pos_res) == d == len(neg_res))):
            return False
        for g in cert.generators.values():
            if any(in_U(x) != in_U(g.apply(x)) for x in window):
                return False
            if chosen_inf and any((r + g.shift) % d not in pos_res for r in pos_res):
                return False
            if chosen_inf and any((r + g.shift) % d not in neg_res for r in neg_res):
                return False
        return True
    s = parse_element(cert.params["relabel"])
    dec = decompose(s)
    elems.append(s)
    W = max(g.eventual_bound() for g in elems) + 4 * max(abs(g.shift) for g in elems) + 8
    far = W + 1 + s.eventual_bound()
    mod = cert.params["modulus"]
    return all(
        len({(dec.coord(g.apply(x))[1] - dec.coord(x)[1]) % mod
             for x in list(range(-W, W + 1)) + [far, -far]}) == 1
        for g in cert.generators.values()
    )


def _small_perm(rng, span):
    pts = rng.sample(range(-span, span + 1), rng.choice([0, 2, 2, 3, 4]))
    return FinPerm.from_cycles([tuple(pts)]) if len(pts) >= 2 else FinPerm()


def _generator(rng, base, span):
    """A power of base, a power of base times a transposition of two points
    one period apart on a tail (which may or may not keep the orbits), a
    translation by a multiple of the shift of base (which keeps each tail's
    residues but may carry a point from one tail to the other), or a random
    element."""
    kind = rng.randrange(4)
    g = base ** rng.randint(-2, 2)
    if kind == 1 and base.shift:
        x = rng.choice([-1, 1]) * rng.randint(span + 1, 3 * span)
        g = g * finitary(FinPerm.cycle(x, x + abs(base.shift) * rng.randint(1, 3)))
    elif kind == 2:
        g = GroupElement(FinPerm(), base.shift * rng.randint(-4, 4))
    elif kind == 3:
        g = finitary(_small_perm(rng, span)) * GroupElement(FinPerm(), rng.randint(-4, 4))
    return g


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["invariant_set", "block_system"]))
def test_scanning_negatives_match_the_global_window(rng, variant):
    span = rng.choice([3, 6])
    if variant == "invariant_set":
        base = finitary(_small_perm(rng, span)) * GroupElement(FinPerm(), rng.randint(-3, 3))
        dec = decompose(base)
        known = ["inf%d" % o.index for o in dec.infinite]
        known += ["fin%d" % i for i in range(len(dec.finite))]
        if not known:
            return
        params = {"element": "b", "orbits": rng.sample(known, rng.randint(1, len(known)))}
    else:
        base = make_s(_small_perm(rng, span) * FinPerm.cycle(span + 1, span + 2),
                      rng.choice([-1, 1]))
        params = {"relabel": str(base), "modulus": rng.randint(2, 4)}
    generators = {"b": base}
    for i in range(rng.randint(0, 3)):
        generators["g%d" % i] = _generator(rng, base, span)
    cert = NegativeCertificate(G(1), generators, variant, params)
    assert verify_negative(cert).ok == _global_window_ok(cert)


def test_far_generators_are_checked_on_their_own_windows():
    # 50 generators t^2 and (2i 99900+2i) t^2: every transposition keeps the
    # even orbit of t^2, and each generator is checked at about 5 points
    generators = {"g0": "t^2"}
    generators.update(("g%d" % i, "(%d %d) t^2" % (2 * i, 99900 + 2 * i)) for i in range(1, 50))
    cert = neg(G(2), gens(**generators), "invariant_set", element="g0", orbits=["inf0"])
    start = time.perf_counter()
    res = verify(cert_from_json(cert_to_json(cert)))
    assert time.perf_counter() - start < 0.1
    assert res.ok
    # one far transposition of an even and an odd point breaks it
    generators["g50"] = "(4 99901) t^2"
    cert = neg(G(2), gens(**generators), "invariant_set", element="g0", orbits=["inf0"])
    assert not verify(cert).ok


def test_block_system_checks_the_tail_beyond_the_support():
    # (-1 0)(1 2)(3 4)(5 6) moves every point of the window [-1, 1] and its
    # support by an odd step, but the tail beyond it by 0: not class-affine
    cert = neg(G(1), gens(a="(-1 0)(1 2)(3 4)(5 6)", s="t"), "block_system",
               relabel="t", modulus=2)
    assert not verify(cert).ok


# -- g2_seed reads the orbits of s --------------------------------------------


def _g2_seed_reference(cycle: FinPerm, s: GroupElement) -> bool:
    """The g2_seed test as the kernel made it before it read the orbits of s
    directly: relabel where s becomes t^2, then two points of one parity two
    apart plus one point of the other parity."""
    w = in_class_tk(s, 2)
    if w is None:
        return False
    vals = sorted(class_tk_relabel(s, w, tuple(cycle.support)).values())
    evens = [v for v in vals if v % 2 == 0]
    odds = [v for v in vals if v % 2]
    pair, lone = (evens, odds) if len(evens) == 2 else (odds, evens)
    return len(pair) == 2 and len(lone) == 1 and pair[1] - pair[0] == 2


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_g2_seed_matches_the_relabelled_parity_pattern(rng):
    span = rng.choice([3, 6, 10])
    if rng.random() < 0.8:
        s = make_s(_small_perm(rng, span), rng.choice([-2, 2]))
    else:  # may have finite orbits
        s = finitary(_small_perm(rng, span)) * GroupElement(FinPerm(), rng.choice([-2, 2]))
    cycle = FinPerm.cycle(*rng.sample(range(-span - 3, span + 4), 3))
    env = {"a": finitary(cycle), "s": s}
    err = certs._axiom_g2_seed(env, set(), {"cycle": "a", "s": "s"})
    assert (err is None) == _g2_seed_reference(cycle, s)


# -- structural fuzzing: any mutated certificate gets a verdict ------------------


@functools.lru_cache(maxsize=None)
def _fuzz_bases():
    """JSON texts of certificates of every step kind, axiom and negative
    variant, built by the library and by hand."""
    el = parse_element
    certs_ = [
        gcd_test(FinPerm.cycle(1, 4, 9), make_s(FinPerm.cycle(0, 5, 3), 1)).certificate,
        gcd_test(FinPerm.cycle(-2, 0, 4), el("t")).certificate,
        g2_seed_test(FinPerm.cycle(1, 2, 3), el("t^2")).certificate,
        *common_partner(1, [el("(1 2 3 4 5)"), el("(0 1 2) t")]).certificates,
        *common_partner(2, [el("(1 2)(3 4)"), el("(0 1 2) t^-2")]).certificates,
        two_gen_alpha(3).certificate,
        defeat_ten(el("t^2"), G(2))[1],
        spread_zero_witness(3, el("(1 2 3) t^3"))[1],
        *refute_dominating([el(x) for x in ("t", "(0 1 2)", "(0 2 4) t^2")], G(1))[1],
        pos(G(2), gens(a="(0 2 4)", s="t^2", m="(0 1)(2 3)"),
            [Axiom("gcd_criterion", {"cycle": "a", "s": "s"}),
             Axiom("odd_even_mix", {"sigma": "m", "s": "s"})]),
        neg(G(1), gens(a="(1 2)", s="t^1"), "not_in_group", witness="a"),
    ]
    return tuple(cert_to_json(c) for c in certs_)


_NEST = "__nested__"
_FAR = ["(0 1000000000000)", "(1 2 3) t^1000000000000", "(-100001 5 100001)",
        "(0 99999 100000) t^9999", "t^-10001"]


def _slots(node, path=()):
    """(path, value) of every value below node, depth first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, val in items:
        yield path + (key,), val
        yield from _slots(val, path + (key,))


def _put(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


def _mutate(data, rng) -> None:
    """Apply one structural mutation to data in place, if the one drawn fits."""
    slots = list(_slots(data))
    kind = rng.choice(["drop", "dup", "swap", "int", "far", "nest"])
    steps = data.get("steps")
    if kind in ("drop", "dup", "swap"):
        if isinstance(steps, list) and steps:
            i, j = rng.randrange(len(steps)), rng.randrange(len(steps))
            if kind == "drop":
                del steps[i]
            elif kind == "dup":
                steps.insert(j, json.loads(json.dumps(steps[i])))
            else:
                steps[i], steps[j] = steps[j], steps[i]
        return
    if kind == "int":
        paths = [p for p, v in slots if isinstance(v, int) and not isinstance(v, bool)]
        value = rng.choice([10 ** 12, -10 ** 12, 2 ** 63, True, False])
    elif kind == "far":
        paths = [p for p, v in slots if isinstance(v, str) and ("(" in v or "t" in v)]
        value = rng.choice(_FAR)
    else:
        paths, value = [p for p, _ in slots], _NEST
    if paths:
        _put(data, rng.choice(paths), value)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_structurally_mutated_certificates_get_a_verdict_within_two_seconds(rng):
    data = json.loads(rng.choice(_fuzz_bases()))
    for _ in range(rng.randint(1, 3)):
        _mutate(data, rng)
    text = json.dumps(data)
    if _NEST in text:
        # built as text: about 900 levels would pass the encoder's own
        # recursion limit inside the test runner
        depth = rng.randint(850, 950)
        text = text.replace('"%s"' % _NEST, "[" * depth + "7" + "]" * depth)
    start = time.perf_counter()
    try:
        res = verify(cert_from_json(text))
    except CertError:
        res = None
    assert time.perf_counter() - start < 2.0, text[:300]
    assert res is None or isinstance(res, certs.VerifyResult)
