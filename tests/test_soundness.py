"""Semantic spot checks behind accepted negative certificates.

When the verifier accepts a block-system or invariant-set certificate,
random words in the generators must actually respect the claimed
structure.  These tests sample words and check the structure directly,
independently of the verifier's own logic.
"""

import random
from itertools import product
from math import gcd

from houghton.perm import FinPerm
from houghton.elem import G, finitary, t
from houghton.orbits import decompose
from houghton.certs import eval_word, verify_negative
from houghton.bounds import defeat_ten, refute_dominating
from houghton.construct import gcd_test


def _random_words(env, rng, count=40, length=8):
    names = sorted(env)
    for _ in range(count):
        word = tuple(
            (rng.choice(names), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, length))
        )
        yield eval_word(env, word)


def test_block_system_words_are_class_affine():
    # every blocked pair from the gcd grid: since the orbit coordinate
    # under t is the point itself, acting affinely on classes mod d means
    # w(x) - x is constant mod d across the whole line
    rng = random.Random(5)
    for a, b in product(range(-6, 0), range(1, 7)):
        d = gcd(-a, b)
        if d == 1:
            continue
        res = gcd_test(FinPerm.cycle(a, 0, b), t(1))
        assert res.certificate.variant == "block_system"
        m = res.certificate.params["modulus"]
        assert m == d
        env = {"a": finitary(FinPerm.cycle(a, 0, b)), "s": t(1)}
        for w in _random_words(env, rng, count=8, length=6):
            vals = {(w.apply(x) - x) % m for x in range(-30, 31)}
            assert len(vals) == 1, (a, b, str(w))


def test_invariant_set_words_preserve_the_set():
    rng = random.Random(9)
    sigma, cert = defeat_ten(t(2), G(2))
    assert cert.variant == "invariant_set"
    assert verify_negative(cert).ok
    env = dict(cert.generators)
    assert env["h"] == t(2) and env["a"] == finitary(sigma)
    ref = env[cert.params["element"]]
    dec = decompose(ref)
    members = set()
    for oid in cert.params["orbits"]:
        if oid.startswith("inf"):
            members.update(
                x for x in range(-40, 41) if dec.orbit_id_of(x) == oid
            )
        else:
            members.update(dec.finite[int(oid[3:])])
    assert members
    for w in _random_words(env, rng, count=40, length=8):
        for x in sorted(members):
            y = w.apply(x)
            if -30 <= y <= 30:
                assert dec.orbit_id_of(y) in cert.params["orbits"], (str(w), x, y)


def test_refutation_certs_reverify_and_share_the_witness():
    S = [t(2), finitary(FinPerm.cycle(0, 1, 2)), t(-4) * finitary(FinPerm.cycle(1, 3, 5))]
    gamma, certs = refute_dominating(S, G(2))
    assert len(certs) == len(S)
    for cert in certs:
        assert verify_negative(cert).ok
        assert cert.generators["a"] == finitary(gamma)
