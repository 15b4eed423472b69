"""Build the frozen certificate corpus of the recheck workload.

    python3 bench/make_corpus.py [--out bench/corpus.json.gz]

Run from the root of a source tree.  Every class is generated from its own
fixed seed with the library in ``src``, so the same source gives the same
file byte for byte.  The recheck workload only reads the file: later
changes to the constructions cannot change its inputs, and certificates
written by this version must keep parsing.

Each entry is a certificate as ``cert_to_json`` writes it, with the
verdict ``certify --check`` must give:

- pos_*: positive certificates of all four axioms (accept);
- neg_*: negative certificates of all six variants, block systems with
  relabel bound up to 160 (accept);
- mut_*: seeded mutations of positive certificates that are rejects by
  construction: a pinned value changed, the target changed, or the final
  axiom dropped (reject).
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from houghton.bounds import defeat_ten, refute_dominating, spread_zero_witness  # noqa: E402
from houghton.certs import (  # noqa: E402
    Axiom, CheckEqual, NegativeCertificate, PositiveCertificate,
    cert_to_json, verify,
)
from houghton.construct import (  # noqa: E402
    ConstructError, gcd_test, pair_partner_g1, pair_partner_g2,
    partner_alt_g1, partner_alt_g2, partner_nonalt, two_gen_alpha,
)
from houghton.elem import G, parse_element, t  # noqa: E402
from houghton.perm import FinPerm  # noqa: E402

PER_CLASS = 64
PER_SMALL_CLASS = 192  # the cheap negative variants have three slots a round
SMALL_VARIANTS = ("finitary", "shift_lattice", "invariant_set", "imprimitivity3")
SEEDS = {
    "pos_nonalt": 101, "pos_ffpair": 102, "pos_gcd": 103, "pos_misc": 104,
    "neg_refuters": 201, "neg_not_in_group": 205,
    "neg_block_lo": 202, "neg_block_mid": 203, "neg_block_hi": 204,
    "mut": 301,
}


def elem(member):
    return parse_element(gen.elem_text(*member))


def nonalt_certs(rng):
    k = rng.choice((1, 2, 3))
    gs = [elem(gen.rand_nonfin(rng, k)) for _ in range(rng.randint(1, 2))]
    return list(partner_nonalt(k, gs).certificates)


def ffpair_certs(rng, failures):
    k = rng.choice((1, 2))
    a, b = (
        parse_element(gen.perm_text(gen.rand_even_fin(rng, span=8, size=(3, 6))))
        for _ in range(2)
    )
    try:
        return list((pair_partner_g1 if k == 1 else pair_partner_g2)(a, b).certificates)
    except ConstructError as exc:
        failures.append("pair_partner_g%d(%s, %s): %s" % (k, a, b, exc))
        return []


def gcd_cert(rng, bound, verdict, npts=None):
    """A gcd_test certificate of the wanted verdict: draws until one comes."""
    while True:
        if npts is None:
            omega = gen.scrambled(rng, bound)
        else:
            omega = gen.sparse_scrambled(rng, bound, npts)
        s = elem(gen.relabelled_translation(omega, rng.choice((1, -1))))
        pts = rng.sample(range(-bound, bound + 1), 3)
        if gen.gcd_verdict(omega, pts) == verdict:
            return gcd_test(FinPerm.cycle(*pts), s).certificate


def odd_even_cert(rng):
    """<a, s, m> = G_2: a 3-cycle with coprime gaps on one orbit of
    s = omega^-1 t^2 omega, and m mixing the two orbits."""
    omega = gen.scrambled(rng, rng.randint(3, 12))
    at = lambda x: omega.get(x, x)  # noqa: E731
    while True:
        x0 = rng.randrange(-12, 12)
        g1, g2 = rng.randint(1, 6), rng.randint(1, 6)
        if math.gcd(g1, g2) == 1:
            break
    pts = [at(x0), at(x0 + 2 * g1), at(x0 + 2 * g1 + 2 * g2)]
    ys = rng.sample([y for y in range(-14, 15) if y % 2 == 0], 2) + rng.sample(
        [y for y in range(-14, 15) if y % 2], 2
    )
    m = gen.perm_text({**gen.cycle_perm((at(ys[0]), at(ys[2]))),
                       **gen.cycle_perm((at(ys[1]), at(ys[3])))})
    gens = {
        "a": parse_element("(%d %d %d)" % tuple(pts)),
        "s": elem(gen.relabelled_translation(omega, 2)),
        "m": parse_element(m),
    }
    steps = (
        Axiom("gcd_criterion", {"cycle": "a", "s": "s"}),
        Axiom("odd_even_mix", {"sigma": "m", "s": "s"}),
    )
    return PositiveCertificate(G(2), gens, steps)


def partner_alt_cert(rng):
    sigma = FinPerm.parse(gen.perm_text(gen.rand_even_fin(rng, span=8, size=(3, 7))))
    fn = partner_alt_g1 if rng.random() < 0.5 else partner_alt_g2
    return fn(sigma).transcript.certificate


def refuter_negatives(rng):
    """Negative certificates from the three refuters on random members."""
    pick = rng.randrange(4)
    if pick == 0:
        k = rng.choice((1, 2))
        shifts = (-3, -2, -1, 0, 1, 2, 3) if k == 1 else (-4, -2, 0, 2, 4)
        return [defeat_ten(elem(gen.rand_member(rng, shifts)), G(k))[1]]
    if pick == 1:
        k = rng.choice((3, 4, 5, 6))
        h = elem(gen.rand_member(rng, [m * k for m in (-2, -1, 0, 1, 2)]))
        return [spread_zero_witness(k, h)[1]]
    if pick == 2:
        # |shift| = 3 with a small support often gives imprimitivity3
        h = elem(gen.rand_member(rng, (-3, 3), span=4))
        return [spread_zero_witness(3, h)[1]]
    k = rng.choice((1, 2))
    S = [elem(gen.rand_member(rng, [m * k for m in (-2, -1, 0, 1, 2)]))
         for _ in range(rng.randint(1, 4))]
    return list(refute_dominating(S, G(k))[1])


def not_in_group_cert(rng):
    """An odd finitary part, or a shift outside kZ, puts a generator
    outside G_k."""
    k = rng.choice((1, 2, 3))
    if k == 1 or rng.random() < 0.5:
        pts = rng.sample(range(-8, 9), rng.choice((2, 4, 6)))
        witness = elem((gen.cycle_perm(pts), rng.choice((0, k, -k))))
    else:
        p, _ = gen.rand_member(rng, [0])
        witness = elem((p, rng.choice((-1, 1)) * (k * rng.randint(0, 2) + 1)))
    return NegativeCertificate(G(k), {"a": witness, "s": t(k)}, "not_in_group", {"witness": "a"})


def mutations(rng, base):
    """A pinned value changed, the target changed, the final axiom dropped."""
    steps = list(base.steps)
    pins = [i for i, s in enumerate(steps) if isinstance(s, CheckEqual)]
    out = {}
    if pins:
        i = rng.choice(pins)
        bad = list(steps)
        bad[i] = CheckEqual(steps[i].name, steps[i].expected * t(1))
        out["mut_pin"] = PositiveCertificate(base.target, base.generators, tuple(bad))
    out["mut_target"] = PositiveCertificate(G(base.target.k + 1), base.generators, base.steps)
    last = max(i for i, s in enumerate(steps) if isinstance(s, Axiom))
    out["mut_axiom"] = PositiveCertificate(
        base.target, base.generators, tuple(steps[:last] + steps[last + 1:])
    )
    return out


def weight(cert) -> int:
    """A cost proxy the workload sorts each class by: relabel bound
    squared times support for block systems, else the JSON length."""
    if isinstance(cert, NegativeCertificate) and cert.variant == "block_system":
        s = parse_element(cert.params["relabel"])
        return s.eventual_bound() ** 2 * (len(s.fin.support) + 1)
    return len(cert_to_json(cert))


def fill(n, make):
    out = []
    while len(out) < n:
        out.extend(make())
    return out[:n]


def build():
    failures = []
    classes = {}
    rng = random.Random(SEEDS["pos_nonalt"])
    classes["pos_nonalt"] = fill(PER_CLASS, lambda: nonalt_certs(rng))
    rng = random.Random(SEEDS["pos_ffpair"])
    classes["pos_ffpair"] = fill(PER_CLASS, lambda: ffpair_certs(rng, failures))
    rng = random.Random(SEEDS["pos_gcd"])
    classes["pos_gcd"] = fill(PER_CLASS, lambda: [gcd_cert(rng, rng.randint(5, 40), "positive")])
    rng = random.Random(SEEDS["pos_misc"])
    misc = [two_gen_alpha(3).certificate, two_gen_alpha(4).certificate]
    misc += fill(31, lambda: [odd_even_cert(rng)])
    misc += fill(PER_CLASS - len(misc), lambda: [partner_alt_cert(rng)])
    classes["pos_misc"] = misc
    rng = random.Random(SEEDS["neg_refuters"])
    small = {v: [] for v in SMALL_VARIANTS}
    while min(len(v) for v in small.values()) < PER_SMALL_CLASS:
        for cert in refuter_negatives(rng):
            pool = small.get(cert.variant)
            if pool is not None and len(pool) < PER_SMALL_CLASS:
                pool.append(cert)
    classes.update(("neg_" + v, certs) for v, certs in small.items())
    rng = random.Random(SEEDS["neg_not_in_group"])
    classes["neg_not_in_group"] = fill(PER_SMALL_CLASS, lambda: [not_in_group_cert(rng)])
    for name, lo, hi, npts in (
        ("neg_block_lo", 5, 40, None),
        ("neg_block_mid", 41, 100, (6, 12)),
        ("neg_block_hi", 101, 160, (6, 12)),
    ):
        rng = random.Random(SEEDS[name])
        classes[name] = fill(PER_CLASS, lambda: [gcd_cert(
            rng, rng.randint(lo, hi), "negative",
            None if npts is None else rng.randint(*npts),
        )])
    rng = random.Random(SEEDS["mut"])
    makers = (
        lambda: [gcd_cert(rng, rng.randint(5, 30), "positive")],
        lambda: ffpair_certs(rng, failures)[:1],
        lambda: nonalt_certs(rng)[:1],
        lambda: [partner_alt_cert(rng)],
    )
    muts = {"mut_pin": [], "mut_target": [], "mut_axiom": []}
    i = 0
    while min(len(v) for v in muts.values()) < PER_CLASS:
        for base in makers[i % len(makers)]():
            for name, cert in mutations(rng, base).items():
                if len(muts[name]) < PER_CLASS:
                    muts[name].append(cert)
        i += 1
    classes.update(muts)

    out = {}
    for name, certs in sorted(classes.items()):
        expect = not name.startswith("mut_")
        entries = []
        for cert in certs:
            if expect and not verify(cert).ok:
                raise SystemExit("%s: a generated certificate does not verify" % name)
            entries.append({"cert": cert_to_json(cert), "expect": expect, "weight": weight(cert)})
        out[name] = entries
    return {
        "version": 1,
        "generator": "bench/make_corpus.py",
        "seeds": SEEDS,
        "construction_failures": failures,
        "classes": out,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="build the recheck corpus")
    ap.add_argument("--out", default=str(HERE / "corpus.json.gz"))
    args = ap.parse_args(argv)
    data = json.dumps(build(), sort_keys=True).encode("ascii")
    with open(args.out, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as f:
            f.write(data)
    print("wrote %s: %d bytes raw" % (args.out, len(data)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
