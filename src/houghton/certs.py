"""Machine-checkable generation certificates.

A positive certificate claims that named generators generate a group G_k
and proves it by a transcript: derivation steps build new elements as
words in what is already available, checkpoint steps pin down expected
values, and axiom steps turn verified hypotheses into facts.  The facts
track what is known to be contained in the generated subgroup; once the
fact "all of Alt(Z)" is on the table, the final rule only needs the
generators to lie in G_k and their shifts to generate kZ.

A negative certificate claims the generators do *not* generate the target
and names a concrete obstruction that the verifier re-checks from scratch.

Soundness rests on the verifier alone: every hypothesis an axiom needs is
recomputed from the actual elements, never trusted from the certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .elem import (
    ElemError,
    Group,
    GroupElement,
    identity,
    member,
    parse_element,
    parse_group,
)
from .orbits import decompose


class CertError(ValueError):
    pass


# The largest |shift| of an element whose orbits the kernel walks: the walk
# in orbits.decompose, and the window of the negative variants, grow
# linearly with it.
MAX_SHIFT = 10 ** 4

# The largest |x| of a point moved by an element whose orbits the kernel
# walks: orbits.decompose covers [-m, m] for the largest such |x| = m, and
# the negative variants check each generator on [-(m + |shift|), m + |shift|],
# however few points the element moves.
MAX_POINT = 10 ** 5

# The largest support of a power or product the kernel keeps: eval_word
# refuses a word as soon as one product moves more points, so that no
# product it forms costs more than twice this.
MAX_SUPPORT = 10 ** 5

# The largest |x| of a point moved by a power or product the kernel keeps.
# CPython hashes an int by its residue mod 2^61 - 1, so points past this
# could collide in the dicts a product builds and make it quadratic: a
# power of an element whose points are spread by multiples of 2^63 took
# minutes, though its support stayed under MAX_SUPPORT.
MAX_WORD_POINT = 2 ** 60


Word = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class Derive:
    name: str
    word: Word


@dataclass(frozen=True)
class CheckEqual:
    name: str
    expected: GroupElement


@dataclass(frozen=True)
class Axiom:
    variant: str
    params: dict


Step = Union[Derive, CheckEqual, Axiom]


@dataclass(frozen=True)
class PositiveCertificate:
    target: Group
    generators: Dict[str, GroupElement]
    steps: Tuple[Step, ...]


@dataclass(frozen=True)
class NegativeCertificate:
    target: Group
    generators: Dict[str, GroupElement]
    variant: str
    params: dict


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> VerifyResult:
    return VerifyResult(False, reason)


def _is_int(v) -> bool:
    """True for an int that is not a bool (JSON true must not read as 1)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _named(env: Dict[str, GroupElement], name) -> Optional[GroupElement]:
    """The element bound to name, or None when name is unbound or not a string."""
    return env.get(name) if isinstance(name, str) else None


def walk_error(gs: Iterable[GroupElement]) -> Optional[str]:
    """Why the kernel will not walk the orbits of gs, or scan a window
    around them, or None.  Every such walk or scan calls this first, and so
    do `bounds.obstruction` and the criterion tests of `construct`."""
    for g in gs:
        if abs(g.shift) > MAX_SHIFT:
            return "|shift| %d exceeds the limit %d" % (abs(g.shift), MAX_SHIFT)
        if g.eventual_bound() > MAX_POINT:
            return "point %d exceeds the limit %d" % (g.eventual_bound(), MAX_POINT)
    return None


def _conjugation(env: Dict[str, GroupElement], word: Word) -> Optional[GroupElement]:
    """a^-e * b^m * a^e for a word (a, -e), (b, m), (a, e), by relabelling.

    None unless both names are bound, the exponents are ints, b^m is
    finitary and |a^e| + |b^m| <= MAX_SUPPORT, so that no product the
    general loop forms could pass the limit; any failure is left to it.
    """
    try:
        (a, neg), (b, m), (a2, e) = word
    except (TypeError, ValueError):
        return None
    x, y = _named(env, a), _named(env, b)
    if (x is None or y is None or a2 != a or not all(map(_is_int, (neg, m, e)))
            or neg != -e or (y.shift and m)):
        return None
    # y^(x^e) moves points of y and of x^e, which lie within |e shift| of
    # those of x, all moved by the shift of x^e; with no shift, it moves
    # only points x and y move, as the general loop reads it
    reach = abs(e * x.shift)
    if reach and max(y.fin.bound(), x.fin.bound() + reach) + reach > MAX_WORD_POINT:
        return None
    try:
        w = x.power(e, MAX_SUPPORT, MAX_WORD_POINT)
        y = y.power(m, MAX_SUPPORT)
    except ElemError:
        return None
    if len(w.fin) + len(y.fin) > MAX_SUPPORT:
        return None
    return y.conjugate(w)


def eval_word(env: Dict[str, GroupElement], word: Word) -> GroupElement:
    """The product of the word's letters.  CertError when a name is unbound,
    an exponent is not an int, or a power or product formed moves more than
    MAX_SUPPORT points, or a point past MAX_WORD_POINT where the word has
    translated points (a letter or partial product with a shift); without
    a shift, a word moves only points that its names move."""
    fast = _conjugation(env, word)
    if fast is not None:
        return fast
    out, far, bound = None, 0, 0
    for name, exp in word:
        g = _named(env, name)
        if g is None:
            raise CertError("unknown name %r in word" % (name,))
        if not _is_int(exp):
            raise CertError("non-integer exponent in word")
        try:
            letter = g.power(exp, MAX_SUPPORT, MAX_WORD_POINT)
        except ElemError as exc:
            raise CertError("%r^%d: %s" % (name, exp, exc)) from exc
        # g^exp moves points within |exp shift| of those g moves, and
        # out * letter those of out and of letter moved by -(shift of out);
        # far is how far the points of out may lie from those of the names
        reach = abs(exp * g.shift)
        if out is None:
            out, far = letter, reach
        else:
            far = max(far, reach + abs(out.shift))
            out = out * letter
        if len(out.fin) > MAX_SUPPORT:
            raise CertError(
                "support %d of the word exceeds the limit %d" % (len(out.fin), MAX_SUPPORT)
            )
        if far:
            bound = max(bound, g.fin.bound() + far)
            if bound > MAX_WORD_POINT:
                bound = out.eventual_bound()
                if bound > MAX_WORD_POINT:
                    raise CertError("point %d of the word exceeds the limit %d"
                                    % (bound, MAX_WORD_POINT))
    return identity() if out is None else out


# -- positive axioms ---------------------------------------------------------

ALT_Z = ("alt_z",)


def _cycle_coords(variant: str, env, params) -> Union[str, List[Tuple[str, int]]]:
    """The sorted (orbit id, position) pairs of the points of the 3-cycle
    params["cycle"] on the orbits of params["s"], or the reason the axiom
    refuses: an unknown name, a cycle that is not a finitary 3-cycle, or an
    s that is finitary, passes the walk limits or has finite orbits."""
    cyc = _named(env, params.get("cycle"))
    s = _named(env, params.get("s"))
    if cyc is None or s is None:
        return "%s: unknown element name" % variant
    if cyc.shift != 0 or not cyc.fin.is_three_cycle():
        return "%s: %s is not a finitary 3-cycle" % (variant, params.get("cycle"))
    if s.shift == 0:
        return "%s: s is finitary" % variant
    err = walk_error([s])
    if err:
        return "%s: %s" % (variant, err)
    dec = decompose(s)
    if dec.finite:
        return "%s: s has finite orbits" % variant
    return sorted(dec.coord(p) for p in cyc.fin.support)


def _axiom_gcd_criterion(env, facts, params) -> Optional[str]:
    """A 3-cycle on one infinite orbit of s, with coprime gaps between the
    consecutive orbit positions of its support, gives Alt of that orbit;
    when s has a single orbit that is Alt(Z)."""
    coords = _cycle_coords("gcd_criterion", env, params)
    if isinstance(coords, str):
        return coords
    (oid, n0), (o1, n1), (o2, n2) = coords
    if not oid == o1 == o2:
        return "gcd_criterion: support spans several orbits of s"
    if gcd(n1 - n0, n2 - n1) != 1:
        return "gcd_criterion: orbit gaps %d, %d are not coprime" % (n1 - n0, n2 - n1)
    facts.add(("alt_on_orbit", params["s"], oid))
    if abs(env[params["s"]].shift) == 1:
        facts.add(ALT_Z)
    return None


def _axiom_g2_seed(env, facts, params) -> Optional[str]:
    """A 3-cycle with two points adjacent on one orbit of s and the third
    on the other, where s has shift +-2 and no finite orbits, generates
    Alt(Z) together with s.  Where s becomes t^2 the orbits are the two
    parities, so this is two points of one parity two apart plus one of
    the other parity."""
    coords = _cycle_coords("g2_seed", env, params)
    if isinstance(coords, str):
        return coords
    if abs(env[params["s"]].shift) != 2:
        return "g2_seed: s is not conjugate to a translation by 2"
    # sorted, the two points on one orbit come first or last
    (o0, n0), (o1, n1), (o2, n2) = coords
    if o0 == o1 == o2:
        return "g2_seed: support has no 2+1 parity split: it lies on one orbit of s"
    gap = n1 - n0 if o0 == o1 else n2 - n1
    if gap != 1:
        return "g2_seed: same-parity points are %d steps apart on their orbit, not 1" % gap
    facts.add(ALT_Z)
    return None


def _axiom_alt_basis(env, facts, params) -> Optional[str]:
    """3-cycles (base+1, base+2, base+j) for j = 3..c+2 together with an
    element that translates the tail beyond base by +-c give Alt of the
    tail {x > base}; since the step element has no finite orbits, every
    point eventually enters the tail and Alt(Z) follows."""
    u = _named(env, params.get("step"))
    if u is None:
        return "alt_basis: unknown step element"
    base = params.get("base")
    c = params.get("c")
    if not _is_int(base) or not _is_int(c) or c < 1:
        return "alt_basis: bad base/c parameters"
    if abs(u.shift) != c:
        return "alt_basis: step element shift is not +-%d" % c
    err = walk_error([u])
    if err:
        return "alt_basis: %s" % err
    if u.eventual_bound() > base:
        return "alt_basis: step element support reaches beyond the base"
    if decompose(u).finite:
        return "alt_basis: step element has finite orbits"
    names = params.get("cycles")
    if not isinstance(names, (list, tuple)):
        return "alt_basis: cycles must be a list of names"
    supports = set()
    for nm in names:
        el = _named(env, nm)
        if el is None:
            return "alt_basis: unknown cycle name %r" % nm
        if el.shift == 0 and el.fin.is_three_cycle():
            supports.add(frozenset(el.fin.support))
    for j in range(3, c + 3):
        if frozenset({base + 1, base + 2, base + j}) not in supports:
            return "alt_basis: missing 3-cycle on {%d, %d, %d}" % (
                base + 1,
                base + 2,
                base + j,
            )
    facts.add(ALT_Z)
    return None


def _axiom_odd_even_mix(env, facts, params) -> Optional[str]:
    """Alt on one of the two orbits of s plus an even finitary element with
    a cycle meeting both orbits give Alt(Z)."""
    s_name = params.get("s")
    s = _named(env, s_name)
    sigma = _named(env, params.get("sigma"))
    if s is None or sigma is None:
        return "odd_even_mix: unknown element name"
    if not any(f[0] == "alt_on_orbit" and f[1] == s_name for f in facts):
        return "odd_even_mix: no alt_on_orbit fact for %r" % s_name
    err = walk_error([s])
    if err:
        return "odd_even_mix: %s" % err
    dec = decompose(s)
    if len(dec.infinite) != 2 or dec.finite:
        return "odd_even_mix: s does not have exactly two orbits, all infinite"
    if sigma.shift != 0 or not sigma.fin.is_even():
        return "odd_even_mix: sigma is not an even finitary element"
    for cyc in sigma.fin.cycles():
        ids = {dec.orbit_id_of(p) for p in cyc}
        if len(ids) == 2:
            facts.add(ALT_Z)
            return None
    return "odd_even_mix: no cycle of sigma meets both orbits of s"


_AXIOMS = {
    "gcd_criterion": _axiom_gcd_criterion,
    "g2_seed": _axiom_g2_seed,
    "alt_basis": _axiom_alt_basis,
    "odd_even_mix": _axiom_odd_even_mix,
}


def verify_positive(cert: PositiveCertificate) -> VerifyResult:
    if cert.target.kind != "Gk":
        return _fail("positive certificates only support G_k targets")
    if not cert.generators:
        return _fail("no generators")
    env: Dict[str, GroupElement] = dict(cert.generators)
    facts: set = set()
    for i, step in enumerate(cert.steps):
        where = "step %d" % i
        if isinstance(step, Derive):
            if not isinstance(step.name, str):
                return _fail("%s: name must be a string" % where)
            if step.name in env:
                return _fail("%s: name %r already bound" % (where, step.name))
            try:
                env[step.name] = eval_word(env, step.word)
            except CertError as exc:
                return _fail("%s: %s" % (where, exc))
        elif isinstance(step, CheckEqual):
            if _named(env, step.name) is None:
                return _fail("%s: unknown name %r" % (where, step.name))
            if env[step.name] != step.expected:
                return _fail(
                    "%s: %r is %s, expected %s"
                    % (where, step.name, env[step.name], step.expected)
                )
        elif isinstance(step, Axiom):
            fn = _AXIOMS.get(step.variant)
            if fn is None:
                return _fail("%s: unknown axiom variant %r" % (where, step.variant))
            err = fn(env, facts, step.params)
            if err:
                return _fail("%s: %s" % (where, err))
        else:
            return _fail("%s: unknown step kind" % where)
    if ALT_Z not in facts:
        return _fail("transcript never establishes Alt(Z)")
    k = cert.target.k
    for name, g in cert.generators.items():
        if not member(g, cert.target):
            return _fail("generator %r is not a member of %s" % (name, cert.target))
    shifts_gcd = 0
    for g in cert.generators.values():
        shifts_gcd = gcd(shifts_gcd, abs(g.shift))
    if shifts_gcd != k:
        return _fail("generator shifts generate %dZ, not %dZ" % (shifts_gcd, k))
    return VerifyResult(True, "verified: generators generate %s" % cert.target)


# -- negative certificates ---------------------------------------------------


# A generator g = sigma t^c moves each x outside supp sigma to x + c.  When
# also |x| > m + |c|, for the bound m of the element whose orbits define
# the set or the classes, x and x + c lie on one tail beyond m, where that
# element's orbits are periodic: on such a tail the set is a union of
# residues mod d = |shift|, and the class of x moves by c / shift.  So
# invariant_set and block_system check g only at supp sigma and at
# [-(m + |c|), m + |c|]; every other x is covered by the tail residues
# (r -> r + c is a bijection mod d, so a residue set closed under it is
# mapped onto itself, and x is in the set exactly when x + c is) or, for
# block_system, by one tail point on each side beyond supp sigma.


def _scan(g: GroupElement, m: int) -> List[int]:
    """The points at which g = sigma t^c is checked against the orbits of
    an element of bound m: [-(m + |c|), m + |c|], then supp sigma beyond it."""
    r = m + abs(g.shift)
    return list(range(-r, r + 1)) + sorted(p for p in g.fin.support if abs(p) > r)


def _neg_finitary(cert) -> VerifyResult:
    for name, g in cert.generators.items():
        if g.shift != 0:
            return _fail("generator %r has nonzero shift" % name)
    return VerifyResult(True, "verified: all generators finitary, target is not")


def _neg_shift_lattice(cert) -> VerifyResult:
    if cert.target.kind != "Gk":
        return _fail("shift_lattice applies to G_k targets only")
    shifts_gcd = 0
    for g in cert.generators.values():
        shifts_gcd = gcd(shifts_gcd, abs(g.shift))
    if shifts_gcd == cert.target.k:
        return _fail("generator shifts do generate %dZ" % cert.target.k)
    return VerifyResult(
        True,
        "verified: shifts generate %dZ instead of %dZ" % (shifts_gcd, cert.target.k),
    )


def _neg_not_in_group(cert) -> VerifyResult:
    name = cert.params.get("witness")
    if _named(cert.generators, name) is None:
        return _fail("not_in_group: unknown generator %r" % name)
    if member(cert.generators[name], cert.target):
        return _fail("not_in_group: %r is a member of %s" % (name, cert.target))
    return VerifyResult(True, "verified: generator %r lies outside %s" % (name, cert.target))


def _neg_invariant_set(cert) -> VerifyResult:
    name = cert.params.get("element")
    if _named(cert.generators, name) is None:
        return _fail("invariant_set: unknown generator %r" % name)
    wanted = cert.params.get("orbits")
    if not isinstance(wanted, (list, tuple)) or not wanted:
        return _fail("invariant_set: orbit list required")
    base = cert.generators[name]
    dec = decompose(base)
    known = {"inf%d" % o.index for o in dec.infinite}
    known.update("fin%d" % i for i in range(len(dec.finite)))
    for oid in wanted:
        if not isinstance(oid, str) or oid not in known:
            return _fail("invariant_set: %r has no orbit %r" % (name, oid))
    chosen_inf = [o for o in dec.infinite if "inf%d" % o.index in wanted]
    chosen_fin = [dec.finite[i] for i in range(len(dec.finite)) if "fin%d" % i in wanted]
    d = abs(base.shift)
    m = dec.bound
    pos_res = {o.pos_residue for o in chosen_inf}
    neg_res = {o.neg_residue for o in chosen_inf}
    inner = set()
    for o in chosen_inf:
        inner.update(o.exceptional_points)
    for cyc in chosen_fin:
        inner.update(cyc)

    def in_U(x: int) -> bool:
        if x > m:
            return bool(chosen_inf) and x % d in pos_res
        if x < -m:
            return bool(chosen_inf) and x % d in neg_res
        return x in inner

    # every listed orbit is nonempty, so the set is; it is everything when
    # the orbits of base cover Z (base has a shift) and all are listed
    if base.shift and set(wanted) == known:
        return _fail("invariant_set: the set is everything")
    for gname, g in cert.generators.items():
        for x in _scan(g, m):
            if in_U(x) != in_U(g.apply(x)):
                return _fail(
                    "invariant_set: generator %r moves %d across the boundary"
                    % (gname, x)
                )
        if chosen_inf:
            sg = g.shift
            for r in pos_res:
                if (r + sg) % d not in pos_res:
                    return _fail(
                        "invariant_set: positive tail not closed under %r" % gname
                    )
            for r in neg_res:
                if (r + sg) % d not in neg_res:
                    return _fail(
                        "invariant_set: negative tail not closed under %r" % gname
                    )
    return VerifyResult(
        True,
        "verified: a proper nonempty set invariant under all generators",
    )


def _neg_block_system(cert) -> VerifyResult:
    mod = cert.params.get("modulus")
    if not _is_int(mod) or mod < 2:
        return _fail("block_system: modulus must be an integer >= 2")
    try:
        s = parse_element(cert.params.get("relabel", ""))
    except ElemError as exc:
        return _fail("block_system: bad relabel element: %s" % exc)
    err = walk_error([s])
    if err:
        return _fail("block_system: relabel element: %s" % err)
    # s is conjugate to t or t^-1 exactly when it is a single infinite orbit;
    # a point's class is its position on that orbit, mod the modulus
    dec = decompose(s) if abs(s.shift) == 1 else None
    if dec is None or dec.finite:
        return _fail("block_system: relabel element is not conjugate to t or t^-1")
    m = dec.bound
    for gname, g in cert.generators.items():
        far = max(m + abs(g.shift), g.eventual_bound()) + 1
        incs = {
            (dec.coord(g.apply(x))[1] - dec.coord(x)[1]) % mod
            for x in _scan(g, m) + [far, -far]
        }
        if len(incs) != 1:
            return _fail(
                "block_system: generator %r is not class-affine mod %d" % (gname, mod)
            )
    return VerifyResult(
        True,
        "verified: all generators act affinely on classes mod %d" % mod,
    )


def _neg_imprimitivity3(cert) -> VerifyResult:
    pts = cert.params.get("points")
    if (
        not isinstance(pts, (list, tuple))
        or len(pts) != 3
        or not all(_is_int(p) for p in pts)
        or len(set(pts)) != 3
    ):
        return _fail("imprimitivity3: need three distinct points")
    a1, a2, a3 = pts
    hname = cert.params.get("h")
    if _named(cert.generators, hname) is None:
        return _fail("imprimitivity3: unknown generator %r" % hname)
    if len(cert.generators) != 2:
        return _fail("imprimitivity3: exactly two generators required")
    (other_name,) = [n for n in cert.generators if n != hname]
    sigma = cert.generators[other_name]
    h = cert.generators[hname]
    from .perm import FinPerm

    cyc = FinPerm.cycle(a1, a2, a3)
    if sigma.shift != 0 or sigma.fin not in (cyc, cyc.inverse()):
        return _fail(
            "imprimitivity3: generator %r is not the 3-cycle on %r" % (other_name, pts)
        )
    dec = decompose(h)
    if not dec.infinite:
        return _fail("imprimitivity3: %r has no infinite orbits" % hname)
    ids = []
    for p in pts:
        oid = dec.orbit_id_of(p)
        if not oid.startswith("inf"):
            return _fail("imprimitivity3: point %d is on a finite orbit of %r" % (p, hname))
        ids.append(oid)
    if len(set(ids)) != 3:
        return _fail("imprimitivity3: the points share an orbit of %r" % hname)
    return VerifyResult(
        True,
        "verified: blocks {(a_i)h^j} form a nontrivial invariant partition",
    )


_NEGATIVES = {
    "finitary": _neg_finitary,
    "shift_lattice": _neg_shift_lattice,
    "invariant_set": _neg_invariant_set,
    "block_system": _neg_block_system,
    "imprimitivity3": _neg_imprimitivity3,
    "not_in_group": _neg_not_in_group,
}
# the variants that decompose generators or scan a window around them
_WALKING_NEGATIVES = ("invariant_set", "block_system", "imprimitivity3")


def verify_negative(cert: NegativeCertificate) -> VerifyResult:
    if not cert.generators:
        return _fail("no generators")
    fn = _NEGATIVES.get(cert.variant)
    if fn is None:
        return _fail("unknown negative variant %r" % cert.variant)
    if cert.variant in _WALKING_NEGATIVES:
        err = walk_error(cert.generators.values())
        if err:
            return _fail("%s: %s" % (cert.variant, err))
    return fn(cert)


def verify(cert) -> VerifyResult:
    if isinstance(cert, PositiveCertificate):
        return verify_positive(cert)
    if isinstance(cert, NegativeCertificate):
        return verify_negative(cert)
    raise CertError("not a certificate: %r" % (cert,))


# -- serialization -----------------------------------------------------------


def _word_to_json(word: Word) -> list:
    return [[name, exp] for name, exp in word]


def _word_from_json(data) -> Word:
    if not isinstance(data, list):
        raise CertError("word must be a list")
    out = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)
                and _is_int(item[1])):
            raise CertError("bad word letter %r" % (item,))
        out.append((item[0], item[1]))
    return tuple(out)


def cert_to_dict(cert) -> dict:
    gens = {n: str(g) for n, g in cert.generators.items()}
    if isinstance(cert, PositiveCertificate):
        steps = []
        for step in cert.steps:
            if isinstance(step, Derive):
                steps.append({"derive": {"name": step.name, "word": _word_to_json(step.word)}})
            elif isinstance(step, CheckEqual):
                steps.append({"check": {"name": step.name, "expected": str(step.expected)}})
            else:
                steps.append({"axiom": {"variant": step.variant, **step.params}})
        return {"target": str(cert.target), "generators": gens, "steps": steps}
    if isinstance(cert, NegativeCertificate):
        return {
            "target": str(cert.target),
            "generators": gens,
            "negative": {"variant": cert.variant, **cert.params},
        }
    raise CertError("not a certificate: %r" % (cert,))


def cert_to_json(cert) -> str:
    return json.dumps(cert_to_dict(cert), sort_keys=True, separators=(",", ":"))


def _object(data, what: str) -> dict:
    """data itself when it is a JSON object, else CertError."""
    if not isinstance(data, dict):
        raise CertError("%s must be a JSON object" % what)
    return data


def _fields(body, kind: str, keys: Sequence[str]) -> dict:
    """The body of a step of this kind, which must hold every key in keys."""
    body = _object(body, "%s step" % kind)
    for key in keys:
        if key not in body:
            raise CertError("%s step needs %r" % (kind, key))
    return body


def cert_from_dict(data: dict):
    data = _object(data, "certificate")
    if not isinstance(data.get("target"), str):
        raise CertError("bad certificate header: target must be a string")
    generators = _object(data.get("generators"), "generators")
    try:
        target = parse_group(data["target"])
        gens = {n: parse_element(s) for n, s in generators.items()}
    except ElemError as exc:
        raise CertError("bad certificate header: %s" % exc) from exc
    if "negative" in data:
        neg = dict(_object(data["negative"], "negative"))
        variant = neg.pop("variant", None)
        if not isinstance(variant, str):
            raise CertError("negative certificate needs a variant")
        return NegativeCertificate(target=target, generators=gens, variant=variant, params=neg)
    raw_steps = data.get("steps", [])
    if not isinstance(raw_steps, list):
        raise CertError("steps must be a list")
    steps: List[Step] = []
    for raw in raw_steps:
        if not isinstance(raw, dict) or len(raw) != 1:
            raise CertError("bad step %r" % (raw,))
        (kind, body), = raw.items()
        if kind == "derive":
            body = _fields(body, kind, ("name", "word"))
            steps.append(Derive(name=body["name"], word=_word_from_json(body["word"])))
        elif kind == "check":
            body = _fields(body, kind, ("name", "expected"))
            try:
                expected = parse_element(body["expected"])
            except ElemError as exc:
                raise CertError("check step: %s" % exc) from exc
            steps.append(CheckEqual(name=body["name"], expected=expected))
        elif kind == "axiom":
            body = dict(_object(body, "axiom step"))
            variant = body.pop("variant", None)
            if not isinstance(variant, str):
                raise CertError("axiom step needs a variant")
            steps.append(Axiom(variant=variant, params=body))
        else:
            raise CertError("unknown step kind %r" % kind)
    return PositiveCertificate(target=target, generators=gens, steps=tuple(steps))


def cert_from_json(text: str):
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses once per nesting level
        raise CertError("invalid JSON: %s" % exc) from exc
    return cert_from_dict(data)
