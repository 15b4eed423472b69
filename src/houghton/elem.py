"""Elements of the second Houghton group H_2.

Every element has a unique normal form g = sigma * t^c where sigma is a
finitely supported permutation, t is the translation z -> z+1, and c is an
integer.  The action is on the right: (x)g = (x)sigma + c.

The subgroups of interest are G_k = <Alt(Z), t^k>; an element sigma * t^c
lies in G_k exactly when k divides c and sigma is even.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .orbits import OrbitDecomposition, decompose
from .perm import FinPerm, PermError


class ElemError(ValueError):
    pass


@dataclass(frozen=True)
class GroupElement:
    fin: FinPerm
    shift: int

    # -- action ----------------------------------------------------------

    def apply(self, x: int) -> int:
        return self.fin.apply(x) + self.shift

    def __call__(self, x: int) -> int:
        return self.fin.apply(x) + self.shift

    def is_identity(self) -> bool:
        return self.shift == 0 and self.fin.is_identity()

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """(x)(g*h) = ((x)g)h.

        In normal form: sigma_g t^c * sigma_h t^d = sigma_g * tau * t^(c+d)
        where tau = t^c sigma_h t^-c moves the support of sigma_h by -c;
        the product x -> ((x)sigma_g + c)sigma_h - c is formed in one pass.
        """
        if not isinstance(other, GroupElement):
            return NotImplemented
        fin = self.fin._mul_translated(other.fin, -self.shift)
        return GroupElement(fin, self.shift + other.shift)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.fin.inverse().translate(self.shift), -self.shift)

    def __pow__(self, n: int) -> "GroupElement":
        return self.power(n)

    def power(self, n: int, limit: Optional[int] = None,
              point_limit: Optional[int] = None) -> "GroupElement":
        """self^n by repeated squaring.

        With a limit, raise ElemError as soon as a product moves more
        than limit points, so that no product costs more than twice the
        limit; with a point_limit, as soon as a product moves a point x
        with |x| > point_limit.
        """
        if n == 0:
            return identity()
        if not self.shift:
            return GroupElement(self.fin ** n, 0)
        # every product below is a power self^j, 0 < |j| <= |n|, whose
        # points lie within |j * shift| of those of self
        if point_limit is not None and self.eventual_bound() + abs(n * self.shift) <= point_limit:
            point_limit = None
        base = self if n > 0 else self.inverse()
        n = abs(n)
        out = None
        while True:
            if n & 1:
                out = base if out is None else _bounded(out * base, limit, point_limit)
            n >>= 1
            if not n:
                return out
            base = _bounded(base * base, limit, point_limit)

    def conjugate(self, w: "GroupElement") -> "GroupElement":
        """self^w = w^-1 * self * w.

        For w = tau t^c, a finitary self is relabelled in one pass: each
        cycle (a b ...) becomes ((a)tau+c (b)tau+c ...).
        """
        if not self.shift:
            return GroupElement(self.fin.conjugate(w.fin).translate(w.shift), 0)
        return w.inverse() * self * w

    def eventual_bound(self) -> int:
        """Least m >= 0 such that (x)g = x + shift whenever |x| > m."""
        return self.fin.bound()

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_identity():
            return "e"
        if self.shift == 0:
            return str(self.fin)
        if self.fin.is_identity():
            return "t^%d" % self.shift
        return "%s t^%d" % (self.fin, self.shift)

    def __repr__(self) -> str:
        return "GroupElement(%s)" % str(self)


def identity() -> GroupElement:
    return GroupElement(FinPerm.identity(), 0)


def _bounded(g: GroupElement, limit: Optional[int],
             point_limit: Optional[int] = None) -> GroupElement:
    if limit is not None and len(g.fin) > limit:
        raise ElemError("support %d exceeds the limit %d" % (len(g.fin), limit))
    if point_limit is not None and g.eventual_bound() > point_limit:
        raise ElemError("point %d exceeds the limit %d" % (g.eventual_bound(), point_limit))
    return g


def t(k: int = 1) -> GroupElement:
    return GroupElement(FinPerm.identity(), k)


def finitary(sigma: FinPerm) -> GroupElement:
    return GroupElement(sigma, 0)


def make_s(sigma: FinPerm, k: int = 1) -> GroupElement:
    """s = sigma^-1 t^k sigma, the relabelled translation by k."""
    w = finitary(sigma)
    return w.inverse() * t(k) * w


_ELEM_RE = re.compile(
    r"^\s*(?P<cycles>e|(?:\([^()]*\)\s*)*)\s*(?:\*\s*)?(?P<t>t(?:\^(-?\d+))?)?\s*$"
)


def parse_element(text: str) -> GroupElement:
    """Parse elements like '(1 2 3) t^2', '(0 1)', 't', 't^-3', 'e'.

    An optional '*' may separate the finitary part from the translation
    part, and 'e' is accepted as the finitary part ('e t^-1').  Commas
    inside cycles are treated as whitespace.  Only ASCII is accepted.
    """
    if not isinstance(text, str):
        raise ElemError("element text must be a string, not %r" % (text,))
    s = text.strip()
    if any(ord(ch) > 127 for ch in s):
        raise ElemError("non-ASCII character in %r" % text)
    if s == "e":
        return identity()
    if not s:
        raise ElemError("empty element text")
    m = _ELEM_RE.match(s)
    if not m or (not m.group("cycles").strip() and not m.group("t")):
        raise ElemError("cannot parse element %r" % text)
    shift = 0
    if m.group("t"):
        tpart = m.group("t")
        shift = 1 if tpart == "t" else int(tpart.split("^", 1)[1])
    cyc_text = m.group("cycles").strip()
    try:
        fin = FinPerm.parse(cyc_text) if cyc_text and cyc_text != "e" else FinPerm.identity()
    except PermError as exc:
        raise ElemError(str(exc)) from exc
    return GroupElement(fin, shift)


# -- groups ----------------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """Either the full group H_2 or a subgroup G_k = <Alt(Z), t^k>."""

    kind: str  # "H2" or "Gk"
    k: int = 0

    def __post_init__(self):
        if self.kind == "H2":
            if self.k != 0:
                raise ElemError("H2 takes no parameter")
        elif self.kind == "Gk":
            if self.k < 1:
                raise ElemError("G_k needs k >= 1")
        else:
            raise ElemError("unknown group kind %r" % self.kind)

    def __str__(self) -> str:
        return "H2" if self.kind == "H2" else "G%d" % self.k


H2 = Group("H2")


def G(k: int) -> Group:
    return Group("Gk", k)


def parse_group(text: str) -> Group:
    """Parse 'H2', or G_k written 'G<k>', 'G_<k>' or 'Gk:<k>'."""
    s = text.strip()
    if s == "H2":
        return H2
    m = re.fullmatch(r"G(?:_|k:)?([0-9]+)", s)
    if m:
        return G(int(m.group(1)))
    raise ElemError("cannot parse group %r (want H2, G<k>, G_<k> or Gk:<k>)" % text)


def member(g: GroupElement, group: Group) -> bool:
    if group.kind == "H2":
        return True
    return g.shift % group.k == 0 and g.fin.is_even()


# -- translation classes -----------------------------------------------------


@dataclass(frozen=True)
class ClassTkWitness:
    """Witness that g is conjugate in Sym(Z) to t^k: a point seed_j per
    residue class j in 0..k-1 such that pi(j + n*k) = (seed_j)g^n is a
    bijection of Z with pi^-1 g pi = t^k.  The sign records the shift
    orientation of g itself, which distinguishes the classes of t^k and
    t^-k inside H_2 (where reflections are unavailable).  The orbit
    decomposition of g the seeds were read from rides along, so that
    class_tk_relabel does not walk the orbits again."""

    k: int
    sign: int
    seeds: Tuple[int, ...]
    decomposition: OrbitDecomposition = field(compare=False, repr=False)


def in_class_tk(g: GroupElement, k: int) -> Optional[ClassTkWitness]:
    """If g is conjugate in Sym(Z) to t^k or t^-k, return a witness; else None.

    This holds exactly when |shift| = k and g has no finite orbits.  Seed_j
    is the least-absolute-value point of the j-th infinite orbit (orbits are
    indexed by the residue mod k of their far-positive tail); ties between
    x and -x go to the positive point.
    """
    if k < 1 or abs(g.shift) != k:
        return None
    dec = decompose(g)
    if dec.finite:
        return None
    seeds = tuple(
        min(orb.exceptional_points + (orb.entry, orb.exit), key=lambda x: (abs(x), -x))
        for orb in dec.infinite
    )
    return ClassTkWitness(k=k, sign=1 if g.shift > 0 else -1, seeds=seeds, decomposition=dec)


def class_tk_relabel(
    g: GroupElement, w: ClassTkWitness, points: Tuple[int, ...]
) -> Dict[int, int]:
    """Map each given point y to pi^-1(y) where pi(j + n*k) = (seed_j)g^n.

    w must be the witness in_class_tk returned for g: the positions are
    read on its decomposition.  Raises ElemError for a witness of another
    shift, or a point on none of the witnessed orbits.
    """
    dec = w.decomposition
    if dec.shift != g.shift:
        raise ElemError("witness is for shift %d, not %d" % (dec.shift, g.shift))
    seed_at: Dict[str, Tuple[int, int]] = {}
    for j, seed in enumerate(w.seeds):
        oid, n = dec.coord(seed)
        seed_at.setdefault(oid, (j, n))
    out: Dict[int, int] = {}
    for y in points:
        oid, n = dec.coord(y)
        if oid not in seed_at or not oid.startswith("inf"):
            raise ElemError("point %d not located on witnessed orbits" % y)
        j, n0 = seed_at[oid]
        out[y] = j + (n - n0) * w.k
    return out
