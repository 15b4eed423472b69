"""Executable refuters: spread-zero witnesses, the no-finite-dominating-set
argument, and the ten-cycle defeat sets for G_1 and G_2.

Each refuter returns a small finitary witness together with negative
certificates, verified before they are handed back, showing that the
witness and the given element(s) generate a proper subgroup.  One policy,
`obstruction`, chooses and builds every such certificate.
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable, Optional, Sequence, Tuple

from .perm import FinPerm
from .elem import G, Group, GroupElement, finitary, member
from .certs import NegativeCertificate, verify_negative, walk_error
from .orbits import OrbitDecomposition, decompose


class BoundsError(ValueError):
    pass


@dataclass(frozen=True)
class DefeatSet:
    """The ten 3-cycles (a b c), a < b < c in {1..5}, for one group.

    No cycle appears together with its inverse, and every element of the
    group fails to generate the group with at least one of the ten.
    """

    group: Group
    cycles: Tuple[FinPerm, ...]


def defeat_set(group: Group) -> DefeatSet:
    if group not in (G(1), G(2)):
        raise BoundsError("defeat sets exist for G_1 and G_2 only")
    cycles = tuple(FinPerm.cycle(a, b, c) for a, b, c in combinations(range(1, 6), 3))
    return DefeatSet(group, cycles)


# -- the obstruction policy ------------------------------------------------------


def _orbit_variant(
    sigma: FinPerm, s: GroupElement, name: str, dec: OrbitDecomposition
) -> Optional[Tuple[str, dict]]:
    """Steps 3-6 of `obstruction`, read off the orbits dec of s."""
    pts = sorted(sigma.support)
    ids = [dec.orbit_id_of(x) for x in pts]
    fin = ["fin%d" % i for i in range(len(dec.finite))]
    if fin and len({oid.startswith("fin") for oid in ids}) == 1:
        return "invariant_set", {"element": name, "orbits": fin}
    for orb in dec.infinite:
        oid = "inf%d" % orb.index
        if oid not in ids:
            return "invariant_set", {"element": name, "orbits": [oid]}
    if abs(s.shift) == 1 and not fin:
        p0, p1, p2 = (dec.coord(x)[1] for x in pts)
        modulus = gcd(p1 - p0, p2 - p1)
        if modulus > 1:
            return "block_system", {"relabel": str(s), "modulus": modulus}
    if len(set(ids)) == 3 and all(oid.startswith("inf") for oid in ids):
        return "imprimitivity3", {"points": pts, "h": name}
    return None


def _first_obstruction(
    group: Group, cycles: Iterable[FinPerm], s: GroupElement, name: str
) -> Optional[Tuple[FinPerm, NegativeCertificate]]:
    """The first of cycles that `obstruction` refutes with s, and its
    certificate; the orbits of s are walked at most once."""
    if group.kind != "Gk":
        raise BoundsError("obstructions refute G_k targets only")
    dec = None
    for sigma in cycles:
        if not sigma.is_three_cycle():
            raise BoundsError("%s is not a 3-cycle" % sigma)
        if s.shift == 0:
            found = "finitary", {}
        elif abs(s.shift) != group.k:
            found = "shift_lattice", {}
        else:
            err = walk_error([s, finitary(sigma)])
            if err:
                raise BoundsError(err)
            if dec is None:
                dec = decompose(s)
            found = _orbit_variant(sigma, s, name, dec)
        if found is not None:
            cert = NegativeCertificate(group, {"a": finitary(sigma), name: s}, *found)
            res = verify_negative(cert)
            if not res.ok:
                raise BoundsError("built certificate failed to verify: %s" % res.reason)
            return sigma, cert
    return None


def obstruction(
    group: Group, sigma: FinPerm, s: GroupElement, name: str
) -> Optional[NegativeCertificate]:
    """A verified certificate that <sigma, s> != group, for a 3-cycle sigma,
    with generators {"a": sigma, name: s}; None when no variant applies.

    The first of these that applies, for group G_k:
      1. finitary, when s.shift = 0;
      2. shift_lattice, when |s.shift| != k;
      3. invariant_set on all finite orbits of s, when supp sigma lies
         inside their union or outside it;
      4. invariant_set on the first infinite orbit of s that sigma misses;
      5. block_system mod the gcd of sigma's position gaps along the orbit
         of s, when s is conjugate to t or t^-1 and that gcd is > 1;
      6. imprimitivity3, when sigma's points lie on three infinite orbits.
    Raises BoundsError when s or sigma passes the kernel's walk limits.
    """
    found = _first_obstruction(group, (sigma,), s, name)
    return None if found is None else found[1]


def _found(cert, what: str):
    if cert is None:
        raise BoundsError("internal: no obstruction for %s" % what)
    return cert


# -- the refuters ------------------------------------------------------------------


def spread_zero_witness(k: int, h: GroupElement) -> Tuple[FinPerm, NegativeCertificate]:
    """The cycle (1 2 3) with a certificate that <(1 2 3), h> != G_k.

    Exists for every h when k >= 3, which is why those groups have
    spread zero.
    """
    if k < 3:
        raise BoundsError("need k >= 3")
    if not member(h, G(k)):
        raise BoundsError("element is not in G_%d" % k)
    sigma = FinPerm.cycle(1, 2, 3)
    return sigma, _found(obstruction(G(k), sigma, h, "h"), h)


def refute_dominating(
    S: Sequence[GroupElement], group: Group
) -> Tuple[FinPerm, Tuple[NegativeCertificate, ...]]:
    """A 3-cycle beyond the reach of every element of S, with certificates.

    The witness (m+1 m+3 m+5), m past every support, generates a proper
    subgroup with each member of S, so no finite set dominates the group.
    """
    if group not in (G(1), G(2)):
        raise BoundsError("refute_dominating applies to G_1 and G_2")
    for s in S:
        if not member(s, group):
            raise BoundsError("element %s is not in %s" % (s, group))
    m = max((s.eventual_bound() for s in S), default=0)
    gamma = FinPerm.cycle(m + 1, m + 3, m + 5)
    return gamma, tuple(_found(obstruction(group, gamma, s, "s"), s) for s in S)


def defeat_ten(h: GroupElement, group: Group) -> Tuple[FinPerm, NegativeCertificate]:
    """The first cycle of the canonical defeat set that h fails against."""
    cycles = defeat_set(group).cycles
    if not member(h, group):
        raise BoundsError("element is not in %s" % group)
    return _found(_first_obstruction(group, cycles, h, "h"), h)
