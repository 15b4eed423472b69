"""Executable refuters: spread-zero witnesses, the no-finite-dominating-set
argument, and the ten-cycle defeat sets for G_1 and G_2.

Each operation returns a small finitary witness together with a negative
certificate, verified before it is handed back, showing that the witness
and the given element(s) generate a proper subgroup.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Tuple

from .perm import FinPerm
from .elem import G, Group, GroupElement, finitary, member
from .certs import NegativeCertificate, verify_negative
from .orbits import decompose


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


def _checked(cert: NegativeCertificate) -> NegativeCertificate:
    res = verify_negative(cert)
    if not res.ok:
        raise BoundsError("built certificate failed to verify: %s" % res.reason)
    return cert


def _all_finite_orbit_ids(dec) -> List[str]:
    return ["fin%d" % i for i in range(len(dec.finite))]


# -- spread zero for k >= 3 -----------------------------------------------------


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
    gens = {"a": finitary(sigma), "h": h}
    target = G(k)
    if h.shift == 0:
        return sigma, _checked(NegativeCertificate(target, gens, "finitary", {}))
    dec = decompose(h)
    hit = {dec.orbit_id_of(x) for x in (1, 2, 3)}
    for orb in dec.infinite:
        if "inf%d" % orb.index not in hit:
            cert = NegativeCertificate(
                target, gens, "invariant_set",
                {"element": "h", "orbits": ["inf%d" % orb.index]},
            )
            return sigma, _checked(cert)
    # every infinite orbit meets {1, 2, 3}: exactly three orbits, one each
    if dec.finite:
        cert = NegativeCertificate(
            target, gens, "invariant_set",
            {"element": "h", "orbits": _all_finite_orbit_ids(dec)},
        )
        return sigma, _checked(cert)
    cert = NegativeCertificate(
        target, gens, "imprimitivity3", {"points": [1, 2, 3], "h": "h"}
    )
    return sigma, _checked(cert)


# -- no finite dominating set ----------------------------------------------------


def refute_dominating(
    S: Sequence[GroupElement], group: Group
) -> Tuple[FinPerm, Tuple[NegativeCertificate, ...]]:
    """A 3-cycle beyond the reach of every element of S, with certificates.

    The witness (m+1 m+3 m+5), m past every support, generates a proper
    subgroup with each member of S, so no finite set dominates the group.
    """
    if group not in (G(1), G(2)):
        raise BoundsError("refute_dominating applies to G_1 and G_2")
    k = group.k
    for s in S:
        if not member(s, group):
            raise BoundsError("element %s is not in %s" % (s, group))
    m = max((s.eventual_bound() for s in S), default=0)
    gamma = FinPerm.cycle(m + 1, m + 3, m + 5)
    certs = []
    for s in S:
        gens = {"a": finitary(gamma), "s": s}
        if s.shift == 0:
            certs.append(_checked(NegativeCertificate(group, gens, "finitary", {})))
            continue
        if abs(s.shift) != k:
            certs.append(
                _checked(NegativeCertificate(group, gens, "shift_lattice", {}))
            )
            continue
        dec = decompose(s)
        if dec.finite:
            cert = NegativeCertificate(
                group, gens, "invariant_set",
                {"element": "s", "orbits": _all_finite_orbit_ids(dec)},
            )
            certs.append(_checked(cert))
            continue
        if k == 1:
            # the witness points sit at even index gaps along the orbit of s
            cert = NegativeCertificate(
                group, gens, "block_system", {"relabel": str(s), "modulus": 2}
            )
            certs.append(_checked(cert))
        else:
            # the witness points all lie on one orbit; the other is invariant
            used = dec.orbit_id_of(m + 1)
            other = next(
                orb for orb in dec.infinite if "inf%d" % orb.index != used
            )
            cert = NegativeCertificate(
                group, gens, "invariant_set",
                {"element": "s", "orbits": ["inf%d" % other.index]},
            )
            certs.append(_checked(cert))
    return gamma, tuple(certs)


# -- ten-cycle defeat sets ---------------------------------------------------------


def defeat_ten(h: GroupElement, group: Group) -> Tuple[FinPerm, NegativeCertificate]:
    """Some cycle from the canonical defeat set that h fails against."""
    if group not in (G(1), G(2)):
        raise BoundsError("defeat sets exist for G_1 and G_2 only")
    if not member(h, group):
        raise BoundsError("element is not in %s" % group)
    k = group.k
    first = FinPerm.cycle(1, 2, 3)
    if h.shift == 0:
        gens = {"a": finitary(first), "h": h}
        return first, _checked(NegativeCertificate(group, gens, "finitary", {}))
    if abs(h.shift) != k:
        gens = {"a": finitary(first), "h": h}
        return first, _checked(NegativeCertificate(group, gens, "shift_lattice", {}))
    dec = decompose(h)
    if k == 1:
        if not dec.finite:
            # clean translation-like element: three of the five points have
            # positions of equal parity on its single orbit
            for parity in (0, 1):
                pts = [x for x in range(1, 6) if dec.coord(x)[1] % 2 == parity]
                if len(pts) >= 3:
                    sigma = FinPerm.cycle(*pts[:3])
                    break
            gens = {"a": finitary(sigma), "h": h}
            cert = NegativeCertificate(
                group, gens, "block_system", {"relabel": str(h), "modulus": 2}
            )
            return sigma, _checked(cert)
        # split {1..5} by finite versus infinite orbit; one side has 3 points
        fin_side = [
            x for x in range(1, 6) if dec.orbit_id_of(x).startswith("fin")
        ]
        inf_side = [x for x in range(1, 6) if x not in fin_side]
        pts = fin_side[:3] if len(fin_side) >= 3 else inf_side[:3]
        sigma = FinPerm.cycle(*pts)
        gens = {"a": finitary(sigma), "h": h}
        cert = NegativeCertificate(
            group, gens, "invariant_set",
            {"element": "h", "orbits": _all_finite_orbit_ids(dec)},
        )
        return sigma, _checked(cert)
    # G_2: one of the two infinite orbits contains at most two of {1..5}
    ids = {x: dec.orbit_id_of(x) for x in range(1, 6)}
    for orb in dec.infinite:
        oid = "inf%d" % orb.index
        outside = [x for x in range(1, 6) if ids[x] != oid]
        if len(outside) >= 3:
            sigma = FinPerm.cycle(*outside[:3])
            gens = {"a": finitary(sigma), "h": h}
            cert = NegativeCertificate(
                group, gens, "invariant_set", {"element": "h", "orbits": [oid]}
            )
            return sigma, _checked(cert)
    raise BoundsError("internal: no defeating cycle found")
