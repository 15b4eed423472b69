"""Brute-force substrates: finite closures and word-ball searches.

These are deliberately independent of the certificate machinery so they
can serve as oracles for it: a finite truncation closure counts group
orders directly, and the ball search enumerates every element spelled by
a short word in two generators.
"""

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .perm import FinPerm
from .elem import GroupElement
from .certs import Word


class OracleError(ValueError):
    pass


MAX_CARRIER = 9
MAX_RADIUS = 14


# -- finite closures -------------------------------------------------------------


@dataclass(frozen=True)
class FiniteClosure:
    carrier: Tuple[int, ...]
    elements: FrozenSet[FinPerm]

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, p: FinPerm) -> bool:
        return p in self.elements


def bfs_closure_finite(
    generators: Sequence[FinPerm], carrier: Sequence[int]
) -> FiniteClosure:
    """The subgroup of Sym(carrier) generated by the given permutations."""
    pts = tuple(sorted(set(carrier)))
    if len(pts) > MAX_CARRIER:
        raise OracleError("carrier larger than %d points" % MAX_CARRIER)
    for g in generators:
        if not g.support <= set(pts):
            raise OracleError("generator %s moves points outside the carrier" % g)
    gens = list(generators)
    seen = {FinPerm.identity()}
    frontier = [FinPerm.identity()]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return FiniteClosure(pts, frozenset(seen))


# -- word balls -------------------------------------------------------------------


@dataclass(frozen=True)
class BallReport:
    radius: int
    found: Optional[Word]
    visited: int


def _raw(g: GroupElement) -> Tuple[int, Dict[int, int]]:
    return g.shift, {x: g.fin.apply(x) for x in g.fin.support}


def _rmul(
    state: Tuple[int, Dict[int, int]], gen: Tuple[int, Dict[int, int]]
) -> Tuple[int, Dict[int, int]]:
    """Right-multiply a raw (shift, map) state by a raw generator."""
    ca, ma = state
    cb, mb = gen
    out: Dict[int, int] = {}
    # a point can move only if the state moves it or its image under the
    # state lands in the generator's support; the preimage of such a y is
    # y - ca unless ma moves y - ca, and then it is a point of ma itself
    xs = set(ma)
    xs.update(y - ca for y in mb)
    aget, bget = ma.get, mb.get
    for x in xs:
        y = aget(x, x) + ca
        y = bget(y, y) - ca  # the image under the product, less its shift
        if y != x:
            out[x] = y
    return ca + cb, out


def _key(state: Tuple[int, Dict[int, int]]):
    return (state[0], frozenset(state[1].items()))


_LETTERS = (("g", 1), ("g", -1), ("h", 1), ("h", -1))


def _ball_scan(
    g: GroupElement,
    h: GroupElement,
    radius: int,
    visit: Callable[[Tuple[int, Dict[int, int]], Word], Optional[Word]],
) -> Tuple[Optional[Word], int]:
    """Breadth-first over reduced words; visit may stop the search."""
    if radius > MAX_RADIUS:
        raise OracleError("radius larger than %d" % MAX_RADIUS)
    gens = {}
    for name, el in (("g", g), ("h", h)):
        for e in (1, -1):
            gens[(name, e)] = _raw(el if e == 1 else el.inverse())
    start = (0, {})
    seen = {_key(start)}
    res = visit(start, ())
    if res is not None:
        return res, len(seen)
    frontier: List[Tuple[Tuple[int, Dict[int, int]], Word]] = [(start, ())]
    for _ in range(radius):
        nxt = []
        for state, word in frontier:
            for letter in _LETTERS:
                if word and word[-1] == (letter[0], -letter[1]):
                    continue
                child = _rmul(state, gens[letter])
                k = _key(child)
                if k in seen:
                    continue
                seen.add(k)
                cw = word + (letter,)
                res = visit(child, cw)
                if res is not None:
                    return res, len(seen)
                nxt.append((child, cw))
        frontier = nxt
    return None, len(seen)


def ball_contains(
    g: GroupElement, h: GroupElement, target: GroupElement, radius: int
) -> BallReport:
    """Search the ball of reduced words in g, h for the target element."""
    tkey = _key(_raw(target))

    def visit(state, word):
        return word if _key(state) == tkey else None

    found, visited = _ball_scan(g, h, radius, visit)
    return BallReport(radius, found, visited)


def ball_affine_counterexample(
    g: GroupElement, h: GroupElement, modulus: int, radius: int
) -> BallReport:
    """Search the ball for an element that is not class-affine mod modulus.

    Classes are the residues of the integers themselves, which matches a
    block system relabelled by a plain translation.
    """
    if modulus < 2:
        raise OracleError("modulus must be at least 2")

    def visit(state, word):
        c, m = state
        inc = c % modulus
        for x, y in m.items():
            if (y + c - x) % modulus != inc:
                return word
        return None

    found, visited = _ball_scan(g, h, radius, visit)
    return BallReport(radius, found, visited)
