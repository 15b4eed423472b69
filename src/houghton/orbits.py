"""Orbit structure of a single element acting on Z.

An element with shift c != 0 has exactly |c| infinite orbits; far to the
right each one covers a residue class mod |c|, and likewise far to the
left (possibly a different residue).  Anything else the element does is
confined to finitely many finite orbits near the support of its finitary
part.

`decompose` is the one walk over an element's orbits.  Along the way it
records every point's orbit coordinate: the orbit id and the position on
that orbit.  Positions count g-steps along an infinite orbit, so (x)g has
the position of x plus one; on a finite cycle they index into the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from .elem import GroupElement


@dataclass(frozen=True)
class InfiniteOrbit:
    """One of the |shift| infinite orbits of an element.

    index        -- position in 0..|shift|-1, equal to pos_residue
    pos_residue  -- residue mod |shift| of the far-positive tail
    neg_residue  -- residue mod |shift| of the far-negative tail
    exceptional_points -- orbit points x with |x| <= eventual_bound, sorted
    entry        -- least orbit point beyond the bound; its position is 0
    exit         -- greatest orbit point below minus the bound
    exit_position -- position of exit
    """

    index: int
    pos_residue: int
    neg_residue: int
    exceptional_points: Tuple[int, ...]
    entry: int
    exit: int
    exit_position: int


@dataclass(frozen=True)
class OrbitDecomposition:
    shift: int
    bound: int
    infinite: Tuple[InfiniteOrbit, ...]
    finite: Tuple[Tuple[int, ...], ...]
    # (orbit id, position) of every point |x| <= bound on a nontrivial orbit
    coords: Dict[int, Tuple[str, int]] = field(compare=False, repr=False)

    def coord(self, x: int) -> Tuple[str, int]:
        """The orbit id of x ('inf<j>', 'fin<i>' or 'fixed') and its
        position on that orbit; tail points are placed by arithmetic."""
        if x in self.coords:
            return self.coords[x]
        if self.shift == 0:
            return "fixed", 0
        d = abs(self.shift)
        if x > self.bound:
            orb = self.infinite[x % d]
            return "inf%d" % orb.index, (x - orb.entry) // self.shift
        orb = next(o for o in self.infinite if o.neg_residue == x % d)
        return "inf%d" % orb.index, orb.exit_position + (x - orb.exit) // self.shift

    def orbit_id_of(self, x: int) -> str:
        """Identify the orbit of x: 'inf<j>', 'fin<i>', or 'fixed'."""
        return self.coord(x)[0]


def decompose(g: GroupElement) -> OrbitDecomposition:
    m = g.eventual_bound()
    c = g.shift
    coords: Dict[int, Tuple[str, int]] = {}
    orbits = []
    if c:
        d = abs(c)
        # walk each infinite orbit leftward, from its entry to its exit
        leftward, step = (g.inverse(), -1) if c > 0 else (g, 1)
        for j in range(d):
            oid = "inf%d" % j
            entry = m + 1 + ((j - (m + 1)) % d)
            y, n, pts = entry, 0, []
            while y >= -m:
                if y <= m:
                    coords[y] = (oid, n)
                    pts.append(y)
                y = leftward.apply(y)
                n += step
            orbits.append(
                InfiniteOrbit(
                    index=j,
                    pos_residue=j,
                    neg_residue=y % d,
                    exceptional_points=tuple(sorted(pts)),
                    entry=entry,
                    exit=y,
                    exit_position=n,
                )
            )
    # every other point near the support lies on a finite cycle, listed from
    # its least point; a finitary element's fixed points are on none
    finite = []
    for x in range(-m, m + 1) if c else sorted(g.fin.support):
        if x in coords:
            continue
        oid = "fin%d" % len(finite)
        cyc = [x]
        y = g.apply(x)
        while y != x:
            cyc.append(y)
            y = g.apply(y)
        coords.update((p, (oid, n)) for n, p in enumerate(cyc))
        finite.append(tuple(cyc))
    return OrbitDecomposition(
        shift=c, bound=m, infinite=tuple(orbits), finite=tuple(finite), coords=coords
    )


def orbit_index(g: GroupElement, x: int, y: int) -> Optional[int]:
    """Least-magnitude n with (x)g^n = y, preferring positive n on ties.

    Returns None when y is not on the orbit of x."""
    if x == y:
        return 0
    dec = decompose(g)
    (ox, px), (oy, py) = dec.coord(x), dec.coord(y)
    if ox != oy or ox == "fixed":
        return None
    n = py - px
    if ox.startswith("fin"):
        size = len(dec.finite[int(ox[3:])])
        n %= size
        if 2 * n > size:
            n -= size
    return n
