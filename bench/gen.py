"""Seeded input generation in plain Python.

Inputs are element texts in the CLI's cycle notation, built here without
the library, so a change to the library can never change what the
benchmark feeds it.  Permutations are dicts {x: (x)p} of moved points;
elements are written sigma * t^c and act on the right, as in the library.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Sequence, Tuple

Perm = Dict[int, int]


def cycles_of(p: Perm) -> List[Tuple[int, ...]]:
    """Disjoint cycles, each starting at its minimum, sorted by minimum."""
    seen = set()
    out = []
    for start in sorted(p):
        if start in seen or p[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        x = p[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        out.append(tuple(cyc))
    return out


def is_even(p: Perm) -> bool:
    return sum(len(c) - 1 for c in cycles_of(p)) % 2 == 0


def perm_text(p: Perm) -> str:
    cycles = cycles_of(p)
    if not cycles:
        return "e"
    return "".join("(%s)" % " ".join(map(str, c)) for c in cycles)


def elem_text(p: Perm, shift: int) -> str:
    fin = perm_text(p)
    if shift == 0:
        return fin
    if fin == "e":
        return "t^%d" % shift
    return "%s t^%d" % (fin, shift)


def cycle_perm(pts: Sequence[int]) -> Perm:
    return {pts[i]: pts[(i + 1) % len(pts)] for i in range(len(pts))} if len(pts) > 1 else {}


def rand_even_fin(rng, span: int = 10, size: Tuple[int, int] = (3, 7)) -> Perm:
    """One cycle on random points of [-span, span], made even by a
    disjoint transposition when its length is even."""
    while True:
        pts = rng.sample(range(-span, span + 1), rng.randint(*size))
        p = cycle_perm(pts)
        if not is_even(p):
            rest = [x for x in range(-span, span + 1) if x not in pts]
            a, b = rng.sample(rest, 2)
            p[a], p[b] = b, a
        if p:
            return p


def rand_member(rng, shifts: Sequence[int], span: int = 8) -> Tuple[Perm, int]:
    """A random element sigma * t^c of G_k: sigma even, c from shifts."""
    n = rng.randint(0, 6)
    p: Perm = {}
    if n >= 2:
        pts = rng.sample(range(-span, span + 1), n)
        p = cycle_perm(pts)
        if not is_even(p):
            rest = [x for x in range(-span, span + 1) if x not in pts]
            a, b = rng.sample(rest, 2)
            p[a], p[b] = b, a
    return p, rng.choice(list(shifts))


def rand_nonfin(rng, k: int, span: int = 10) -> Tuple[Perm, int]:
    shifts = [m * k for m in (-3, -2, -1, 1, 2, 3)]
    return rand_member(rng, shifts, span=span)


def scrambled(rng, bound: int) -> Perm:
    """A random even permutation of all of [-bound, bound]."""
    pts = list(range(-bound, bound + 1))
    img = pts[:]
    rng.shuffle(img)
    p = dict(zip(pts, img))
    if not is_even(p):
        p[pts[0]], p[pts[1]] = p[pts[1]], p[pts[0]]
    return {x: y for x, y in p.items() if x != y}


def sparse_scrambled(rng, bound: int, npts: int) -> Perm:
    """A random even permutation of npts points of [-bound, bound], one
    of them at +-bound, so the eventual bound is large but the support
    small."""
    edge = bound if rng.random() < 0.5 else -bound
    inner = [x for x in rng.sample(range(-bound + 1, bound), npts - 1)]
    pts = [edge] + inner
    img = pts[:]
    while img[0] == edge:
        rng.shuffle(img)
    p = dict(zip(pts, img))
    if not is_even(p):
        a, b = inner[0], inner[1]
        p[a], p[b] = p[b], p[a]
    return {x: y for x, y in p.items() if x != y}


def inverse(p: Perm) -> Perm:
    return {y: x for x, y in p.items()}


def relabelled_translation(omega: Perm, c: int) -> Tuple[Perm, int]:
    """The element omega^-1 t^c omega as (sigma, c): (x)s = ((x)omega^-1 + c)omega."""
    inv = inverse(omega)
    m = max((abs(x) for x in omega), default=0) + abs(c) + 1
    sigma = {}
    for x in range(-m, m + 1):
        y = omega.get(inv.get(x, x) + c, inv.get(x, x) + c) - c
        if y != x:
            sigma[x] = y
    return sigma, c


def gcd_verdict(omega: Perm, pts: Sequence[int]) -> str:
    """Expected gcd_test verdict for a 3-cycle on pts against
    omega^-1 t^(+-1) omega: along the single orbit the coordinate of p is
    +-(p)omega^-1, so the verdict is the gcd of the coordinate gaps."""
    inv = inverse(omega)
    q = sorted(inv.get(p, p) for p in pts)
    return "positive" if gcd(q[1] - q[0], q[2] - q[1]) == 1 else "negative"
