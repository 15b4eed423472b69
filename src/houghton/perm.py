"""Finitely supported permutations of the integers.

Points are plain ints and permutations act on the right: we write (x)g for
the image of x under g, and the product g*h means "apply g first, then h".
Only non-fixed points are stored, so equality and hashing are exact.

Maps are validated where they come from outside: ``FinPerm(mapping)``,
``cycle``/``from_cycles`` and ``parse``.  Products, inverses, powers,
conjugates and translates of valid permutations are bijections by
construction and skip the check (``_trusted``).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Tuple


class PermError(ValueError):
    pass


_TOKEN_RE = re.compile(r"-?\d+")


def _validate_mapping(mapping: Dict[int, int]) -> Dict[int, int]:
    out = {}
    for k, v in mapping.items():
        if not isinstance(k, int) or not isinstance(v, int):
            raise PermError("points must be ints")
        if k != v:
            out[k] = v
    if set(out.keys()) != set(out.values()):
        raise PermError("mapping is not a bijection with finite support")
    return out


class FinPerm:
    """A permutation of Z moving only finitely many points."""

    __slots__ = ("_map", "_hash", "_bound")

    def __init__(self, mapping: Dict[int, int] | None = None):
        self._map = _validate_mapping(dict(mapping) if mapping else {})
        self._hash = None
        self._bound = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity() -> "FinPerm":
        return FinPerm()

    @staticmethod
    def from_cycles(cycles: Iterable[Tuple[int, ...]]) -> "FinPerm":
        """Compose the given cycles left to right (they may overlap)."""
        result = FinPerm()
        for cyc in cycles:
            result = result * FinPerm._single_cycle(cyc)
        return result

    @staticmethod
    def _single_cycle(cyc: Tuple[int, ...]) -> "FinPerm":
        pts = tuple(cyc)
        if len(set(pts)) != len(pts):
            raise PermError("repeated point in cycle %r" % (pts,))
        if len(pts) < 2:
            return FinPerm()
        m = {pts[i]: pts[(i + 1) % len(pts)] for i in range(len(pts))}
        return FinPerm(m)

    @staticmethod
    def cycle(*pts: int) -> "FinPerm":
        return FinPerm._single_cycle(tuple(pts))

    # -- basic protocol ------------------------------------------------

    def apply(self, x: int) -> int:
        return self._map.get(x, x)

    def __call__(self, x: int) -> int:
        return self._map.get(x, x)

    @property
    def support(self) -> frozenset:
        return frozenset(self._map)

    def is_identity(self) -> bool:
        return not self._map

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinPerm) and self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __len__(self) -> int:
        return len(self._map)

    def bound(self) -> int:
        """The largest |x| of a moved point, 0 for the identity (cached)."""
        if self._bound is None:
            m = self._map
            self._bound = max(max(m), -min(m)) if m else 0
        return self._bound

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "FinPerm") -> "FinPerm":
        """(x)(self*other) = ((x)self)other."""
        if not isinstance(other, FinPerm):
            return NotImplemented
        return self._mul_translated(other, 0)

    def _mul_translated(self, other: "FinPerm", d: int) -> "FinPerm":
        """self * other.translate(d) in one pass: x -> ((x)self - d)other + d."""
        a, b = self._map, other._map
        if not b:
            return self
        if not a:
            return other.translate(d)
        m = {}
        get = b.get
        for x, y in a.items():
            y -= d
            z = get(y, y) + d
            if z != x:
                m[x] = z
        for u, v in b.items():
            x = u + d
            if x not in a:
                m[x] = v + d
        return _trusted(m)

    def inverse(self) -> "FinPerm":
        return _trusted({v: k for k, v in self._map.items()})

    def __pow__(self, n: int) -> "FinPerm":
        """Rotate every cycle by n mod its length."""
        if n == 1:
            return self
        if n == -1:
            return self.inverse()
        m = {}
        for cyc in self.cycles():
            size = len(cyc)
            r = n % size
            if r:
                for i, x in enumerate(cyc):
                    m[x] = cyc[(i + r) % size]
        return _trusted(m)

    def conjugate(self, w: "FinPerm") -> "FinPerm":
        """self^w = w^-1 * self * w; maps cycle (a b c) to ((a)w (b)w (c)w)."""
        get = w._map.get
        return _trusted({get(x, x): get(y, y) for x, y in self._map.items()})

    def translate(self, d: int) -> "FinPerm":
        """Shift the support by d: x -> x+d pointwise (conjugation by the
        translation z -> z+d)."""
        if not d or not self._map:
            return self
        return _trusted({k + d: v + d for k, v in self._map.items()})

    # -- structure ---------------------------------------------------------

    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """Disjoint cycles, each rotated so its minimum comes first, sorted
        by minimum."""
        seen = set()
        out = []
        for start in sorted(self._map):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self.apply(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.apply(x)
            out.append(tuple(cyc))
        return tuple(out)

    def order(self) -> int:
        from math import lcm

        n = 1
        for cyc in self.cycles():
            n = lcm(n, len(cyc))
        return n

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def is_three_cycle(self) -> bool:
        return len(self._map) == 3 and len(self.cycles()) == 1

    def orbit_of(self, x: int) -> Tuple[int, ...]:
        orb = [x]
        y = self.apply(x)
        while y != x:
            orb.append(y)
            y = self.apply(y)
        return tuple(orb)

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._map:
            return "e"
        return "".join("(%s)" % " ".join(str(p) for p in c) for c in self.cycles())

    def __repr__(self) -> str:
        return "FinPerm(%s)" % str(self)

    @staticmethod
    def parse(text: str) -> "FinPerm":
        """Parse cycle notation like '(1 2 3)(4 5)', '(1, 2, 3)' or 'e'.

        Commas are treated as whitespace.  Only ASCII digits and '-' are
        accepted; a unicode minus is an error.
        """
        s = text.replace(",", " ").strip()
        if any(ord(ch) > 127 for ch in s):
            raise PermError("non-ASCII character in %r" % text)
        if s == "e":
            return FinPerm()
        if not s:
            raise PermError("empty permutation text")
        pos = 0
        cycles = []
        while pos < len(s):
            ch = s[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch != "(":
                raise PermError("expected '(' at %r" % s[pos:])
            end = s.find(")", pos)
            if end < 0:
                raise PermError("unbalanced '(' in %r" % text)
            body = s[pos + 1 : end]
            toks = body.split()
            if not toks:
                raise PermError("empty cycle in %r" % text)
            pts = []
            for t in toks:
                if not _TOKEN_RE.fullmatch(t):
                    raise PermError("bad point %r" % t)
                pts.append(int(t))
            cycles.append(tuple(pts))
            pos = end + 1
        return FinPerm.from_cycles(cycles)


def _trusted(mapping: Dict[int, int]) -> FinPerm:
    """A FinPerm owning mapping, which must already be a bijection without
    fixed points; only products of valid permutations are built this way."""
    p = object.__new__(FinPerm)
    p._map = mapping
    p._hash = None
    p._bound = None
    return p
