from hypothesis import given, settings, strategies as st

from houghton.perm import FinPerm
from houghton.elem import GroupElement, finitary, in_class_tk, parse_element, t
from houghton.orbits import decompose, orbit_index


def brute_orbit(g, x, steps=60):
    """Independent oracle: the orbit segment of x under g, both directions."""
    pts = {x}
    y = x
    for _ in range(steps):
        y = g.apply(y)
        pts.add(y)
    y = x
    for _ in range(steps):
        y = g.inverse().apply(y)
        pts.add(y)
    return pts


def test_translation_orbits():
    dec = decompose(t(2))
    assert dec.shift == 2
    assert len(dec.infinite) == 2
    assert dec.finite == ()
    assert dec.infinite[0].pos_residue == 0
    assert dec.infinite[0].neg_residue == 0
    assert dec.infinite[1].pos_residue == 1
    assert dec.infinite[0].exceptional_points == (0,)


def test_finitary_orbits():
    g = finitary(FinPerm.from_cycles([(1, 2), (4, 5, 6)]))
    dec = decompose(g)
    assert dec.infinite == ()
    assert dec.finite == ((1, 2), (4, 5, 6))


def test_fixed_point_is_finite_orbit():
    # (0 2) t^2 fixes 2: fin sends 2 -> 0 and the shift sends it back
    g = parse_element("(0 2) t^2")
    dec = decompose(g)
    assert (2,) in dec.finite
    assert len(dec.infinite) == 2


def test_orbit_count_matches_shift():
    g = parse_element("(0 1 5)(-3 2) t^3")
    dec = decompose(g)
    assert len(dec.infinite) == 3
    residues = sorted(o.neg_residue for o in dec.infinite)
    assert residues == [0, 1, 2]


def test_exceptional_points_against_brute_orbit():
    g = parse_element("(0 3 -2)(1 -4) t^2")
    dec = decompose(g)
    m = g.eventual_bound()
    for orb in dec.infinite:
        seed = m + 1 + ((orb.pos_residue - (m + 1)) % 2)
        pts = brute_orbit(g, seed)
        expect = tuple(sorted(p for p in pts if abs(p) <= m))
        assert orb.exceptional_points == expect


def test_negative_shift():
    # (0 1) t^-1 fixes 0 (fin sends 0 to 1, shift pulls it back)
    g = parse_element("(0 1) t^-1")
    dec = decompose(g)
    assert len(dec.infinite) == 1
    assert dec.finite == ((0,),)
    assert dec.infinite[0].exceptional_points == (-1, 1)


def test_orbit_id_of():
    g = parse_element("(0 2) t^2")
    dec = decompose(g)
    assert dec.orbit_id_of(2) == "fin0"
    inf_ids = {dec.orbit_id_of(x) for x in (100, 101, -100, -101, 0)}
    assert inf_ids == {"inf0", "inf1"}
    # consistency: points on the same visible orbit get the same id
    assert dec.orbit_id_of(0) == dec.orbit_id_of(g.apply(0))


def test_orbit_id_of_finitary():
    g = finitary(FinPerm.cycle(1, 2))
    dec = decompose(g)
    assert dec.orbit_id_of(1) == "fin0"
    assert dec.orbit_id_of(7) == "fixed"


def test_orbit_index_translation():
    assert orbit_index(t(1), 0, 5) == 5
    assert orbit_index(t(1), 5, 0) == -5
    assert orbit_index(t(2), 0, 1) is None


def test_orbit_index_zero():
    assert orbit_index(t(3), 4, 4) == 0


def test_orbit_index_finite_cycle_prefers_positive():
    g = finitary(FinPerm.cycle(1, 2, 3, 4))
    assert orbit_index(g, 1, 3) == 2  # tie between +2 and -2
    assert orbit_index(g, 1, 4) == -1
    assert orbit_index(g, 1, 2) == 1
    assert orbit_index(g, 1, 7) is None


def test_orbit_index_far_points():
    g = parse_element("(0 3) t^1")
    n = orbit_index(g, -20, 20)
    assert n is not None
    assert (g ** n).apply(-20) == 20


@st.composite
def small_perms(draw):
    pts = draw(st.lists(st.integers(min_value=-8, max_value=8), unique=True, max_size=6))
    img = draw(st.permutations(pts))
    return FinPerm(dict(zip(pts, img)))


@settings(max_examples=80)
@given(small_perms(), st.integers(min_value=-3, max_value=3))
def test_decomposition_partitions_window(sigma, c):
    g = GroupElement(sigma, c)
    dec = decompose(g)
    assert len(dec.infinite) == abs(c)
    m = g.eventual_bound()
    # finite orbits are disjoint, g-invariant, and inside the bound
    seen = set()
    for cyc in dec.finite:
        assert not (set(cyc) & seen)
        seen.update(cyc)
        assert set(g.apply(x) for x in cyc) == set(cyc)
        if c != 0:
            assert all(abs(x) <= m for x in cyc)
    # every near-support point lands in exactly one orbit id
    for x in range(-(m + abs(c) + 1), m + abs(c) + 2):
        oid = dec.orbit_id_of(x)
        if c != 0:
            assert oid != "fixed"


@settings(max_examples=60)
@given(small_perms(), st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0),
       st.integers(min_value=-10, max_value=10), st.integers(min_value=-10, max_value=10))
def test_orbit_index_matches_action(sigma, c, x, y):
    g = GroupElement(sigma, c)
    n = orbit_index(g, x, y)
    if n is not None:
        assert (g ** n).apply(x) == y
    else:
        assert y not in brute_orbit(g, x)


def brute_indices(g, x, steps):
    """Independent oracle: the least-magnitude n, positive on ties, with
    (x)g^n = y, for every y within steps of x along its orbit."""
    ginv = g.inverse()
    found = {x: 0}
    fwd = bwd = x
    for n in range(1, steps + 1):
        fwd = g.apply(fwd)
        found.setdefault(fwd, n)
        bwd = ginv.apply(bwd)
        found.setdefault(bwd, -n)
    return found


def orbit_len(g, x, steps):
    """The length of the finite orbit of x, or 0 if none is seen within steps."""
    y = g.apply(x)
    for n in range(1, steps + 1):
        if y == x:
            return n
        y = g.apply(y)
    return 0


@settings(max_examples=80, deadline=None)
@given(small_perms(), st.integers(min_value=-3, max_value=3))
def test_orbit_coordinates_against_brute_walk(sigma, c):
    g = GroupElement(sigma, c)
    dec = decompose(g)
    m, d = g.eventual_bound(), abs(c)
    W = m + d + 3
    window = range(-W, W + 1)
    # two points of the window are at most 2W + 1 steps apart on one orbit
    steps = 2 * W + 2
    for x in window:
        oid, n = dec.coord(x)
        assert dec.orbit_id_of(g.apply(x)) == oid
        if oid.startswith("inf"):
            assert dec.coord(g.apply(x))[1] == n + 1
        ref = brute_indices(g, x, steps)
        for y in window:
            assert orbit_index(g, x, y) == ref.get(y), (str(g), x, y)
    if d == 0:
        return
    w = in_class_tk(g, d)
    assert (w is None) == any(orbit_len(g, x, steps) for x in window)
    if w is None:
        return
    for j, seed in enumerate(w.seeds):
        # the j-th orbit is the one whose far-positive tail has residue j
        start = W + 1 + ((j - (W + 1)) % d)
        orbit = brute_indices(g, start, 2 * steps)
        assert seed == min(orbit, key=lambda x: (abs(x), -x)), (str(g), j)

