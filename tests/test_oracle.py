import pytest
from hypothesis import given, strategies as st

from houghton.perm import FinPerm
from houghton.elem import GroupElement, finitary, t
from houghton.certs import eval_word
from houghton.oracle import (
    OracleError,
    _raw,
    _rmul,
    ball_affine_counterexample,
    ball_contains,
    bfs_closure_finite,
)


# -- finite closures ---------------------------------------------------------


def test_closure_alt5_from_basis_cycles():
    c = bfs_closure_finite([FinPerm.cycle(1, 2, m) for m in (3, 4, 5)], range(1, 6))
    assert c.order == 60
    assert c.contains(FinPerm.cycle(1, 2, 3))
    assert not c.contains(FinPerm.cycle(1, 2))


def test_closure_single_cycle():
    c = bfs_closure_finite([FinPerm.cycle(1, 2, 3)], [1, 2, 3])
    assert c.order == 3


def test_closure_sym5():
    c = bfs_closure_finite(
        [FinPerm.cycle(1, 2), FinPerm.cycle(1, 2, 3, 4, 5)], range(1, 6)
    )
    assert c.order == 120


def test_closure_refuses_large_carrier():
    with pytest.raises(OracleError):
        bfs_closure_finite([FinPerm.cycle(1, 2, 3)], range(1, 11))


def test_closure_refuses_offcarrier_generator():
    with pytest.raises(OracleError):
        bfs_closure_finite([FinPerm.cycle(1, 2, 7)], [1, 2, 3])


# -- word balls ----------------------------------------------------------------


def test_ball_finds_translated_cycle():
    g = finitary(FinPerm.cycle(-1, 0, 1))
    h = t(1)
    target = finitary(FinPerm.cycle(0, 1, 2))
    rep = ball_contains(g, h, target, 10)
    assert rep.found is not None
    assert eval_word({"g": g, "h": h}, rep.found) == target


def test_ball_trivial_radius_one():
    g = finitary(FinPerm.cycle(-1, 0, 1))
    rep = ball_contains(g, t(1), g, 1)
    assert rep.found == (("g", 1),)


def test_ball_identity_at_radius_zero():
    g = finitary(FinPerm.cycle(-1, 0, 1))
    rep = ball_contains(g, t(1), t(0), 0)
    assert rep.found == ()
    assert rep.visited == 1


def test_ball_deterministic():
    g = finitary(FinPerm.cycle(-1, 0, 1))
    target = finitary(FinPerm.cycle(2, 3, 4))
    reps = [ball_contains(g, t(1), target, 8) for _ in range(2)]
    assert reps[0] == reps[1]


def test_ball_not_found_reports_none():
    g = finitary(FinPerm.cycle(-2, 0, 2))
    target = finitary(FinPerm.cycle(0, 1, 2))
    rep = ball_contains(g, t(1), target, 6)
    assert rep.found is None
    assert rep.visited > 100


def test_ball_refuses_large_radius():
    with pytest.raises(OracleError):
        ball_contains(t(1), t(1), t(2), 15)


def test_affine_scan_blocked_pair_has_no_violator():
    # gaps (2, 2): everything in the ball respects classes mod 2
    g = finitary(FinPerm.cycle(-2, 0, 2))
    rep = ball_affine_counterexample(g, t(1), 2, 9)
    assert rep.found is None


def test_affine_scan_coprime_pair_finds_violator():
    g = finitary(FinPerm.cycle(-1, 0, 1))
    rep = ball_affine_counterexample(g, t(1), 2, 4)
    assert rep.found is not None


@st.composite
def _elements(draw):
    pts = draw(st.lists(st.integers(min_value=-8, max_value=8), unique=True, max_size=6))
    img = draw(st.permutations(pts))
    return GroupElement(FinPerm(dict(zip(pts, img))), draw(st.integers(min_value=-3, max_value=3)))


@given(_elements(), _elements())
def test_rmul_matches_the_group_product(a, b):
    assert _rmul(_raw(a), _raw(b)) == _raw(a * b)
