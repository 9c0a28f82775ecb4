import math

import numpy as np
import pytest

from mixdiv import (
    CircleGrid,
    FVector,
    adjoint,
    apply_linear_map,
    body_densities,
    body_eval,
    body_functionals,
    ellipse,
    isoperimetric_check,
    ith_mixed_body_divergence,
    make_builtin,
    mixed_body_divergence,
    trigball,
    unit_disk,
)
from mixdiv.errors import InvalidParameter, SingularMatrix, UnsupportedFamily
from mixdiv.geometry import _BLOCK, ConvexBody2D

from conftest import random_det_one_map

GRID = CircleGrid(256)


def test_grid_weights_sum():
    assert GRID.weights.sum() == pytest.approx(2 * math.pi, rel=1e-15)
    with pytest.raises(InvalidParameter):
        CircleGrid(63)
    with pytest.raises(InvalidParameter):
        CircleGrid(32)


def test_disk_support_constant():
    # h^2 = 1 + 0 x^2 and f = 1/(1 * 1): exact on every node and at any angle
    ev = body_eval(unit_disk(), GRID)
    for key, value in (("h", 1.0), ("hp", 0.0), ("hpp", 0.0), ("f", 1.0)):
        assert np.all(ev[key] == value), key
    theta = np.linspace(-7.0, 7.0, 101)
    for x, value in zip(unit_disk().support_derivatives(theta), (1.0, 0.0, 0.0)):
        assert np.all(x == value)


def test_trigball_curvature_formula():
    K = trigball(0.05, 3)
    ev = body_eval(K, GRID)
    expected = 1.0 + 0.05 * (1 - 9) * np.cos(3 * GRID.nodes)
    assert np.allclose(ev["f"], expected, atol=1e-13)


def test_trigball_admissibility():
    with pytest.raises(InvalidParameter):
        trigball(0.2, 3)  # 0.2 * 8 = 1.6 >= 1
    with pytest.raises(InvalidParameter):
        trigball(0.1, 1)


def test_ellipse_derivative_consistency():
    # analytic h' and h'' against central differences
    K = ellipse(2.0, 0.5, 0.3)
    theta = GRID.nodes
    h, hp, hpp = K.support_derivatives(theta)
    eps = 1e-5
    h_plus, h_minus = (K.support_derivatives(theta + d)[0] for d in (eps, -eps))
    hp_num = (h_plus - h_minus) / (2 * eps)
    hpp_num = (h_plus - 2 * h + h_minus) / eps ** 2
    assert np.allclose(hp, hp_num, atol=1e-8)
    assert np.allclose(hpp, hpp_num, atol=1e-5)


def test_disk_functionals():
    fn = body_functionals(unit_disk(), GRID)
    assert fn.volume == pytest.approx(math.pi, rel=1e-12)
    assert fn.polar_volume == pytest.approx(math.pi, rel=1e-12)
    assert fn.boundary_length == pytest.approx(2 * math.pi, rel=1e-12)
    assert fn.affine_surface_area == pytest.approx(2 * math.pi, rel=1e-12)


@pytest.mark.parametrize("a,b", [(2.0, 0.5), (3.0, 1.0), (1.5, 1.4)])
def test_ellipse_closed_forms(a, b):
    fn = body_functionals(ellipse(a, b), GRID)
    assert fn.volume == pytest.approx(math.pi * a * b, rel=1e-10)
    assert fn.polar_volume == pytest.approx(math.pi / (a * b), rel=1e-10)
    assert fn.affine_surface_area == pytest.approx(
        2 * math.pi * (a * b) ** (1 / 3), rel=1e-8
    )


def test_quadrature_convergence():
    for K in [ellipse(2.0, 0.5, 0.7), trigball(0.1, 2)]:
        f128 = body_functionals(K, CircleGrid(128))
        f512 = body_functionals(K, CircleGrid(512))
        for name in ("volume", "polar_volume", "boundary_length", "affine_surface_area"):
            a, b = getattr(f128, name), getattr(f512, name)
            assert abs(a - b) <= 1e-10 * abs(b)


def test_body_densities_normalized():
    space = GRID.space()
    for K in [unit_disk(), ellipse(2.0, 0.5), trigball(0.08, 2)]:
        p, q = body_densities(K, GRID)
        assert space.integrate(p.values) == pytest.approx(1.0, abs=1e-10)
        assert space.integrate(q.values) == pytest.approx(1.0, abs=1e-10)


def test_disk_densities_uniform():
    p, q = body_densities(unit_disk(), GRID)
    assert np.allclose(p.values, 1 / (2 * math.pi), rtol=1e-12)
    assert np.allclose(q.values, 1 / (2 * math.pi), rtol=1e-12)


def test_ellipse_density_formula():
    # direct evaluation of the defining formulas at each node
    K = ellipse(2.0, 0.5)
    p, q = body_densities(K, GRID)
    h, _, hpp = K.support_derivatives(GRID.nodes)
    f = h + hpp
    polar = math.pi / (2.0 * 0.5)
    vol = math.pi * 2.0 * 0.5
    assert np.allclose(p.values, 1.0 / (2 * polar * h ** 2), rtol=1e-9)
    assert np.allclose(q.values, f * h / (2 * vol), rtol=1e-9)


def test_ball_divergence_identity(rng):
    for _ in range(20):
        radii = rng.uniform(0.3, 3.0, 3)
        bodies = [ellipse(r, r) for r in radii]
        fv = FVector([
            make_builtin("power", alpha=0.5),
            make_builtin("power", alpha=2.0),
            make_builtin("linear", a=1.0, b=1.0),
        ])
        rep = mixed_body_divergence(fv, bodies, "PQ", GRID)
        expected = math.prod(f.value_at_one for f in fv) ** (1 / 3)
        assert rep.value == pytest.approx(expected, abs=1e-10)


def test_concave_body_bound():
    fv = FVector([make_builtin("power", alpha=0.5)] * 2)
    rep = mixed_body_divergence(fv, [ellipse(2.0, 0.5), trigball(0.05, 2)], "QP", GRID)
    assert rep.value <= 1.0 + 1e-9


def test_body_change_of_order():
    fv = FVector([make_builtin("power", alpha=0.5), make_builtin("power", alpha=2.0)])
    bodies = [ellipse(2.0, 0.5), trigball(0.05, 2)]
    a = mixed_body_divergence(fv, bodies, "PQ", GRID).value
    b = mixed_body_divergence(fv.adjoint(), bodies, "QP", GRID).value
    assert a == pytest.approx(b, rel=1e-10)


def test_ith_body_endpoints():
    f1, f2 = make_builtin("power", alpha=0.5), make_builtin("power", alpha=2.0)
    K1, K2 = unit_disk(), ellipse(2.0, 0.5)
    from mixdiv import classical_f_divergence

    space = GRID.space()
    p2, q2 = body_densities(K2, GRID)
    d0 = ith_mixed_body_divergence(f1, f2, K1, K2, 0.0, "PQ", GRID).value
    assert d0 == pytest.approx(classical_f_divergence(f2, p2, q2, space).value, rel=1e-12)


def test_ith_body_same_body_constant_in_i():
    f = make_builtin("power", alpha=0.5)
    K = ellipse(2.0, 0.5)
    vals = [
        ith_mixed_body_divergence(f, f, K, K, i, "PQ", GRID).value
        for i in (0.0, 0.7, 1.0, 2.0)
    ]
    assert max(vals) - min(vals) <= 1e-12 * (1 + abs(vals[0]))


def test_apply_linear_map_identity_and_rotation():
    K = ellipse(2.0, 0.5, 0.2)
    K_id = apply_linear_map(K, np.eye(2))
    assert K_id.a == pytest.approx(2.0) and K_id.b == pytest.approx(0.5)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    K_rot = apply_linear_map(K, rot)
    f0 = body_functionals(K, GRID)
    f1 = body_functionals(K_rot, GRID)
    for name in ("volume", "polar_volume", "boundary_length", "affine_surface_area"):
        assert getattr(f1, name) == pytest.approx(getattr(f0, name), rel=1e-10)


def test_apply_linear_map_support_identity(rng):
    # h_{TK}(u) = h_K(T^t u) spot-checked on the grid
    K = ellipse(1.7, 0.6, 0.4)
    T = np.array([[1.2, 0.3], [-0.2, 0.9]])
    TK = apply_linear_map(K, T)
    theta = GRID.nodes[:32]
    u = np.stack([np.cos(theta), np.sin(theta)])
    tu = T.T @ u
    norms = np.linalg.norm(tu, axis=0)
    angles = np.arctan2(tu[1], tu[0])
    assert np.allclose(TK.support_derivatives(theta)[0],
                       norms * K.support_derivatives(angles)[0], rtol=1e-12)


def test_affine_invariance_det_one(rng):
    fv = FVector([make_builtin("power", alpha=0.5), make_builtin("power", alpha=2.0)])
    grid = CircleGrid(512)
    bodies = [ellipse(1.5, 0.8, 0.1), ellipse(2.0, 0.5, 1.0)]
    base = mixed_body_divergence(fv, bodies, "PQ", grid).value
    for _ in range(10):
        T = random_det_one_map(rng)
        mapped = [apply_linear_map(K, T) for K in bodies]
        val = mixed_body_divergence(fv, mapped, "PQ", grid).value
        assert val == pytest.approx(base, rel=1e-8)


def test_linear_map_errors():
    with pytest.raises(UnsupportedFamily):
        apply_linear_map(trigball(0.05, 2), np.eye(2))
    with pytest.raises(SingularMatrix):
        apply_linear_map(unit_disk(), np.zeros((2, 2)))


def test_linear_map_invertibility_is_judged_against_the_scale_of_T():
    # a tiny but well-conditioned map is invertible: its image is ellipse(2e-8, 5e-9)
    K = apply_linear_map(ellipse(2.0, 0.5, 0.3), 1e-8 * np.eye(2))
    assert (K.a, K.b) == (pytest.approx(2e-8, rel=1e-12), pytest.approx(5e-9, rel=1e-12))
    # condition number ~4e16, and a rank-1 map, are singular whatever their scale
    for T in ([[1e8, 1e8], [1e8, 1e8 + 1e-6]], [[1.0, 2.0], [2.0, 4.0]],
              [[1e-8, 2e-8], [2e-8, 4e-8]]):
        with pytest.raises(SingularMatrix):
            apply_linear_map(ellipse(2.0, 0.5, 0.3), T)


def test_isoperimetric_disk_equality():
    v = isoperimetric_check(unit_disk(), GRID)
    assert v.equality
    assert v.lhs == pytest.approx(1.0, rel=1e-12)
    assert v.rhs == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("K", [ellipse(2.0, 0.5), trigball(0.05, 2)])
def test_isoperimetric_strict(K):
    v = isoperimetric_check(K, GRID)
    assert v.satisfied and not v.equality and v.slack > 0


def test_jensen_chain_agrees_with_isoperimetric():
    # the boundary-length bound is the Jensen bound for f(t) = t^(3/2)
    # applied to the curvature density against the uniform density
    from mixdiv import Density, jensen_bound_check

    for K in [ellipse(2.0, 0.5), trigball(0.08, 2)]:
        grid = CircleGrid(512)
        space = grid.space()
        fn = body_functionals(K, grid)
        ev = body_eval(K, grid)
        f32 = make_builtin("power", alpha=1.5)
        # p: normalized f_K^(2/3), q: uniform on the circle
        p = Density(ev["f"] ** (2 / 3) / fn.affine_surface_area)
        q = Density(np.full(space.size, 1 / (2 * math.pi)))
        v = jensen_bound_check(f32, p, q, space)
        lhs_iso = fn.boundary_length / (2 * math.pi)
        scale = (fn.affine_surface_area / (2 * math.pi)) ** 1.5
        assert v.lhs * scale == pytest.approx(lhs_iso, rel=1e-10)
        assert v.satisfied


# -- grid tables and the single body evaluation ------------------------------


def _harmonic(grid, m):
    """(cos m*theta_j, sin m*theta_j) over the whole grid, joined from the
    blocks the library streams."""
    _, c, s = zip(*grid._blocks(m))
    return np.concatenate(c), np.concatenate(s)


@pytest.mark.parametrize("m", [1, 2, 40, 997])
def test_grid_harmonic_matches_mpmath(m):
    mpmath = pytest.importorskip("mpmath")
    c, s = _harmonic(GRID, m)
    N = GRID.node_count
    with mpmath.workdps(40):
        arg = [m * 2 * mpmath.pi * j / N for j in range(N)]
        c_ref = np.array([float(mpmath.cos(t)) for t in arg])
        s_ref = np.array([float(mpmath.sin(t)) for t in arg])
    assert np.max(np.abs(c - c_ref)) <= 1e-15
    assert np.max(np.abs(s - s_ref)) <= 1e-15


@pytest.mark.parametrize("K", [
    unit_disk(), ellipse(100.0, 0.01), ellipse(2.0, 0.5, 5.9), trigball(1e-6, 997),
])
def test_body_eval_matches_support_derivatives(K):
    ev = body_eval(K, GRID)
    for key, x in zip(("h", "hp", "hpp"), K.support_derivatives(GRID.nodes)):
        assert np.max(np.abs(ev[key] - x)) <= 1e-11 * max(1.0, np.max(np.abs(x)))


@pytest.mark.parametrize("call", [body_densities, body_functionals, isoperimetric_check])
def test_body_densities_evaluates_the_body_once(monkeypatch, call):
    import mixdiv.geometry as geometry

    calls, stream = [], geometry._stream

    def counting(K, grid):
        calls.append(K)
        return stream(K, grid)

    monkeypatch.setattr(geometry, "_stream", counting)
    call(ellipse(2.0, 0.5), GRID)
    assert len(calls) == 1


def test_a_bad_orientation_raises_before_any_body_is_evaluated(monkeypatch):
    import mixdiv.geometry as geometry

    calls = []
    monkeypatch.setattr(geometry, "_stream", lambda K, grid: calls.append(K))
    fv = FVector([make_builtin("power", alpha=0.5)] * 2)
    with pytest.raises(InvalidParameter, match="orientation"):
        mixed_body_divergence(fv, [ellipse(2.0, 0.5), ellipse(1.0, 1.5)], "XX", GRID)
    with pytest.raises(InvalidParameter, match="orientation"):
        ith_mixed_body_divergence(fv[0], fv[1], ellipse(2.0, 0.5), unit_disk(), 1.0, "XX", GRID)
    assert calls == []


def test_grid_tables_are_read_only():
    grid = CircleGrid(128)
    for table in (grid.nodes, grid.weights, *grid._trig):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_grid_equality_and_hash():
    a, b = CircleGrid(256), CircleGrid(256)
    a._trig  # computed tables do not take part in equality
    assert a == b and hash(a) == hash(b)
    assert CircleGrid(256) != CircleGrid(512)


# -- block streaming across block seams --------------------------------------

# three full blocks and a short last one
SEAM_GRID = CircleGrid(3 * _BLOCK + 2)


def _rel_max(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("m", [2, 5, 997])
def test_block_gather_is_the_exact_table_lookup(m):
    N = SEAM_GRID.node_count
    c1, s1 = SEAM_GRID._trig
    c, s = _harmonic(SEAM_GRID, m)
    idx = (m * np.arange(N)) % N
    assert np.array_equal(c, c1[idx]) and np.array_equal(s, s1[idx])


@pytest.mark.parametrize("K", [ellipse(2.0, 0.5, 0.3), trigball(0.03, 5)])
def test_block_seams_agree_with_plain_numpy(K):
    grid, w = SEAM_GRID, SEAM_GRID.weights
    h, hp, hpp = K.support_derivatives(grid.nodes)
    f = h + hpp
    ev = body_eval(K, grid)
    for key, x in zip(("h", "hp", "hpp", "f"), (h, hp, hpp, f)):
        assert _rel_max(ev[key], x) <= 1e-13
    fn = body_functionals(K, grid)
    ref = {
        "volume": 0.5 * np.dot(h * f, w),
        "polar_volume": 0.5 * np.dot(h ** -2, w),
        "boundary_length": np.dot(f, w),
        "affine_surface_area": np.dot(f ** (2 / 3), w),
    }
    for name, value in ref.items():
        assert getattr(fn, name) == pytest.approx(value, rel=1e-13)
    p, q = body_densities(K, grid)
    assert _rel_max(p.values, h ** -2 / np.dot(h ** -2, w)) <= 1e-13
    assert _rel_max(q.values, h * f / np.dot(h * f, w)) <= 1e-13


@pytest.mark.parametrize("K", [ellipse(2.0, 0.5, 0.3), trigball(0.03, 5)])
def test_body_functionals_builds_no_full_size_array(K):
    import tracemalloc

    grid = CircleGrid(32 * _BLOCK)
    grid.weights, grid._trig  # the grid's own tables are built once
    tracemalloc.start()
    try:
        body_functionals(K, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.node_count


@pytest.mark.parametrize("K", [ellipse(2.0, 0.5, 0.3), trigball(0.03, 5)])
def test_body_densities_allocates_only_its_pair(K):
    # p and q fill the two rows of one (2, N) array; nothing else is full size
    import tracemalloc

    grid = CircleGrid(32 * _BLOCK)
    grid.weights, grid._trig  # the grid's own tables are built once
    tracemalloc.start()
    try:
        body_densities(K, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * grid.node_count


@pytest.mark.parametrize("K", [ellipse(100.0, 0.01), ellipse(0.01, 100.0), ellipse(2.0, 0.5, 5.9),
                               ellipse(0.5, 2.0, 5.9)])
def test_closed_form_curvature_matches_mpmath(K):
    mpmath = pytest.importorskip("mpmath")
    grid = CircleGrid(1024)
    ev = body_eval(K, grid)
    with mpmath.workdps(40):
        a, b, d = mpmath.mpf(K.a), mpmath.mpf(K.b), mpmath.mpf(K.b) ** 2 - mpmath.mpf(K.a) ** 2
        ref_h, ref_f = [], []
        for theta in grid.nodes:
            u = mpmath.mpf(float(theta)) - mpmath.mpf(K.phi)
            cu, su = mpmath.cos(u), mpmath.sin(u)
            h = mpmath.sqrt(a ** 2 * cu ** 2 + b ** 2 * su ** 2)
            hp = d * su * cu / h
            ref_h.append(float(h))
            # f = h + h'' from (h^2)''/2 = h h'' + h'^2 = d (cos^2 u - sin^2 u)
            ref_f.append(float(h + (d * (cu ** 2 - su ** 2) - hp ** 2) / h))
    for key, ref, bound in (("h", ref_h, 1e-15), ("f", ref_f, 1e-14)):
        ref = np.array(ref)
        assert np.max(np.abs(ev[key] - ref) / ref) <= bound, key


# -- typed validation of geometry inputs -------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("family,kwargs", [
    ("ellipse", {"a": NAN}), ("ellipse", {"b": NAN}), ("ellipse", {"a": INF}),
    ("ellipse", {"b": -INF}), ("ellipse", {"phi": NAN}), ("ellipse", {"phi": INF}),
    ("trigball", {"eps": NAN}), ("trigball", {"eps": INF}),
    ("trigball", {"k": NAN}), ("trigball", {"k": INF}), ("trigball", {"k": 2.5}),
])
def test_body_rejects_non_finite_parameters(family, kwargs):
    with pytest.raises(InvalidParameter):
        ConvexBody2D(family, **kwargs)


@pytest.mark.parametrize("n", [256.0, "256", NAN, None, 257, 62])
def test_grid_rejects_a_bad_node_count(n):
    with pytest.raises(InvalidParameter):
        CircleGrid(n)


def test_grid_accepts_a_numpy_integer():
    assert CircleGrid(np.int64(256)) == GRID


@pytest.mark.parametrize("T", [[[NAN, 0.0], [0.0, 1.0]], [[1.0, INF], [0.0, 1.0]]])
def test_linear_map_rejects_non_finite_entries(T):
    with pytest.raises(InvalidParameter):
        apply_linear_map(ellipse(2.0, 0.5), T)
