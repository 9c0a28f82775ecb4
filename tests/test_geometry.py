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

from conftest import random_det_one_map

GRID = CircleGrid(256)


def test_grid_weights_sum():
    assert GRID.weights.sum() == pytest.approx(2 * math.pi, rel=1e-15)
    with pytest.raises(InvalidParameter):
        CircleGrid(63)
    with pytest.raises(InvalidParameter):
        CircleGrid(32)


def test_disk_support_constant():
    ev = body_eval(unit_disk(), GRID)
    assert np.allclose(ev["h"], 1.0)
    assert np.allclose(ev["hpp"], 0.0, atol=1e-12)
    assert np.allclose(ev["f"], 1.0)


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
    hp_num = (K.support(theta + eps) - K.support(theta - eps)) / (2 * eps)
    hpp_num = (K.support(theta + eps) - 2 * h + K.support(theta - eps)) / eps ** 2
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
    assert np.allclose(TK.support(theta), norms * K.support(angles), rtol=1e-12)


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


@pytest.mark.parametrize("m", [1, 2, 40, 997])
def test_grid_harmonic_matches_mpmath(m):
    mpmath = pytest.importorskip("mpmath")
    c, s = GRID.harmonic(m)
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


def test_body_densities_evaluates_the_body_once(monkeypatch):
    import mixdiv.geometry as geometry

    calls = []

    def counting(K, grid):
        calls.append(K)
        return body_eval(K, grid)

    monkeypatch.setattr(geometry, "body_eval", counting)
    body_densities(ellipse(2.0, 0.5), GRID)
    assert len(calls) == 1


def test_grid_tables_are_read_only():
    grid = CircleGrid(128)
    for table in (grid.nodes, grid.weights, *grid.harmonic(1)):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_grid_equality_and_hash():
    a, b = CircleGrid(256), CircleGrid(256)
    a.harmonic(3)  # computed tables do not take part in equality
    assert a == b and hash(a) == hash(b)
    assert CircleGrid(256) != CircleGrid(512)
