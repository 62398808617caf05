import math

import numpy as np
import pytest

from dfindex import forms
from dfindex.boundary import levi_data, normal_frame, sample_boundary
from dfindex.fields import wirtinger_table
from dfindex.geometry import CTVector


def test_alpha_on_degenerate_annulus(worm_euclid):
    Z = CTVector.holo([0.0, 1.0])
    for z2 in (1.0, math.exp(0.4) * np.exp(0.6j), math.exp(-0.5) * np.exp(-1.2j)):
        P = np.array([0.0, z2], dtype=complex)
        assert forms.alpha(worm_euclid, P, Z) == pytest.approx(1j / z2, rel=1e-11)


def test_alpha_ball_tangent_and_zero(ball):
    P = np.array([1.0, 0.0], dtype=complex)
    assert abs(forms.alpha(ball, P, CTVector.holo([0.0, 1.0]))) < 1e-13
    zero = CTVector.holo([0.0, 0.0])
    assert forms.alpha(ball, P, zero) == 0.0


def test_alpha_is_real_one_form(worm_euclid, rng):
    P = np.array([0.0, math.exp(0.2)], dtype=complex)
    v = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    a = forms.alpha(worm_euclid, P, v)
    abar = forms.alpha(worm_euclid, P, v.conj())
    assert abar == pytest.approx(np.conj(a), abs=1e-12)
    real_vec = CTVector.real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    assert abs(complex(forms.alpha(worm_euclid, P, real_vec)).imag) < 1e-12


def test_alpha_geometric_cross_formula(ball, ball_sd, worm_euclid, worm_kahler):
    Z = CTVector.holo([0.0, 1.0])
    P = np.array([0.0, math.exp(0.3) * np.exp(0.5j)], dtype=complex)
    for domain in (worm_euclid, worm_kahler):
        a = forms.alpha(domain, P, Z)
        ag = forms.alpha_geometric(domain, P, Z)
        assert ag == pytest.approx(a, abs=1e-8)
    # ball: tangent alpha vanishes in both formulas
    bp = np.array([1.0, 0.0], dtype=complex)
    assert abs(forms.alpha_geometric(ball, bp, Z)) < 1e-10
    # constant |dr| (signed distance): the log-gradient term vanishes,
    # alpha is purely the shape-operator term
    p = sample_boundary(ball_sd, 1, 3)[0]
    fr = normal_frame(ball_sd, p)
    ld = levi_data(ball_sd, fr)
    zv = ld.basis[0]
    gjet = ball_sd.grad_norm_field.jet(fr.z, 1)
    w1 = wirtinger_table(gjet, 2).w1
    assert abs(complex(zv.h @ w1[:2])) < 1e-10
    assert forms.alpha_geometric(ball_sd, p, zv) == pytest.approx(
        forms.alpha(ball_sd, p, zv), abs=1e-8)


def test_nabla_L_pairing_identity(ball, worm_euclid, rng):
    # del r(nabla_Y L) = -Hess(Y, L) r for the dual frame field
    for domain in (ball, worm_euclid):
        for p in sample_boundary(domain, 3, 17):
            fr = normal_frame(domain, p)
            Y = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            nl = fr.nabla_L(Y)
            lhs = complex(fr.u @ nl.h)
            rhs = -fr.hess_r(Y, fr.L)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_beta_pullback_vanishes_on_annulus(worm_euclid):
    Z = CTVector.holo([0.0, 1.0])
    for z2 in (1.0, math.exp(-0.3) * np.exp(0.2j)):
        P = np.array([0.0, z2], dtype=complex)
        assert abs(forms.beta_mixed(worm_euclid, P, Z, Z)) < 1e-10
        assert abs(forms.beta_unmixed(worm_euclid, P, Z, Z)) < 1e-12


def test_beta_mixed_nullspace_route(worm_euclid, worm_kahler):
    Z = CTVector.holo([0.0, 1.0])
    for domain in (worm_euclid, worm_kahler):
        for z2 in (1.0, math.exp(0.45) * np.exp(1.0j)):
            P = np.array([0.0, z2], dtype=complex)
            direct = forms.beta_mixed(domain, P, Z, Z)
            via_null = forms.beta_mixed_nullspace(domain, P, Z, Z)
            assert direct == pytest.approx(via_null, abs=1e-8)


def test_beta_invariants(worm_euclid, rng):
    P = np.array([0.0, math.exp(0.1) * np.exp(-0.7j)], dtype=complex)
    Z = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    W = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    zero = CTVector.holo([0.0, 0.0])
    assert forms.beta_mixed(worm_euclid, P, zero, W) == 0.0
    assert abs(forms.beta_unmixed(worm_euclid, P, Z, Z)) < 1e-12      # antisymmetry
    bu_zw = forms.beta_unmixed(worm_euclid, P, Z, W)
    bu_wz = forms.beta_unmixed(worm_euclid, P, W, Z)
    assert bu_zw == pytest.approx(-bu_wz, abs=1e-12)
    bm = forms.beta_mixed(worm_euclid, P, Z, Z)
    assert abs((1j * bm).imag) < 1e-10


def test_beta_geometric_matches_mixed(worm_kahler):
    Z = CTVector.holo([0.0, 1.0])
    for z2 in (1.0, math.exp(0.3) * np.exp(0.4j)):
        P = np.array([0.0, z2], dtype=complex)
        bg = forms.beta_geometric(worm_kahler, P, Z)
        bm = forms.beta_mixed(worm_kahler, P, Z, Z)
        assert bg == pytest.approx(float(np.real(-1j * bm)), abs=1e-7)
    with pytest.raises(ValueError, match="null space"):
        forms.beta_geometric(worm_kahler, np.array([0.0, 1.0], dtype=complex),
                             CTVector.holo([1.0, 0.0]))


def test_metric_invariance_on_null_space(worm_euclid, worm_kahler):
    Z = CTVector.holo([0.0, 1.0])
    for z2 in (1.0, math.exp(0.5) * np.exp(2.0j), math.exp(-0.6)):
        P = np.array([0.0, z2], dtype=complex)
        a_e = forms.alpha(worm_euclid, P, Z)
        a_k = forms.alpha(worm_kahler, P, Z)
        assert a_k == pytest.approx(a_e, abs=1e-6)
        b_e = 1j * forms.beta_mixed(worm_euclid, P, Z, Z)
        b_k = 1j * forms.beta_mixed(worm_kahler, P, Z, Z)
        assert complex(b_k).real == pytest.approx(complex(b_e).real, abs=1e-6)


def test_weak_identity_against_grid_differentiated_alpha(ball, worm_euclid, rng):
    p = sample_boundary(ball, 1, 19)[0]
    ld = levi_data(ball, p)
    zv = ld.basis[0]
    wv = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    ru, rm = forms.beta_weak_residual(ball, p, zv, wv)
    assert ru < 1e-5 and rm < 1e-5
    P = np.array([0.0, math.exp(0.2)], dtype=complex)
    Z = CTVector.holo([0.0, 1.0])
    ru2, rm2 = forms.beta_weak_residual(worm_euclid, P, Z, Z)
    assert ru2 < 1e-5 and rm2 < 1e-5


def test_pullback_alpha_stokes_and_period(worm_euclid):
    patch = forms.sgamma_patch_tangent(worm_euclid)
    resid = forms.pullback_alpha_dclosed(worm_euclid, patch, grid=(32, 32))
    assert resid < 1e-6
    period = forms.loop_alpha_integral(worm_euclid, patch, v_span=(0.0, 4.0 * math.pi))
    # contour oracle: along z2 = e^{i v / 2} the pullback is -2 d(arg z2^2),
    # so one loop of the fiber circle integrates to -4 pi
    assert period == pytest.approx(-4.0 * math.pi, abs=1e-6)


def test_exact_form_pullback_has_tiny_circulation(worm_euclid):
    patch = forms.sgamma_patch_tangent(worm_euclid)

    # dh for h = Re(z2) + 0.3 log|z2|^2: (1,0) component at the patch tangent,
    # for an array of patch parameters
    def a_of(u):
        z = patch.chart(u)
        t = patch.tangent(u)
        dh = 0.5 + 0.3 / z[..., 1]     # d(Re z2)/dz2 = 1/2, d(log|z2|^2)/dz2 = 1/z2
        return dh * t[..., 1]

    resid = forms.max_circulation_density(a_of, patch, grid=(32, 32))
    assert resid < 1e-8


def test_patch_validation_rejects_off_boundary(ball):
    bad = forms.SubmanifoldPatch(
        domain=ball,
        chart=lambda u: np.array([0.5 + 0.1 * u.real, 0.2 * u.imag], dtype=complex),
        tangent=lambda u: np.array([0.1, 0.2j], dtype=complex),
        u_range=(0.0, 1.0),
        v_range=(0.0, 1.0),
    )
    with pytest.raises(ValueError, match="boundary"):
        bad.validate()


def test_one_nan_node_makes_the_circulation_density_nan(worm_euclid):
    patch = forms.sgamma_patch_tangent(worm_euclid)
    batches = []

    def a_of(u):
        out = 0.5 * patch.tangent(u)[..., 1]      # d(Re z2) pulled back: exact
        if not batches:
            out[5] = np.nan
        batches.append(len(u))
        return out

    assert math.isnan(forms.max_circulation_density(a_of, patch, grid=(32, 32)))
    # one call per grid line, each edge's 6 nodes evaluated once
    assert len(batches) == 33 + 33 and sum(batches) == 6 * 2 * 32 * 33
