import dataclasses
import math
import re

import numpy as np
import pytest

from dfindex import forms
from dfindex.boundary import levi_data, normal_frame, sample_boundary
from dfindex.fields import wirtinger_table
from dfindex.geometry import CTVector
from dfindex.worm import sgamma_patch_tangent


def test_alpha_on_degenerate_annulus(worm_euclid):
    Z = CTVector.holo([0.0, 1.0])
    for z2 in (1.0, math.exp(0.4) * np.exp(0.6j), math.exp(-0.5) * np.exp(-1.2j)):
        P = np.array([0.0, z2], dtype=complex)
        assert forms.alpha(normal_frame(worm_euclid, P), Z) == pytest.approx(1j / z2, rel=1e-11)


def test_alpha_ball_tangent_and_zero(ball):
    fr = normal_frame(ball, np.array([1.0, 0.0], dtype=complex))
    assert abs(forms.alpha(fr, CTVector.holo([0.0, 1.0]))) < 1e-13
    zero = CTVector.holo([0.0, 0.0])
    assert forms.alpha(fr, zero) == 0.0


def test_alpha_is_real_one_form(worm_euclid, rng):
    fr = normal_frame(worm_euclid, np.array([0.0, math.exp(0.2)], dtype=complex))
    v = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    a = forms.alpha(fr, v)
    abar = forms.alpha(fr, v.conj())
    assert abar == pytest.approx(np.conj(a), abs=1e-12)
    real_vec = CTVector.real_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    assert abs(complex(forms.alpha(fr, real_vec)).imag) < 1e-12


def test_alpha_geometric_cross_formula(ball, ball_sd, worm_euclid, worm_kahler):
    Z = CTVector.holo([0.0, 1.0])
    P = np.array([0.0, math.exp(0.3) * np.exp(0.5j)], dtype=complex)
    for domain in (worm_euclid, worm_kahler):
        fr = normal_frame(domain, P)
        a = forms.alpha(fr, Z)
        ag = forms.alpha_geometric(fr, Z)
        assert ag == pytest.approx(a, abs=1e-8)
    # ball: tangent alpha vanishes in both formulas
    bp = np.array([1.0, 0.0], dtype=complex)
    assert abs(forms.alpha_geometric(normal_frame(ball, bp), Z)) < 1e-10
    # constant |dr| (signed distance): the log-gradient term vanishes,
    # alpha is purely the shape-operator term
    p = sample_boundary(ball_sd, 1, 3)[0]
    fr = normal_frame(ball_sd, p)
    ld = levi_data(fr)
    zv = ld.basis[0]
    w1 = wirtinger_table(fr.grad_norm_jet, 2).w1
    assert abs(complex(zv.h @ w1[:2])) < 1e-10
    assert forms.alpha_geometric(fr, zv) == pytest.approx(forms.alpha(fr, zv), abs=1e-8)


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
        fr = normal_frame(worm_euclid, np.array([0.0, z2], dtype=complex))
        assert abs(forms.beta_mixed(fr, Z, Z)) < 1e-10
        assert abs(forms.beta_unmixed(fr, Z, Z)) < 1e-12


def test_beta_mixed_nullspace_route(worm_euclid, worm_kahler):
    Z = CTVector.holo([0.0, 1.0])
    for domain in (worm_euclid, worm_kahler):
        for z2 in (1.0, math.exp(0.45) * np.exp(1.0j)):
            fr = normal_frame(domain, np.array([0.0, z2], dtype=complex))
            direct = forms.beta_mixed(fr, Z, Z)
            via_null = forms.beta_mixed_nullspace(fr, Z, Z)
            assert direct == pytest.approx(via_null, abs=1e-8)


def test_beta_invariants(worm_euclid, rng):
    fr = normal_frame(worm_euclid, np.array([0.0, math.exp(0.1) * np.exp(-0.7j)], dtype=complex))
    Z = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    W = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    zero = CTVector.holo([0.0, 0.0])
    assert forms.beta_mixed(fr, zero, W) == 0.0
    assert abs(forms.beta_unmixed(fr, Z, Z)) < 1e-12      # antisymmetry
    bu_zw = forms.beta_unmixed(fr, Z, W)
    bu_wz = forms.beta_unmixed(fr, W, Z)
    assert bu_zw == pytest.approx(-bu_wz, abs=1e-12)
    bm = forms.beta_mixed(fr, Z, Z)
    assert abs((1j * bm).imag) < 1e-10


def test_beta_geometric_matches_mixed(worm_kahler):
    Z = CTVector.holo([0.0, 1.0])
    for z2 in (1.0, math.exp(0.3) * np.exp(0.4j)):
        fr = normal_frame(worm_kahler, np.array([0.0, z2], dtype=complex))
        bg = forms.beta_geometric(fr, Z)
        bm = forms.beta_mixed(fr, Z, Z)
        assert bg == pytest.approx(float(np.real(-1j * bm)), abs=1e-7)
    with pytest.raises(ValueError, match="null space"):
        forms.beta_geometric(normal_frame(worm_kahler, np.array([0.0, 1.0], dtype=complex)),
                             CTVector.holo([1.0, 0.0]))


def test_metric_invariance_on_null_space(worm_euclid, worm_kahler):
    Z = CTVector.holo([0.0, 1.0])
    for z2 in (1.0, math.exp(0.5) * np.exp(2.0j), math.exp(-0.6)):
        P = np.array([0.0, z2], dtype=complex)
        fe, fk = normal_frame(worm_euclid, P), normal_frame(worm_kahler, P)
        a_e = forms.alpha(fe, Z)
        a_k = forms.alpha(fk, Z)
        assert a_k == pytest.approx(a_e, abs=1e-6)
        b_e = 1j * forms.beta_mixed(fe, Z, Z)
        b_k = 1j * forms.beta_mixed(fk, Z, Z)
        assert complex(b_k).real == pytest.approx(complex(b_e).real, abs=1e-6)


def test_weak_identity_against_grid_differentiated_alpha(ball, worm_euclid, rng):
    fr = normal_frame(ball, sample_boundary(ball, 1, 19)[0])
    zv = levi_data(fr).basis[0]
    wv = CTVector.holo(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    ru, rm = forms.beta_weak_residual(fr, zv, wv)
    assert ru < 1e-5 and rm < 1e-5
    P = np.array([0.0, math.exp(0.2)], dtype=complex)
    Z = CTVector.holo([0.0, 1.0])
    ru2, rm2 = forms.beta_weak_residual(normal_frame(worm_euclid, P), Z, Z)
    assert ru2 < 1e-5 and rm2 < 1e-5


def test_pullback_alpha_stokes_and_period(worm_euclid):
    patch = sgamma_patch_tangent(worm_euclid)
    resid = forms.pullback_alpha_dclosed(patch)
    assert resid < 1e-6
    period = forms.loop_alpha_integral(patch)
    # contour oracle: along z2 = e^{i v / 2} the pullback is -2 d(arg z2^2),
    # so one loop of the fiber circle integrates to -4 pi
    assert period == pytest.approx(-4.0 * math.pi, abs=1e-6)


def test_exact_form_pullback_has_tiny_circulation(worm_euclid):
    patch = sgamma_patch_tangent(worm_euclid)

    # dh for h = Re(z2) + 0.3 log|z2|^2: (1,0) component at the patch tangent,
    # for an array of patch parameters
    def a_of(u):
        z = patch.chart(u)
        t = patch.tangent(u)
        dh = 0.5 + 0.3 / z[..., 1]     # d(Re z2)/dz2 = 1/2, d(log|z2|^2)/dz2 = 1/z2
        return dh * t[..., 1]

    resid = forms.max_circulation_density(a_of, patch)
    assert resid < 1e-8


def test_patch_validation_rejects_off_boundary(ball):
    bad = forms.SubmanifoldPatch(
        domain=ball,
        chart=lambda u: np.stack([0.5 + 0.1 * u.real, 0.2 * u.imag], axis=-1).astype(complex),
        tangent=lambda u: np.broadcast_to(np.array([0.1, 0.2j]), np.shape(u) + (2,)),
        u_range=(0.0, 1.0),
        v_range=(0.0, 1.0),
    )
    with pytest.raises(ValueError, match="boundary"):
        bad.validate()


def test_patch_validation_names_the_first_off_boundary_parameter(worm_euclid):
    patch = sgamma_patch_tangent(worm_euclid)

    def chart(u):
        # off the boundary where Re u >= 0 and Im u > 2.5 pi: six of the 5 x 5 grid points
        z = patch.chart(u)
        off = (np.real(u) >= 0.0) & (np.imag(u) > 2.5 * np.pi)
        return z + np.where(off, 0.1, 0.0)[..., None] * np.array([1.0, 0.0])

    bad = dataclasses.replace(patch, chart=chart)
    # the grid runs over u, then over v; the first bad point is the middle u at v = 3 pi
    first = complex(np.linspace(*patch.u_range, 5)[2], np.linspace(*patch.v_range, 5)[3])
    with pytest.raises(ValueError, match=re.escape(f"boundary at u = {first}:")):
        bad.validate()
    assert patch.validate() is patch


def test_one_nan_node_makes_the_circulation_density_nan(worm_euclid):
    patch = sgamma_patch_tangent(worm_euclid)
    batches = []

    def a_of(u):
        out = 0.5 * patch.tangent(u)[..., 1]      # d(Re z2) pulled back: exact
        if not batches:
            out[5] = np.nan
        batches.append(len(u))
        return out

    assert math.isnan(forms.max_circulation_density(a_of, patch))
    # one call per grid line, each edge's 6 nodes evaluated once
    assert len(batches) == 33 + 33 and sum(batches) == 6 * 2 * 32 * 33
