"""The 1-form alpha_r and 2-form beta_r with their geometric decompositions.

beta is always computed from the pointwise formulas in terms of the frame
derivative nabla L, torsion, and the third-order Hessian of r, never by
differentiating alpha: the formulas stay continuous for admissible
defining functions while d(alpha) exists only weakly.  A finite-difference
route for d(alpha) is provided separately as a cross-check
(:func:`beta_weak_residual`), and the d-closedness of the pullback of alpha
to a complex submanifold of the boundary is tested by per-cell Stokes
circulations (:func:`pullback_alpha_dclosed`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import frame_at
from .fields import complex_point, real_coords
from .geometry import CTVector, curvature_contraction

__all__ = [
    "alpha",
    "alpha_geometric",
    "beta_mixed",
    "beta_unmixed",
    "beta_mixed_nullspace",
    "beta_geometric",
    "SubmanifoldPatch",
    "sgamma_patch_tangent",
    "max_circulation_density",
    "pullback_alpha_dclosed",
    "loop_alpha_integral",
    "beta_weak_residual",
]


def _frame(domain, p, frame):
    return frame if frame is not None else frame_at(domain, p)


def alpha(domain, p, v, frame=None):
    """alpha_r(V) = del-delbar r(V, Lbar) extended to complexified vectors.

    Real-valued as a 1-form: alpha(Vbar) = conj(alpha(V)).  Defined on the
    whole frame neighborhood, not only on the boundary.  ``p`` may be a
    batch of points (B, n) with ``v`` of coefficients (B, n); the result is
    then an array (B,).
    """
    fr = _frame(domain, p, frame)
    lbar = fr.L.conj()
    out = 0.0 + 0.0j
    if np.any(v.h):
        out += fr.mixed_pairing(CTVector.holo(v.h), lbar)
    if np.any(v.a):
        out += fr.mixed_pairing(fr.L, CTVector.anti(v.a))
    return out


def alpha_geometric(domain, p, zvec, frame=None):
    """alpha via the geometric split: Z log|dr| - i |X_r|^{-2} <sff(Z, J X_r), X_r>.

    Requires the domain's gradient-norm field.  With the sff identity the
    second term is + i Hess(Z, J X_r) r.  ``zvec`` must be of type (1,0).
    """
    fr = _frame(domain, p, frame)
    if domain.grad_norm_field is None:
        raise ValueError("no |dr| field available for the geometric alpha formula")
    gjet = domain.grad_norm_field.jet(fr.z, 1)
    from .fields import wirtinger_table

    w1 = wirtinger_table(gjet, domain.n).w1
    z_log_norm = complex(zvec.h @ w1[: domain.n]) / gjet.value
    return z_log_norm + 1j * fr.hess_r(zvec, fr.X.J())


def _nabla_Lbar_along(fr, zvec):
    """nabla_Z (Lbar) = conj(nabla_{Zbar} L): a (0,1) vector, plain derivative."""
    w1 = fr.L_w1()
    dl = w1[:, fr.n :] @ zvec.h.conj()     # Zbar L^i
    return CTVector.anti(dl.conj())


def beta_unmixed(domain, p, zvec, wvec, frame=None):
    """beta_r(Z, W) = -(i/2) (ddbar r(W, nabla_Z Lbar) - ddbar r(Z, nabla_W Lbar))."""
    fr = _frame(domain, p, frame)
    term_w = fr.mixed_pairing(wvec, _nabla_Lbar_along(fr, zvec))
    term_z = fr.mixed_pairing(zvec, _nabla_Lbar_along(fr, wvec))
    return complex(-0.5j * (term_w - term_z))


def _torsion_vec(fr, x, y):
    gamma = fr.chern(1).gamma
    anti = gamma - gamma.transpose(0, 2, 1)
    return CTVector.holo(np.einsum("ijk,j,k->i", anti, x.h, y.h))


def beta_mixed(domain, p, zvec, wvec, frame=None):
    """beta_r(Z, Wbar) from the continuous pointwise formula.

    -i H^3(X_r, Z, Wbar) r + (i/2) ddbar r(T(Z, L), Wbar)
    - (i/2) ddbar r(nabla_Z L, Wbar) + (i/2) ddbar r(Z, T(Wbar, Lbar))
    - (i/2) ddbar r(Z, nabla_{Wbar} Lbar).
    """
    fr = _frame(domain, p, frame)
    wbar = wvec.conj()
    h3 = fr.h3_r(fr.X, zvec, wbar)
    tau_z = _torsion_vec(fr, zvec, fr.L)
    nabla_z_l = fr.nabla_L(zvec)
    tau_w_bar = _torsion_vec(fr, wvec, fr.L).conj()
    nabla_wbar_lbar = fr.nabla_L(wvec).conj()
    out = -1j * h3
    out += 0.5j * fr.mixed_pairing(tau_z, wbar)
    out += -0.5j * fr.mixed_pairing(nabla_z_l, wbar)
    out += 0.5j * fr.mixed_pairing(zvec, tau_w_bar)
    out += -0.5j * fr.mixed_pairing(zvec, nabla_wbar_lbar)
    return complex(out)


def beta_mixed_nullspace(domain, p, zvec, wvec, frame=None):
    """Null-space form of beta(Z, Wbar):

    -i H^3(X_r, Z, Wbar) r - i alpha(Z) alpha(Wbar)
    + i (Hess(X_r, Z) r) alpha(Wbar) + i alpha(Z) (Hess(X_r, Wbar) r).

    Valid for Z, W in the Levi null space; used as an independent route.
    """
    fr = _frame(domain, p, frame)
    wbar = wvec.conj()
    h3 = fr.h3_r(fr.X, zvec, wbar)
    a_z = alpha(domain, p, zvec, frame=fr)
    a_wbar = alpha(domain, p, wbar, frame=fr)
    hx_z = fr.hess_r(fr.X, zvec)
    hx_wbar = fr.hess_r(fr.X, wbar)
    return complex(-1j * h3 - 1j * a_z * a_wbar + 1j * hx_z * a_wbar + 1j * a_z * hx_wbar)


def beta_geometric(domain, p, zvec, frame=None, null_tol=1e-6):
    """-i beta_r(Z, Zbar) from boundary geometry, for Z in the Levi null space:

    - (ddbar log|dr|)(Z, Zbar) + sum_j |sff(Z, W_j)|^2
    + (1/2) <R(Z, Zbar) nu_C, nu_C>.

    Returns the real number entering the margin inequalities.
    """
    from .boundary import levi_data
    from .fields import wirtinger_table
    from . import jets

    fr = _frame(domain, p, frame)
    ld = levi_data(domain, fr)
    ld.check_null(zvec, null_tol)
    if domain.grad_norm_field is None:
        raise ValueError("no |dr| field available for the geometric beta formula")

    gjet = domain.grad_norm_field.jet(fr.z, 2)
    log_jet = jets.log(gjet)
    w2 = wirtinger_table(log_jet, domain.n).mixed_hessian
    log_term = float(np.real(zvec.h @ w2 @ zvec.h.conj()))

    xnorm2 = fr.norm2(fr.X)
    sff_sum = sum(abs(fr.hess_r(zvec, wj)) ** 2 for wj in ld.basis) * xnorm2
    curv = curvature_contraction(domain.metric, fr.z, zvec, fr.nu_C, frame=fr.chern(2))
    return float(-log_term + sff_sum + 0.5 * curv)


# ----------------------------------------------------------------------
# submanifold pullbacks
# ----------------------------------------------------------------------

@dataclass
class SubmanifoldPatch:
    """Holomorphically parametrized complex curve S inside the boundary.

    ``chart(u)`` maps complex parameters of any shape to chart points (one
    more axis of length n); ``tangent(u)`` returns dz/du, the (1,0) tangent
    coefficients, in the same layout.  ``u_range`` /``v_range`` bound the
    real and imaginary parts of the parameter grid.
    """

    domain: object
    chart: object
    tangent: object
    u_range: tuple
    v_range: tuple

    def validate(self, grid=5, tol_bnd=1e-9):
        us = np.linspace(*self.u_range, grid)
        vs = np.linspace(*self.v_range, grid)
        for a in us:
            for b in vs:
                u = complex(a, b)
                z = self.chart(u)
                rv = self.domain.r.jet(z, 1).value
                if abs(np.real(rv)) > tol_bnd:
                    raise ValueError(f"patch leaves the boundary at u = {u}: r = {rv}")
                fr = frame_at(self.domain, z, r_order=2)
                t = np.asarray(self.tangent(u), dtype=complex)
                if abs(complex(fr.u @ t)) > 1e-8 * (1.0 + np.max(np.abs(t))):
                    raise ValueError(f"patch tangent not annihilated by del r at u = {u}")
        return self


def sgamma_patch_tangent(domain):
    """Patch for the Levi-degenerate curve of the worm-type domains.

    Parametrizes z = (0, exp(u/2)) so that log|z_2|^2 = Re u; the imaginary
    part of u is the fiber angle (period 4 pi in u for one loop of z_2^2,
    2 pi covers the circle once in angle arg z_2 = Im u / 2).
    """
    a = domain.params["gamma"] - np.pi / 2

    def chart(u):
        z2 = np.exp(np.asarray(u) / 2.0)
        return np.stack([np.zeros_like(z2), z2], axis=-1)

    def tangent(u):
        z2 = np.exp(np.asarray(u) / 2.0)
        return np.stack([np.zeros_like(z2), z2 / 2.0], axis=-1)

    return SubmanifoldPatch(
        domain=domain,
        chart=chart,
        tangent=tangent,
        u_range=(-0.9 * a, 0.9 * a),
        v_range=(0.0, 4.0 * np.pi),
    )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


def _alpha_on_patch(domain, patch):
    def a_of(u):
        return alpha(domain, patch.chart(u), CTVector.holo(patch.tangent(u)))

    return a_of


def _complex(re, im):
    """Complex array with exactly the given real and imaginary parts."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _edge_integrals(a_of, u0, u1):
    """Integrals of the real 1-form (A du + conj(A) dubar) along straight edges u0[k] -> u1[k].

    One ``a_of`` call evaluates the Gauss-Legendre nodes of every edge; the
    node terms of each edge are added in node order.
    """
    mid, half = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
    values = a_of((mid + _GL_NODES[:, None] * half).ravel()).reshape(len(_GL_NODES), -1)
    total = 0.0
    for weight, a_node in zip(_GL_WEIGHTS, values):
        # Re(a_node * half), rounded as the scalar complex product rounds
        total += weight * 2.0 * (a_node.real * half.real - a_node.imag * half.imag)
    return total


def max_circulation_density(a_of, patch, grid):
    """Max per-cell Stokes circulation density of a pulled-back 1-form.

    ``a_of(u)`` is the (1,0) component of the form at an array of patch
    parameters; every grid cell is integrated with Gauss-Legendre edge
    quadrature (each interior edge evaluated once, one ``a_of`` call per
    grid line) and the largest |circulation| / area is returned.  A NaN
    anywhere gives NaN.
    """
    nu, nv = grid
    us = np.linspace(*patch.u_range, nu + 1)
    vs = np.linspace(*patch.v_range, nv + 1)
    horiz = np.empty((nu, nv + 1))
    vert = np.empty((nu + 1, nv))
    for j in range(nv + 1):
        horiz[:, j] = _edge_integrals(a_of, _complex(us[:-1], vs[j]), _complex(us[1:], vs[j]))
    for i in range(nu + 1):
        vert[i, :] = _edge_integrals(a_of, _complex(us[i], vs[:-1]), _complex(us[i], vs[1:]))
    circ = horiz[:, :-1] + vert[1:, :] - horiz[:, 1:] - vert[:-1, :]
    area = np.diff(us)[:, None] * np.diff(vs)[None, :]
    return float(np.max(np.abs(circ) / area))


def pullback_alpha_dclosed(domain, patch, grid=(32, 32)):
    """Max per-cell Stokes circulation density of the pulled-back alpha;
    weak d-closedness drives this to zero."""
    if grid[0] * grid[1] < 32 * 32:
        raise ValueError("patch grid must have at least 32x32 cells")
    patch.validate()
    return max_circulation_density(_alpha_on_patch(domain, patch), patch, grid)


def loop_alpha_integral(domain, patch, u_fixed=0.0, v_span=(0.0, 2.0 * np.pi), segments=96):
    """Line integral of the pulled-back alpha along u = const, v in v_span."""
    vs = np.linspace(*v_span, segments + 1)
    edges = _edge_integrals(_alpha_on_patch(domain, patch),
                            _complex(u_fixed, vs[:-1]), _complex(u_fixed, vs[1:]))
    return sum(edges)


# ----------------------------------------------------------------------
# weak identity beta = -(i/2)(d'alpha - d''alpha), finite-difference route
# ----------------------------------------------------------------------

def _alpha_components(domain, z):
    fr = frame_at(domain, z, r_order=2)
    n = domain.n
    eye = np.eye(n, dtype=complex)
    return np.array([alpha(domain, z, CTVector.holo(eye[j]), frame=fr) for j in range(n)])


def beta_weak_residual(domain, p, zvec, wvec, step=1e-4, frame=None):
    """Residuals of beta against grid-differentiated alpha.

    Computes d alpha by central differences of the component functions
    A_j = alpha(d/dz_j) over the ambient chart and compares
    -(i/2)(d'alpha - d''alpha) with the pointwise beta formulas.  Returns
    ``(unmixed_residual, mixed_residual)``.
    """
    fr = _frame(domain, p, frame)
    z = fr.z
    n = domain.n
    x0 = real_coords(z)
    da = np.empty((2 * n, n), dtype=complex)  # real-direction derivatives of A_j
    for i in range(2 * n):
        e = np.zeros_like(x0)
        e[i] = step
        da[i] = (_alpha_components(domain, complex_point(x0 + e))
                 - _alpha_components(domain, complex_point(x0 - e))) / (2 * step)
    dz_a = 0.5 * (da[:n] - 1j * da[n:])      # d A_j / dz_k  -> [k, j]
    dzbar_a = 0.5 * (da[:n] + 1j * da[n:])   # d A_j / dzbar_k -> [k, j]

    zc, wc = zvec.h, wvec.h
    # (2,0) part: partial alpha(Z, W) = Z^k W^j dz_k A_j - W^k Z^j dz_k A_j
    d_alpha_zw = complex(zc @ dz_a @ wc - wc @ dz_a @ zc)
    fd_unmixed = -0.5j * d_alpha_zw
    pt_unmixed = beta_unmixed(domain, p, zvec, wvec, frame=fr)

    # (1,1) part on (Z, Wbar): -(i/2)[ Z^k conj(W^j) dz_k(conj A_j)
    #                                  + conj(W^k) Z^j dzbar_k A_j ]
    # with dz_k(conj A_j) = conj(dzbar_k A_j) for functions of real variables.
    term = complex(zc @ dzbar_a.conj() @ wc.conj() + wc.conj() @ dzbar_a @ zc)
    fd_mixed = -0.5j * term
    pt_mixed = beta_mixed(domain, p, zvec, wvec, frame=fr)
    return abs(fd_unmixed - pt_unmixed), abs(fd_mixed - pt_mixed)
