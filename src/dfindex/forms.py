"""The 1-form alpha_r and 2-form beta_r with their geometric decompositions.

beta is always computed from the pointwise formulas in terms of the frame
derivative nabla L, torsion, and the third-order Hessian of r, never by
differentiating alpha: the formulas stay continuous for admissible
defining functions while d(alpha) exists only weakly.  A finite-difference
route for d(alpha) is provided separately as a cross-check
(:func:`beta_weak_residual`), and the d-closedness of the pullback of alpha
to a complex submanifold of the boundary is tested by per-cell Stokes
circulations (:func:`pullback_alpha_dclosed`).  Every evaluator takes its
:class:`~dfindex.boundary.NormalFrame` first, over one point or a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .boundary import NormalFrame, _col, levi_data
from .fields import complex_point, real_coords, wirtinger_table
from .geometry import CTVector, _abs_sq, _dot, _lead, _pair, _per_point, curvature_contraction, torsion
from .jets import _vmul

__all__ = [
    "NO_CONSTRAINT",
    "alpha",
    "alpha_geometric",
    "beta_mixed",
    "beta_unmixed",
    "beta_mixed_nullspace",
    "beta_geometric",
    "SubmanifoldPatch",
    "max_circulation_density",
    "pullback_alpha_dclosed",
    "loop_alpha_integral",
    "beta_weak_residual",
]

NO_CONSTRAINT = np.inf    # what a null-site evaluator gives at a point without a null direction
_PATCH_GRID, _PATCH_TOL = 5, 1e-9   # parameter grid and |r| bound of SubmanifoldPatch.validate
_LOOP_SEGMENTS = 96       # quadrature edges of loop_alpha_integral
_CIRCULATION_GRID = (32, 32)   # cells along u and v of max_circulation_density
_LINES_PER_CALL = 8            # grid lines per a_of call there (8 x 32 edges x 6 nodes)
_FD_STEP = 1e-4           # central-difference step of beta_weak_residual


def alpha(fr, v):
    """alpha_r(V) = del-delbar r(V, Lbar) extended to complexified vectors.

    Real-valued as a 1-form: alpha(Vbar) = conj(alpha(V)).  Defined on the
    whole frame neighborhood, not only on the boundary.
    """
    lbar = fr.L.conj()
    out = 0.0 + 0.0j
    if np.any(v.h):
        out += fr.mixed_pairing(CTVector.holo(v.h), lbar)
    if np.any(v.a):
        out += fr.mixed_pairing(fr.L, CTVector.anti(v.a))
    return out


def alpha_geometric(fr, zvec):
    """alpha via the geometric split: Z log|dr| - i |X_r|^{-2} <sff(Z, J X_r), X_r>.

    Uses the frame's jet of |dr|.  With the sff identity the second term
    is + i Hess(Z, J X_r) r.  ``zvec`` must be of type (1,0).
    """
    gjet = fr.grad_norm_jet
    w1 = np.ascontiguousarray(_lead(wirtinger_table(gjet, fr.n).w1, 1))
    z_grad = _dot(zvec.h, w1[..., : fr.n])
    # divided part by part, as a complex divided by a float is
    z_log_norm = _complex(np.real(z_grad) / gjet.value, np.imag(z_grad) / gjet.value)
    return _per_point(z_log_norm + _vmul(1j, fr.hess_r(zvec, fr.X.J())))


def _nabla_Lbar_along(fr, zvec):
    """nabla_Z (Lbar) = conj(nabla_{Zbar} L): a (0,1) vector, plain derivative."""
    w1 = fr.L_w1
    dl = (w1[..., fr.n :] @ zvec.h.conj()[..., None])[..., 0]     # Zbar L^i
    return CTVector.anti(dl.conj())


def beta_unmixed(fr, zvec, wvec):
    """beta_r(Z, W) = -(i/2) (ddbar r(W, nabla_Z Lbar) - ddbar r(Z, nabla_W Lbar))."""
    term_w = fr.mixed_pairing(wvec, _nabla_Lbar_along(fr, zvec))
    term_z = fr.mixed_pairing(zvec, _nabla_Lbar_along(fr, wvec))
    return _per_point(_vmul(-0.5j, term_w - term_z))


def beta_mixed(fr, zvec, wvec):
    """beta_r(Z, Wbar) from the continuous pointwise formula.

    -i H^3(X_r, Z, Wbar) r + (i/2) ddbar r(T(Z, L), Wbar)
    - (i/2) ddbar r(nabla_Z L, Wbar) + (i/2) ddbar r(Z, T(Wbar, Lbar))
    - (i/2) ddbar r(Z, nabla_{Wbar} Lbar).
    """
    wbar = wvec.conj()
    h3 = fr.h3_r(fr.X, zvec, wbar)
    tau_z = torsion(fr.chern, zvec, fr.L)
    nabla_z_l = fr.nabla_L(zvec)
    tau_w_bar = torsion(fr.chern, wvec, fr.L).conj()
    nabla_wbar_lbar = fr.nabla_L(wvec).conj()
    out = _vmul(-1j, h3)
    out = out + _vmul(0.5j, fr.mixed_pairing(tau_z, wbar))
    out = out + _vmul(-0.5j, fr.mixed_pairing(nabla_z_l, wbar))
    out = out + _vmul(0.5j, fr.mixed_pairing(zvec, tau_w_bar))
    out = out + _vmul(-0.5j, fr.mixed_pairing(zvec, nabla_wbar_lbar))
    return _per_point(out)


def beta_mixed_nullspace(fr, zvec, wvec):
    """Null-space form of beta(Z, Wbar):

    -i H^3(X_r, Z, Wbar) r - i alpha(Z) alpha(Wbar)
    + i (Hess(X_r, Z) r) alpha(Wbar) + i alpha(Z) (Hess(X_r, Wbar) r).

    Valid for Z, W in the Levi null space; used as an independent route.
    """
    wbar = wvec.conj()
    h3 = fr.h3_r(fr.X, zvec, wbar)
    a_z = alpha(fr, zvec)
    a_wbar = alpha(fr, wbar)
    hx_z = fr.hess_r(fr.X, zvec)
    hx_wbar = fr.hess_r(fr.X, wbar)
    out = _vmul(-1j, h3) - _vmul(_vmul(1j, a_z), a_wbar)
    out = out + _vmul(_vmul(1j, hx_z), a_wbar) + _vmul(_vmul(1j, a_z), hx_wbar)
    return _per_point(out)


def _null_points(fr, zvec):
    """Levi data and the mask of points with a null direction, where Z is checked to be null."""
    ld = levi_data(fr)
    null = np.any(ld.null, axis=-1)
    ld.check_null(CTVector.holo(np.where(_col(null), zvec.h, 0.0)))
    return ld, null


def _null_site_terms(fr, zvec):
    """The null mask of :func:`_null_points`, sum_j |sff(Z, W_j)|^2 and (1/2) <R(Z, Zbar) nu_C, nu_C>."""
    ld, null = _null_points(fr, zvec)
    sff_sum = sum(_abs_sq(fr.hess_r(zvec, wj)) for wj in ld.basis) * fr.norm2(fr.X)
    return null, sff_sum, 0.5 * curvature_contraction(fr.chern, zvec, fr.nu_C)


def beta_geometric(fr, zvec):
    """-i beta_r(Z, Zbar) from boundary geometry, for Z in the Levi null space:

    - (ddbar log|dr|)(Z, Zbar) + sum_j |sff(Z, W_j)|^2
    + (1/2) <R(Z, Zbar) nu_C, nu_C>.

    Returns the real number entering the margin inequalities, and
    NO_CONSTRAINT at a point without a null direction.
    """
    null, sff_sum, half_curv = _null_site_terms(fr, zvec)
    log_jet = jets.log(fr.grad_norm_jet)
    w2 = np.ascontiguousarray(_lead(wirtinger_table(log_jet, fr.n).mixed_hessian, 2))
    log_term = np.real(_pair(zvec.h, w2, zvec.h.conj()))
    return _per_point(np.where(null, -log_term + sff_sum + half_curv, NO_CONSTRAINT))


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

    def validate(self):
        """Check that the patch lies in the boundary and del r annihilates its tangent.

        The _PATCH_GRID x _PATCH_GRID parameter points are evaluated on one batch frame;
        the error names the first bad u, u running fastest over Im u.
        """
        us = _complex(*np.meshgrid(np.linspace(*self.u_range, _PATCH_GRID),
                                   np.linspace(*self.v_range, _PATCH_GRID), indexing="ij")).ravel()
        fr = NormalFrame(self.domain, self.chart(us), r_order=2)
        rv = fr.r_jet.value
        t = np.asarray(self.tangent(us), dtype=complex)
        tangent_off = np.abs(_dot(fr.u, t)) > 1e-8 * (1.0 + np.max(np.abs(t), axis=-1))
        for k, u in enumerate(us):
            if abs(np.real(rv[k])) > _PATCH_TOL:
                raise ValueError(f"patch leaves the boundary at u = {u}: r = {rv[k]}")
            if tangent_off[k]:
                raise ValueError(f"patch tangent not annihilated by del r at u = {u}")
        return self


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


def _alpha_on_patch(patch):
    def a_of(u):
        fr = NormalFrame(patch.domain, patch.chart(u), r_order=2)
        return alpha(fr, CTVector.holo(patch.tangent(u)))

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


def _line_integrals(a_of, u0, u1):
    """:func:`_edge_integrals` over grid lines: row k of ``u0``, ``u1`` holds the edges of line k.

    At most ``_LINES_PER_CALL`` lines go to one ``a_of`` call.
    """
    out = np.empty(u0.shape)
    for k in range(0, len(u0), _LINES_PER_CALL):
        lines = slice(k, k + _LINES_PER_CALL)
        out[lines] = _edge_integrals(a_of, u0[lines].ravel(), u1[lines].ravel()).reshape(u0[lines].shape)
    return out


def max_circulation_density(a_of, patch):
    """Max per-cell Stokes circulation density of a pulled-back 1-form.

    ``a_of(u)`` is the (1,0) component of the form at an array of patch
    parameters; every cell of the ``_CIRCULATION_GRID`` is integrated with
    Gauss-Legendre edge quadrature (each interior edge evaluated once, in
    ``a_of`` calls of at most ``_LINES_PER_CALL`` grid lines) and the largest
    |circulation| / area is returned.  A NaN anywhere gives NaN.
    """
    nu, nv = _CIRCULATION_GRID
    us = np.linspace(*patch.u_range, nu + 1)
    vs = np.linspace(*patch.v_range, nv + 1)
    # the lines Im u = vs[j] (horiz[:, j]) and Re u = us[i] (vert[i, :])
    horiz = _line_integrals(a_of, _complex(us[:-1], vs[:, None]), _complex(us[1:], vs[:, None])).T
    vert = _line_integrals(a_of, _complex(us[:, None], vs[:-1]), _complex(us[:, None], vs[1:]))
    circ = horiz[:, :-1] + vert[1:, :] - horiz[:, 1:] - vert[:-1, :]
    area = np.diff(us)[:, None] * np.diff(vs)[None, :]
    return float(np.max(np.abs(circ) / area))


def pullback_alpha_dclosed(patch):
    """Max per-cell Stokes circulation density of the pulled-back alpha;
    weak d-closedness drives this to zero."""
    patch.validate()
    return max_circulation_density(_alpha_on_patch(patch), patch)


def loop_alpha_integral(patch):
    """Line integral of the pulled-back alpha along Re u = 0, Im u in [0, 4 pi] (arg z_2 once around)."""
    vs = np.linspace(0.0, 4.0 * np.pi, _LOOP_SEGMENTS + 1)
    edges = _edge_integrals(_alpha_on_patch(patch), _complex(0.0, vs[:-1]), _complex(0.0, vs[1:]))
    return sum(edges)


# ----------------------------------------------------------------------
# weak identity beta = -(i/2)(d'alpha - d''alpha), finite-difference route
# ----------------------------------------------------------------------

def beta_weak_residual(fr, zvec, wvec):
    """Residuals of beta against grid-differentiated alpha.

    Computes d alpha by central differences of the component functions
    A_j = alpha(d/dz_j) over the ambient chart and compares
    -(i/2)(d'alpha - d''alpha) with the pointwise beta formulas.  Returns
    ``(unmixed_residual, mixed_residual)``.
    """
    n = fr.n
    x0 = real_coords(fr.z)
    shift = _FD_STEP * np.eye(2 * n)
    # A_j at x0 + step e_i (rows 0..2n-1) and x0 - step e_i (rows 2n..4n-1) on one frame
    stencil = NormalFrame(fr.domain, complex_point(np.concatenate([x0 + shift, x0 - shift])),
                          r_order=2)
    eye = np.eye(n, dtype=complex)
    comps = np.stack([alpha(stencil, CTVector.holo(np.broadcast_to(eye[j], (4 * n, n))))
                      for j in range(n)], axis=-1)
    da = (comps[: 2 * n] - comps[2 * n :]) / (2 * _FD_STEP)  # real-direction derivatives of A_j
    dz_a = 0.5 * (da[:n] - 1j * da[n:])      # d A_j / dz_k  -> [k, j]
    dzbar_a = 0.5 * (da[:n] + 1j * da[n:])   # d A_j / dzbar_k -> [k, j]

    zc, wc = zvec.h, wvec.h
    # (2,0) part: partial alpha(Z, W) = Z^k W^j dz_k A_j - W^k Z^j dz_k A_j
    d_alpha_zw = complex(zc @ dz_a @ wc - wc @ dz_a @ zc)
    fd_unmixed = -0.5j * d_alpha_zw
    pt_unmixed = beta_unmixed(fr, zvec, wvec)

    # (1,1) part on (Z, Wbar): -(i/2)[ Z^k conj(W^j) dz_k(conj A_j)
    #                                  + conj(W^k) Z^j dzbar_k A_j ]
    # with dz_k(conj A_j) = conj(dzbar_k A_j) for functions of real variables.
    term = complex(zc @ dzbar_a.conj() @ wc.conj() + wc.conj() @ dzbar_a @ zc)
    fd_mixed = -0.5j * term
    pt_mixed = beta_mixed(fr, zvec, wvec)
    return abs(fd_unmixed - pt_unmixed), abs(fd_mixed - pt_mixed)
