"""Soundness of the Kelley certificates on small random site sets.

The sites are synthetic: each carries the eta-independent margin data of
one (P, Z) pair (beta term, alpha value, basis Hessian and gradient rows),
so the margin of a site at coefficients c is

    B + A . c - eta/(1-eta) |E - D . c|^2,

concave in c.  The properties hold for any such data, not only for data
that come from a domain.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dfindex.estimator import HBasis, MarginSite, SiteSet, feasibility_search
from dfindex.geometry import CTVector

C_FLOOR = 1e-4
BOX = 5.0
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


def random_sites(rng, m, count):
    basis = HBasis(n=1, m=m, name=f"synthetic(m={m})", rows=None)
    sites = [MarginSite(z=np.zeros(1, dtype=complex), zvec=CTVector.holo([1.0]), levi_eig=0.0,
                        beta_term=float(rng.uniform(-1.0, 1.0)),
                        alpha_val=complex(rng.standard_normal(), rng.standard_normal()),
                        basis_hess=rng.standard_normal(m),
                        basis_grad=rng.standard_normal(m) + 1j * rng.standard_normal(m))
             for _ in range(count)]
    return basis, SiteSet(sites=sites, basis=basis)


def search(basis, sites, eta):
    return feasibility_search(None, eta, basis, sites, C_floor=C_FLOOR, box_radius=BOX)


SITE_SETS = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), count=st.integers(1, 6))


@PROPERTY
@given(eta=st.floats(0.0, 0.95), **SITE_SETS)
def test_no_coefficients_in_the_box_beat_the_upper_bound(seed, m, count, eta):
    rng = np.random.default_rng(seed)
    basis, sites = random_sites(rng, m, count)
    cert = search(basis, sites, eta)
    candidates = np.vstack([rng.uniform(-BOX, BOX, (200, m)), np.zeros(m), cert.coeffs,
                            BOX * np.sign(rng.standard_normal((20, m)))])
    best = max(float(sites.margins(c, eta).min()) for c in candidates)
    assert best <= cert.upper_bound + 1e-6 * (1.0 + abs(cert.upper_bound))


@PROPERTY
@given(eta=st.floats(0.0, 0.95), **SITE_SETS)
def test_a_feasible_certificate_reaches_the_floor(seed, m, count, eta):
    basis, sites = random_sites(np.random.default_rng(seed), m, count)
    cert = search(basis, sites, eta)
    margin = float(sites.margins(cert.coeffs, eta).min())
    assert cert.feasible == (margin >= C_FLOOR)
    if cert.feasible:
        assert margin == cert.min_margin
        assert np.all(np.abs(cert.coeffs) <= BOX)
    else:
        assert cert.upper_bound < C_FLOOR or not cert.decided


@PROPERTY
@given(eta_lo=st.floats(0.0, 0.95), eta_hi=st.floats(0.0, 0.95), **SITE_SETS)
def test_feasibility_is_monotone_in_eta_for_fixed_coefficients(seed, m, count, eta_lo, eta_hi):
    eta_lo, eta_hi = sorted((eta_lo, eta_hi))
    rng = np.random.default_rng(seed)
    basis, sites = random_sites(rng, m, count)
    cert = search(basis, sites, eta_hi)
    for c in (cert.coeffs, rng.uniform(-BOX, BOX, m)):
        assert sites.margins(c, eta_lo).min() >= sites.margins(c, eta_hi).min()
    if cert.feasible:
        assert sites.margins(cert.coeffs, eta_lo).min() >= C_FLOOR
