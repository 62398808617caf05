"""Soundness of the barrier search's certificates on small random site sets.

The sites are synthetic: each carries the eta-independent margin data of
one (P, Z) pair (beta term, alpha value, basis Hessian and gradient rows),
so the margin of a site at coefficients c is

    B + A . c - eta/(1-eta) |E - D . c|^2,

concave in c.  The properties hold for any such data, not only for data
that come from a domain.  A feasible certificate is checked on the true
margins; an upper bound is the Lagrange dual bound of the multipliers the
certificate carries, which ``dual_bound`` recomputes from them alone.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfindex.estimator import HBasis, Problem, SiteSet, dual_bound, estimate_index, feasibility_search

C_FLOOR = 1e-4
BOX = 5.0
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


def random_sites(rng, m, count):
    basis = HBasis(n=1, m=m, name=f"synthetic(m={m})", rows=None)
    rows = [(rng.uniform(-1.0, 1.0), complex(rng.standard_normal(), rng.standard_normal()),
             rng.standard_normal(m), rng.standard_normal(m) + 1j * rng.standard_normal(m))
            for _ in range(count)]
    B, E, A, D = (np.array(column) for column in zip(*rows))
    return basis, SiteSet(basis, B, A, E, D)


def search(basis, sites, eta, start=None):
    return feasibility_search(None, eta, basis, sites, C_floor=C_FLOOR, box_radius=BOX,
                              start=start)


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


@PROPERTY
@given(eta=st.floats(0.0, 0.95), **SITE_SETS)
def test_the_certificate_multipliers_give_back_its_upper_bound(seed, m, count, eta):
    basis, sites = random_sites(np.random.default_rng(seed), m, count)
    cert = search(basis, sites, eta)
    blob = json.loads(json.dumps(cert.to_json_dict()))
    if cert.multipliers is None:
        assert cert.upper_bound == math.inf and blob["multipliers"] is None
        return
    lam, nu = (np.array(blob["multipliers"][key]) for key in ("sites", "box"))
    assert lam.shape == (count,) and nu.shape == (m,)
    assert np.all(lam >= 0.0) and np.all(nu > 0.0) and lam.sum() == pytest.approx(1.0)
    assert dual_bound(sites, eta, lam, nu, BOX) == cert.upper_bound == blob["upper_bound"]


@PROPERTY
@given(eta_ref=st.floats(0.0, 0.95), share=st.floats(0.0, 1.0), **SITE_SETS)
def test_a_search_started_on_an_upper_stage_path_reaches_the_cold_decision(seed, m, count,
                                                                          eta_ref, share):
    eta = share * eta_ref
    basis, sites = random_sites(np.random.default_rng(seed), m, count)
    upper = search(basis, sites, eta_ref)
    if upper.central is not None:
        # no margin grows as eta falls: the start lies strictly inside the barrier's domain
        c, t, mu = upper.central
        assert np.all(sites.margins(c, eta) - t > 0.0) and np.all(np.abs(c) < BOX) and mu > 0.0
    warm = search(basis, sites, eta, start=upper)
    cold = search(basis, sites, eta)
    if cold.decided:
        assert warm.decided and warm.feasible == cold.feasible
    if warm.feasible:
        assert sites.margins(warm.coeffs, eta).min() >= C_FLOOR
    elif warm.decided:
        lam, nu = warm.multipliers
        assert dual_bound(sites, eta, lam, nu, BOX) == warm.upper_bound < C_FLOOR


def test_a_search_cannot_start_from_a_stage_at_a_smaller_eta_or_on_other_sites():
    basis, sites = random_sites(np.random.default_rng(5), 3, 5)
    lower = search(basis, sites, 0.3)
    assert lower.central is not None
    with pytest.raises(ValueError, match="smaller eta"):
        search(basis, sites, 0.5, start=lower)
    lowered = SiteSet(basis, sites.B - 10.0, sites.A, sites.E, sites.D)
    with pytest.raises(ValueError, match="outside the barrier's domain"):
        search(basis, lowered, 0.3, start=lower)


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_a_nan_site_ends_the_search_undecided(eta):
    basis, sites = random_sites(np.random.default_rng(11), 3, 5)
    sites.B[2] = math.nan
    cert = search(basis, sites, eta)
    assert cert.status == "newton_failure" and cert.iterations <= 2
    assert not cert.feasible and not cert.decided


def test_a_stage_whose_bound_is_below_the_exit_slack_stops_feasible():
    # every margin is 5e-4 - k |D_i . c|^2: the best is 5e-4, between C_floor
    # and the early-exit slack 1.1e-3, so only the bound can end the stage
    rng = np.random.default_rng(3)
    m = 3
    basis = HBasis(n=1, m=m, name="synthetic(m=3)", rows=None)
    D = np.array([rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(6)])
    sites = SiteSet(basis, np.full(6, 5e-4), np.zeros((6, m)), np.zeros(6, dtype=complex), D)
    cert = feasibility_search(None, 0.5, basis, sites, C_floor=C_FLOOR, c0=np.ones(m),
                              box_radius=BOX, max_iter=60)
    assert cert.status == "feasible_bounded" and cert.feasible and cert.decided
    assert cert.iterations < 60
    slack = max(10.0 * C_FLOOR, C_FLOOR + 1e-3)
    assert C_FLOOR <= cert.min_margin and cert.upper_bound < slack
    assert sites.margins(cert.coeffs, 0.5).min() >= C_FLOOR


def _constant_sites(margin):
    """Three sites whose margin is ``margin`` at every c and eta (A = D = E = 0)."""
    basis = HBasis(n=1, m=2, name="synthetic(m=2)", rows=None)
    return basis, SiteSet(basis, np.full(3, margin), np.zeros((3, 2)), np.zeros(3), np.zeros((3, 2)))


@pytest.mark.parametrize("below, status", [(5e-7, "converged"), (2e-6, "infeasible_certified")])
def test_a_bound_that_closes_on_the_margin_just_below_the_floor_decides_only_past_its_tolerance(
        below, status):
    # the bound falls to the margin from above; within _BOUND_TOL of the floor it can close the gap
    # before it certifies anything, and that search stays undecided
    basis, sites = _constant_sites(C_FLOOR - below)
    cert = search(basis, sites, 0.5)
    assert cert.status == status and not cert.feasible
    assert cert.decided == (status == "infeasible_certified")
    assert cert.min_margin == C_FLOOR - below <= cert.upper_bound <= cert.min_margin + 1e-6


def test_a_converged_stage_moves_no_bracket_end():
    basis, sites = _constant_sites(C_FLOOR - 5e-7)
    est = estimate_index(Problem(None, sites, math.inf, BOX, C_FLOOR))
    assert [r["status"] for r in est.records] == ["converged"] * 3
    assert (est.eta_lo, est.eta_hi) == (0.0, 0.99)
    assert est.warnings == [f"eta = {eta} undecided (converged); it moves neither end of the bracket"
                            for eta in (0.99, 0.0, 0.495)]
