"""The benchmark's workloads: one CLI configuration each, and the checks on its report.

Every workload is one ``dfindex`` subcommand run in process through
``dfindex.cli.main``.  The checks read only the report the command wrote and
public library functions; they never look inside the run they judge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# r = |z1|^2 + |z2|^4 + 0.1 Re(z1 z2) - 1 as a ``user`` expression tree.
USER_R = {"op": "add", "args": [
    {"op": "abs2", "arg": {"op": "coord", "index": 0}},
    {"op": "pow", "base": {"op": "abs2", "arg": {"op": "coord", "index": 1}}, "exponent": 2},
    {"op": "mul", "args": [
        {"op": "const", "value": 0.1},
        {"op": "re", "arg": {"op": "mul", "args": [{"op": "coord", "index": 0},
                                                   {"op": "coord", "index": 1}]}},
    ]},
    {"op": "const", "value": -1.0},
]}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # dfindex subcommand
    config: dict          # fields of the JSON config passed with --config
    warmup: dict | None   # config overrides for the warm-up run (same code paths, less work), or no warm-up
    why: str

    def argv(self, config_path, out_dir, seed):
        return [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(seed)]


# The sizes keep one CLI run at 1-5 s on one core (selftest, which has no
# size, takes 7-11 s), so that a run of the benchmark takes the median of
# several of them.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="estimate-worm-pi",
        command="estimate",
        config={"domain": f"worm({math.pi!r})", "basis_degree": 12, "samples": 20,
                "basis_spread": 0.99, "box_radius": 50.0, "tol_eta": 0.01},
        warmup={"basis_degree": 4},
        why="Kelley cutting planes over HiGHS LPs do most of the work: the eta bisection on "
            "worm(pi) with 120 sites and 9 stages; site assembly is small",
    ),
    Workload(
        name="selftest",
        command="selftest",
        config={},
        warmup=None,
        why="per-point order-3 jets, random metrics, Chern torsion and curvature, the Stokes "
            "grid and the Riccati ODE, with no estimator",
    ),
    Workload(
        name="forms-user",
        command="forms",
        config={"domain": "user", "metric": "euclidean", "samples": 1000,
                "domain_params": {"n": 2, "r": USER_R, "box": [[-1.3, 1.3]] * 4,
                                  "interior": [[0.0, 0.0], [0.0, 0.0]]}},
        warmup={"samples": 50},
        why="the only non-worm domain: a user expression tree, Newton projection of 1000 "
            "samples and Levi data at each",
    ),
)}

# ----------------------------------------------------------------------
# independent rebuild of the constraint sites
# ----------------------------------------------------------------------

def build_domain_and_basis(cfg):
    """The domain and h-basis a resolved config names, from public constructors."""
    from dfindex import make_domain, poly_basis, worm_reduction_basis

    domain = make_domain(cfg.domain, metric=cfg.metric, **cfg.domain_params)
    gamma = domain.params.get("gamma")
    if gamma is None:
        return domain, poly_basis(domain.n, degree=2)
    return domain, worm_reduction_basis(gamma=gamma, degree=cfg.basis_degree,
                                        spread=cfg.basis_spread)


def rebuild_sites(cfg):
    """The constraint sites of an ``estimate`` run, rebuilt from outside.

    The command samples ``cfg.samples`` random boundary points and at least
    8 S_gamma points per basis coefficient.
    """
    from dfindex import collect_sites, sample_boundary

    domain, basis = build_domain_and_basis(cfg)
    points = sample_boundary(domain, cfg.samples, cfg.seed)
    points += list(domain.special_sampler(max(cfg.special_samples, 8 * basis.m), cfg.seed + 1))
    sites, _ = collect_sites(domain, points, basis, eps_null=cfg.eps_null)
    return sites


# ----------------------------------------------------------------------
# report checks: each returns (problems, quality) for one report
# ----------------------------------------------------------------------

def certificate_problems(cert, sites, c_floor):
    """A feasible certificate must reach ``c_floor`` on sites it did not build."""
    import numpy as np

    if not cert["feasible"]:
        return []
    coeffs = np.asarray(cert["coeffs"], dtype=float)
    if coeffs.shape != (sites.basis.m,):
        return [f"eta {cert['eta']}: {coeffs.size} coefficients for a basis of {sites.basis.m}"]
    worst = float(sites.margins(coeffs, cert["eta"]).min())
    if not worst >= c_floor:
        return [f"eta {cert['eta']}: recomputed min margin {worst!r} below c_floor {c_floor!r}"]
    return []


def _uncertified(statuses_and_feasible):
    return sum(1 for status, feasible in statuses_and_feasible
               if not feasible and status != "infeasible_certified")


def check_estimate(report, sites):
    cfg, summary = report["config"], report["summary"]
    problems = []
    lo, hi = summary["eta_lo"], summary["eta_hi"]
    if not hi - lo <= cfg["tol_eta"]:
        problems.append(f"bracket [{lo}, {hi}] wider than tol_eta {cfg['tol_eta']}")
    for end in (lo, hi):
        if not abs(end - 0.5) <= 0.05:
            problems.append(f"bracket end {end} not within 0.05 of 0.5")
    if summary["n_sites"] != len(sites):
        problems.append(f"report has {summary['n_sites']} sites, rebuild has {len(sites)}")
    for cert in summary["certificates"].values():
        problems += certificate_problems(cert, sites, cfg["c_floor"])
    known = math.pi / (2.0 * _worm_gamma(cfg["domain"]))
    quality = {
        "index_err": max(0.0, lo - known, known - hi),
        "uncertified_stages": _uncertified((r["status"], r["feasible"]) for r in report["records"]),
    }
    return problems, quality


def check_selftest(report, sites):
    summary = report["summary"]
    problems = []
    if summary["passed"] is not True:
        problems.append(f"selftest failed: {summary['failed']}")
    if summary["n_checks"] != 45:
        problems.append(f"expected 45 checks, got {summary['n_checks']}")
    return problems, {}


def check_forms(report, sites):
    problems = []
    want = report["config"]["samples"]
    if report["summary"]["n_points"] != want:
        problems.append(f"n_points {report['summary']['n_points']} != samples {want}")
    bad = sum(1 for r in report["records"]
              if not all(isinstance(e, float) and math.isfinite(e) for e in r["levi_eigenvalues"]))
    if bad:
        problems.append(f"{bad} records with non-finite Levi eigenvalues")
    return problems, {}


CHECKS = {"estimate": check_estimate, "selftest": check_selftest, "forms": check_forms}


def _worm_gamma(key):
    from dfindex.domains import parse_domain_key

    return parse_domain_key(key)[1][0]


def check_report(command, report_bytes, sites):
    """Problems and quality figures of one report, read from its bytes."""
    try:
        report = json.loads(report_bytes)
    except ValueError as err:
        return [f"report is not JSON: {err}"], {}
    return CHECKS[command](report, sites)
