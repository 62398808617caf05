"""Command-line surface: domain specs in, reports and certificates out.

Subcommands
-----------
forms       per boundary sample: Levi eigenvalues, alpha on the null basis,
            i beta(Z, Zbar), frame data
levi        eigenvalue records only
check       feasibility at one exponent (--eta), plus the interior
            verification with the certified h
estimate    eta-bisection with per-eta certificates
worm-bench  closed-form reference comparison and Riccati thresholds
selftest    every invariant suite at reduced sample counts

Reports are JSON (schema ``dfindex/1``) with an optional CSV mirror of the
records; identical (config, seed, version) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, forms
from .boundary import levi_data, normal_frame, sample_boundary
from .domains import REGISTRY_KEYS, make_domain
from .estimator import (
    collect_sites,
    estimate_index,
    feasibility_search,
    interior_check,
    poly_basis,
    worm_reduction_basis,
)
from .geometry import CTVector
from .worm import WormParams, riccati_threshold, s_gamma_reference, sgamma_points

SCHEMA = "dfindex/1"


class ConfigError(ValueError):
    """Invalid run configuration (unknown field, bad value, missing key)."""


@dataclass
class RunConfig:
    """Resolved run configuration; all defaults are deterministic."""

    domain: str = "ball"
    domain_params: dict = dc_field(default_factory=dict)
    metric: str = "euclidean"
    samples: int = 40
    special_samples: int = 10
    seed: int = 0
    eps_null: float = 1e-7
    tol_bnd: float = 1e-10
    tol_eta: float = 0.01
    c_floor: float = 1e-4
    eta: float = 0.4
    eta_cap: float = 0.99
    basis: str = "auto"
    basis_degree: int = 40
    basis_spread: float = 0.99
    box_radius: float = 50.0
    out: str = "."
    format: str = "json"

    def validate(self):
        for name in ("eps_null", "tol_bnd", "tol_eta", "c_floor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"tolerance {name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"eta must lie in [0, 1), got {self.eta}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if self.seed is None:
            raise ConfigError("seed must be set (deterministic runs only)")
        return self

    def to_dict(self):
        return {
            "domain": self.domain,
            "domain_params": self.domain_params,
            "metric": self.metric,
            "samples": self.samples,
            "special_samples": self.special_samples,
            "seed": self.seed,
            "eps_null": self.eps_null,
            "tol_bnd": self.tol_bnd,
            "tol_eta": self.tol_eta,
            "c_floor": self.c_floor,
            "eta": self.eta,
            "eta_cap": self.eta_cap,
            "basis": self.basis,
            "basis_degree": self.basis_degree,
            "basis_spread": self.basis_spread,
            "box_radius": self.box_radius,
            "version": __version__,
        }


_CONFIG_FIELDS = set(RunConfig().__dict__)


def load_config(path=None, overrides=None):
    cfg = RunConfig()
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path}: line {err.lineno} column {err.colno}: {err.msg}")
        if not isinstance(data, dict):
            raise ConfigError(f"config {path}: top level must be an object")
    for key, value in data.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"config field {key!r} unknown; valid fields: {sorted(_CONFIG_FIELDS)}")
        setattr(cfg, key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def _domain_of(cfg):
    params = dict(cfg.domain_params)
    if "metric" in params and cfg.metric != "euclidean":
        raise ConfigError(f"metric {cfg.metric!r} conflicts with the metric in domain_params")
    metric = params.pop("metric", cfg.metric)
    try:
        return make_domain(cfg.domain, metric=metric, **params)
    except ValueError as err:
        # an unknown or malformed key's message already lists the registry keys
        raise ConfigError(str(err)) from err


def _basis_of(cfg, domain):
    if cfg.basis == "poly":
        return poly_basis(domain.n, degree=2)
    if cfg.basis in ("auto", "reduction"):
        gamma = domain.params.get("gamma")
        if gamma is not None:
            return worm_reduction_basis(gamma=gamma, degree=cfg.basis_degree,
                                        spread=cfg.basis_spread)
        if cfg.basis == "reduction":
            raise ConfigError("reduction basis needs a domain with a reduction coordinate (worm)")
        return poly_basis(domain.n, degree=2)
    raise ConfigError(f"unknown basis {cfg.basis!r} (auto | reduction | poly)")


def _boundary_points(cfg, domain, basis=None):
    """Random boundary sample plus the domain's degenerate-set sample.

    For margin constraints (``basis`` given) the feasibility program needs
    enough sites to pin down the basis: at least 8 degenerate-set points per
    basis coefficient are drawn regardless of the configured special count.
    """
    points = sample_boundary(domain, cfg.samples, cfg.seed)
    count = cfg.special_samples if basis is None else max(cfg.special_samples, 8 * basis.m)
    if count > 0 and domain.special_sampler is not None:
        points += list(domain.special_sampler(count, cfg.seed + 1))
    return points


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------

def _jsonify(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return repr(value)
    return value


def make_report(command, cfg, records, summary):
    return {
        "schema": SCHEMA,
        "command": command,
        "config": _jsonify(cfg.to_dict()),
        "records": _jsonify(records),
        "summary": _jsonify(summary),
    }


def _flatten(record, prefix=""):
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict) and set(value) == {"re", "im"}:
            flat[f"{name}_re"] = value["re"]
            flat[f"{name}_im"] = value["im"]
        elif isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def write_report(report, out_dir, fmt="json", stem=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = stem or report["command"]
    json_path = out / f"{stem}.json"
    json_path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    paths = [json_path]
    if fmt == "csv" and report["records"]:
        rows = [_flatten(r) for r in report["records"]]
        cols = sorted({k for row in rows for k in row})
        csv_path = out / f"{stem}.csv"
        with csv_path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=cols)
            writer.writeheader()
            writer.writerows(rows)
        paths.append(csv_path)
    return paths


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_forms(cfg, eigen_only=False):
    domain = _domain_of(cfg)
    points = _boundary_points(cfg, domain)
    records = []
    strictly_pc = True
    for p in points:
        fr = normal_frame(domain, p)
        ld = levi_data(domain, fr, eps_null=cfg.eps_null)
        rec = {
            "z": [complex(c) for c in fr.z],
            "r_residual": float(p.residual),
            "grad_norm": fr.grad_norm,
            "levi_eigenvalues": [float(e) for e in ld.eigenvalues],
            "null_dim": len(ld.null_basis),
        }
        if not eigen_only:
            alphas, betas = [], []
            for zv in ld.null_basis:
                alphas.append(complex(forms.alpha(domain, p, zv, frame=fr)))
                betas.append(float(np.real(1j * forms.beta_mixed(domain, p, zv, zv, frame=fr))))
            rec["alpha_null"] = alphas
            rec["i_beta_null"] = betas
        strictly_pc = strictly_pc and not ld.null_basis
        records.append(rec)
    records.sort(key=lambda r: tuple((c["re"], c["im"]) if isinstance(c, dict) else (c.real, c.imag)
                                     for c in r["z"]))
    summary = {
        "n_points": len(records),
        "note": "strictly pseudoconvex sample (no null directions)" if strictly_pc else "",
        "min_levi_eigenvalue": min(r["levi_eigenvalues"][0] for r in records),
    }
    return make_report("levi" if eigen_only else "forms", cfg, records, summary)


def cmd_levi(cfg):
    return cmd_forms(cfg, eigen_only=True)


def cmd_check(cfg):
    domain = _domain_of(cfg)
    basis = _basis_of(cfg, domain)
    points = _boundary_points(cfg, domain, basis)
    wp = domain.params.get("worm")
    if wp is not None:
        # guard ring over the full degenerate range so the certified h is
        # controlled wherever the interior verification can look
        points += list(sgamma_points(wp, max(64, basis.m), spread=0.999))
    sites, min_pc = collect_sites(domain, points, basis, eps_null=cfg.eps_null)
    cert = feasibility_search(domain, cfg.eta, basis, sites, C_floor=cfg.c_floor,
                              box_radius=cfg.box_radius)
    records = [cert.to_json_dict(seed=cfg.seed)]
    summary = {
        "eta": cfg.eta,
        "feasible": cert.feasible,
        "status": cert.status,
        "n_sites": cert.n_sites,
        "min_strictly_pc_eigenvalue": None if min_pc == math.inf else min_pc,
    }
    if cert.feasible and cert.n_sites > 0:
        h_field = basis.h_field(cert.coeffs)
        interior = interior_check(domain, h_field, cfg.eta, C=0.0, seed=cfg.seed, n_points=6)
        summary["interior_min_eig"] = interior["min_eig"]
        summary["interior_positive"] = interior["positive"]
        records.extend({"depth": r["depth"], "min_eig": r["min_eig"]} for r in interior["rows"])
    return make_report("check", cfg, records, summary)


def cmd_estimate(cfg):
    domain = _domain_of(cfg)
    basis = _basis_of(cfg, domain)
    points = _boundary_points(cfg, domain, basis)
    sites, min_pc = collect_sites(domain, points, basis, eps_null=cfg.eps_null)
    est = estimate_index(domain, basis, sites=sites, eta_cap=cfg.eta_cap, tol_eta=cfg.tol_eta,
                         C_floor=cfg.c_floor, box_radius=cfg.box_radius)
    records = sorted(est.records, key=lambda r: r["eta"])
    summary = {
        "eta_lo": est.eta_lo,
        "eta_hi": est.eta_hi,
        "summary": est.summary(),
        "n_sites": len(sites),
        "warnings": est.warnings,
        "min_strictly_pc_eigenvalue": None if min_pc == math.inf else min_pc,
        "certificates": {f"{k:.6f}": c.to_json_dict(seed=cfg.seed)
                         for k, c in sorted(est.certificates.items())},
    }
    return make_report("estimate", cfg, records, summary)


def cmd_worm_bench(cfg):
    gamma = cfg.domain_params.get("gamma")
    if gamma is None:
        from .domains import parse_domain_key

        key, key_args = parse_domain_key(cfg.domain)
        gamma = key_args[0] if key == "worm" and key_args else math.pi
    try:
        params = WormParams(gamma=float(gamma), t=cfg.domain_params.get("t"))
        domain = make_domain("worm", metric="worm_kahler", gamma=params.gamma, t=params.t)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    wp = domain.params["worm"]
    records = []
    errors = []
    zvec = CTVector.holo(np.array([0.0, 1.0], dtype=complex))
    from .estimator import geometric_margin

    for p in sgamma_points(wp, cfg.samples, spread=0.9):
        ref = s_gamma_reference(wp, p.z[1])
        fr = normal_frame(domain, p)
        a_val = complex(forms.alpha(domain, p, zvec, frame=fr))
        margin = geometric_margin(domain, p, zvec, cfg.eta, frame=fr)
        errors.append(abs(a_val - ref.alpha) / (1 + abs(ref.alpha)))
        errors.append(abs(margin - ref.margin(cfg.eta)) / (1 + abs(ref.margin(cfg.eta))))
        records.append({
            "z2": complex(p.z[1]),
            "x": ref.x,
            "alpha_engine": a_val,
            "alpha_reference": ref.alpha,
            "margin_engine": margin,
            "margin_reference": ref.margin(cfg.eta),
        })
    records.sort(key=lambda r: r["x"])
    thresholds = {f"{g:.6f}": riccati_threshold(g)
                  for g in (0.6 * math.pi, math.pi, 1.5 * math.pi, 2 * math.pi)}
    summary = {
        "gamma": params.gamma,
        "t": wp.t,
        "s": wp.s,
        # np.max keeps a NaN error, which ``max`` would drop
        "max_relative_error": float(np.max(errors, initial=0.0)),
        "riccati_thresholds": thresholds,
        "known_index": math.pi / (2 * params.gamma),
    }
    return make_report("worm-bench", cfg, records, summary)


def cmd_selftest(cfg, corrupt_metric=False):
    checks = diagnostics.run_all(reduced=True, corrupt_metric=corrupt_metric)
    records = [c.row() for c in checks]
    records.sort(key=lambda r: (r["suite"], r["name"]))
    failed = [r for r in records if not r["passed"]]
    summary = {
        "n_checks": len(records),
        "n_failed": len(failed),
        "failed": [f"{r['suite']}/{r['name']}" for r in failed],
        "passed": not failed,
    }
    return make_report("selftest", cfg, records, summary)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="dfindex",
        description="Boundary characterizations of the strong Diederich-Fornaess index",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("forms", "alpha/beta/Levi records over a boundary sample"),
        ("levi", "Levi eigenvalue records over a boundary sample"),
        ("check", "feasibility of the boundary inequality at one eta"),
        ("estimate", "eta-bisection estimate of the index"),
        ("worm-bench", "closed-form worm reference comparison"),
        ("selftest", "run all invariant suites (reduced counts)"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--domain", type=str, default=None,
                       help=f"registry key, one of {REGISTRY_KEYS}")
        p.add_argument("--metric", type=str, default=None)
        p.add_argument("--special-samples", type=int, default=None, dest="special_samples")
        if name in ("check", "estimate", "worm-bench"):
            p.add_argument("--eta", type=float, default=None)
        if name == "selftest":
            p.add_argument("--inject-nonhermitian", action="store_true",
                           help="corrupt a metric to exercise the failure path")
    return parser


_COMMANDS = {
    "forms": cmd_forms,
    "levi": cmd_levi,
    "check": cmd_check,
    "estimate": cmd_estimate,
    "worm-bench": cmd_worm_bench,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k, None)
                 for k in ("out", "seed", "samples", "format", "domain", "metric",
                           "eta", "special_samples")}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "selftest":
            report = cmd_selftest(cfg, corrupt_metric=getattr(args, "inject_nonhermitian", False))
        else:
            report = _COMMANDS[args.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    paths = write_report(report, cfg.out, fmt=cfg.format, stem=args.command)
    for key, value in report["summary"].items():
        if key != "certificates":
            print(f"{key}: {value}")
    print("wrote: " + ", ".join(str(p) for p in paths))
    if args.command == "selftest" and not report["summary"]["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
