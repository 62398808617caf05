"""Command-line surface: domain specs in, reports and certificates out.

The subcommands, their help and the settings each reads are the ``_COMMANDS``
table.  Reports are JSON (schema ``dfindex/1``) with an optional CSV mirror
of the records; identical (config, seed, version) give byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from . import __version__, forms, worm
from .boundary import NormalFrame, levi_data, normal_frame, sample_boundary
from .domains import REGISTRY_KEYS, make_domain
from .estimator import (
    Problem,
    collect_sites,
    estimate_index,
    feasibility_search,
    geometric_margin,
    interior_check,
    poly_basis,
)
from .jets import _vmul

SCHEMA = "dfindex/1"


class ConfigError(ValueError):
    """Invalid run configuration (unknown field, bad value, missing key)."""


@dataclass
class RunConfig:
    """Resolved run configuration; all defaults are deterministic."""

    domain: str = "ball"
    domain_params: dict = dc_field(default_factory=dict)
    metric: str | dict = "euclidean"      # a metric name or an {"entries": ...} spec
    samples: int = 40
    special_samples: int = 10
    seed: int = 0
    eps_null: float = 1e-7
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
        for name in ("domain", "out"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("eps_null", "tol_eta", "c_floor", "eta", "eta_cap", "box_radius", "basis_spread"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for name in ("eps_null", "tol_eta", "c_floor", "box_radius", "basis_spread"):
            if not getattr(self, name) > 0:   # a NaN fails
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.basis_spread > 1.0:     # a fraction of the annulus |x| < gamma - pi/2 on a worm
            raise ConfigError(f"basis_spread must be at most 1, got {self.basis_spread}")
        for name, least in (("samples", 1), ("special_samples", 0), ("seed", 0), ("basis_degree", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"eta must lie in [0, 1), got {self.eta}")
        if not 0.0 < self.eta_cap < 1.0:
            raise ConfigError(f"eta_cap must lie in (0, 1), got {self.eta_cap}")
        if self.basis not in ("auto", "poly"):
            raise ConfigError(f"unknown basis {self.basis!r}: auto (the domain's own basis, "
                              "else poly(deg=2)) or poly")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if not isinstance(self.domain_params, dict):
            raise ConfigError(f"domain_params must be an object, got {self.domain_params!r}")
        return self

    def to_dict(self):
        """Every field but the output options ``out`` and ``format``, plus the version."""
        fields = asdict(self)
        del fields["out"], fields["format"]
        return {**fields, "version": __version__}


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
    overrides = overrides or {}
    for key in [*data, *overrides]:
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"config field {key!r} unknown; valid fields: {sorted(_CONFIG_FIELDS)}")
    for key, value in data.items():
        setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def _domain_of(cfg):
    if "metric" in cfg.domain_params:
        raise ConfigError("domain_params reads no metric; the metric field sets it")
    try:
        return make_domain(cfg.domain, metric=cfg.metric, **cfg.domain_params)
    except ValueError as err:
        # an unknown or malformed key's message already lists the registry keys
        raise ConfigError(str(err)) from err


def _boundary_points(cfg, domain, count):
    """The random boundary sample and ``count`` degenerate-set points at ``basis_spread``."""
    points = sample_boundary(domain, cfg.samples, cfg.seed)
    if count > 0 and domain.special_sampler is not None:
        points += list(domain.special_sampler(count, cfg.seed + 1, cfg.basis_spread))
    return points


def problem_of(cfg, guard_ring=False):
    """The run's :class:`~dfindex.estimator.Problem`: the domain's basis (``auto``) else ``poly(deg=2)``,
    8 or more degenerate-set points per coefficient, and ``check``'s ``guard_ring`` at spread 0.999."""
    domain = _domain_of(cfg)
    basis = (poly_basis(domain.n, degree=2) if cfg.basis == "poly" or domain.h_basis is None
             else domain.h_basis(cfg.basis_degree, cfg.basis_spread))
    points = _boundary_points(cfg, domain, max(cfg.special_samples, 8 * basis.m))
    if guard_ring and domain.special_sampler is not None:
        points += list(domain.special_sampler(max(64, basis.m), cfg.seed + 2, spread=0.999))
    sites, min_pc = collect_sites(domain, points, basis, eps_null=cfg.eps_null)
    return Problem(domain, sites, min_pc, cfg.box_radius, cfg.c_floor)


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------

def _jsonify(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, complex):
        if cmath.isfinite(value):
            return {"re": value.real, "im": value.imag}
        return {"re": _jsonify(float(value.real)), "im": _jsonify(float(value.imag))}
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


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}   # float repr -> json's token


def _report_text(tree):
    """``json.dumps(tree, sort_keys=True, indent=1)`` of a JSON-ready tree with str keys, byte for byte.

    One recursive walk appends one piece per leaf: the leaf's text with the
    separator, indent and key (``lead``) in front of it.
    """
    out = []
    encode = json.encoder.encode_basestring_ascii

    def walk(node, pad, lead):
        if isinstance(node, float):
            text = float.__repr__(node)
            out.append(lead + (text if node - node == 0.0 else _NONFINITE[text]))   # 0 iff finite
        elif isinstance(node, str):
            out.append(lead + encode(node))
        elif node is None or node is True or node is False:
            out.append(lead + ("null" if node is None else "true" if node else "false"))
        elif isinstance(node, int):
            out.append(lead + int.__repr__(node))
        elif not node:
            out.append(lead + ("{}" if isinstance(node, dict) else "[]"))
        else:
            inner = pad + " "
            if isinstance(node, dict):
                sep = "{\n"
                for key, value in sorted(node.items()):
                    walk(value, inner, lead + sep + inner + encode(key) + ": ")
                    lead, sep = "", ",\n"
                out.append("\n" + pad + "}")
            else:
                sep = "[\n"
                for value in node:
                    walk(value, inner, lead + sep + inner)
                    lead, sep = "", ",\n"
                out.append("\n" + pad + "]")

    walk(tree, "", "")
    del walk    # it holds itself through its closure: break that cycle so the pieces go with this call
    return "".join(out)


def write_report(report, out_dir, fmt="json"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{report['command']}.json"
    json_path.write_text(_report_text(report) + "\n")
    paths = [json_path]
    if fmt == "csv" and report["records"]:
        rows = [_flatten(r) for r in report["records"]]
        cols = sorted({k for row in rows for k in row})
        csv_path = out / f"{report['command']}.csv"
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
    points = _boundary_points(cfg, domain, cfg.special_samples)
    ld = levi_data(normal_frame(domain, points, r_order=2), eps_null=cfg.eps_null)
    fr = ld.frame
    null_dim = ld.null.sum(axis=-1)
    alphas, betas = [[] for _ in points], [[] for _ in points]
    at, zvec = ld.pairs(ld.null)
    if not eigen_only and len(at):
        # alpha and i beta(Z, Zbar) at every null (point, direction) pair on one order-3 frame
        null_fr = NormalFrame(domain, fr.z[at])
        a = forms.alpha(null_fr, zvec)
        i_beta = np.real(_vmul(1j, forms.beta_mixed(null_fr, zvec, zvec)))
        for b, a_k, ib_k in zip(at.tolist(), a.tolist(), i_beta.tolist()):
            alphas[b].append(a_k)
            betas[b].append(ib_k)
    records = []
    columns = (fr.z.tolist(), fr.grad_norm.tolist(), ld.eigenvalues.tolist(), null_dim.tolist())
    for b, (p, z, grad_norm, eigenvalues, dim) in enumerate(zip(points, *columns)):
        rec = {
            "z": z,
            "r_residual": float(p.residual),
            "grad_norm": grad_norm,
            "levi_eigenvalues": eigenvalues,
            "null_dim": dim,
        }
        if not eigen_only:
            rec["alpha_null"] = alphas[b]
            rec["i_beta_null"] = betas[b]
        records.append(rec)
    records.sort(key=lambda r: tuple((c.real, c.imag) for c in r["z"]))
    summary = {
        "n_points": len(records),
        "note": "" if at.size else "strictly pseudoconvex sample (no null directions)",
        # np.min keeps a NaN eigenvalue, which ``min`` would drop after the first record
        "min_levi_eigenvalue": float(np.min([r["levi_eigenvalues"][0] for r in records])),
    }
    return make_report("levi" if eigen_only else "forms", cfg, records, summary)


def cmd_levi(cfg):
    return cmd_forms(cfg, eigen_only=True)


def cmd_check(cfg):
    problem = problem_of(cfg, guard_ring=True)
    domain, sites = problem.domain, problem.sites
    cert = feasibility_search(domain, cfg.eta, sites.basis, sites, C_floor=problem.C_floor,
                              box_radius=problem.box_radius)
    records = [cert.to_json_dict(seed=cfg.seed)]
    summary = {
        "eta": cfg.eta,
        "feasible": cert.feasible,
        "status": cert.status,
        "n_sites": len(sites),
        "min_strictly_pc_eigenvalue": None if problem.min_pc == math.inf else problem.min_pc,
    }
    if cert.feasible and len(sites) > 0:
        h_field = sites.basis.h_field(cert.coeffs)
        interior = interior_check(domain, h_field, cfg.eta, sample_boundary(domain, 6, cfg.seed), C=0.0)
        summary.update(interior_min_eig=interior["min_eig"], interior_positive=interior["positive"])
        records.extend({"depth": r["depth"], "min_eig": r["min_eig"]} for r in interior["rows"])
    return make_report("check", cfg, records, summary)


def cmd_estimate(cfg):
    problem = problem_of(cfg)
    est = estimate_index(problem, eta_cap=cfg.eta_cap, tol_eta=cfg.tol_eta)
    records = sorted(est.records, key=lambda r: r["eta"])
    summary = {
        "eta_lo": est.eta_lo,
        "eta_hi": est.eta_hi,
        "summary": est.summary(),
        "n_sites": len(problem.sites),
        "warnings": est.warnings,
        "min_strictly_pc_eigenvalue": None if problem.min_pc == math.inf else problem.min_pc,
        "certificates": {f"{k:.6f}": c.to_json_dict(seed=cfg.seed)
                         for k, c in sorted(est.certificates.items())},
    }
    return make_report("estimate", cfg, records, summary)


def cmd_worm_bench(cfg):
    cfg = replace(cfg, metric="worm_kahler")    # the report names the metric the run used
    try:
        domain = _domain_of(cfg)
    except ConfigError as err:
        raise ConfigError(f"worm-bench runs on worm(gamma) with its Kaehler metric: {err}") from err
    wp = domain.params["worm"]
    fr, zvec, refs = worm.sgamma_comparison(domain, cfg.samples)
    alphas, margins = forms.alpha(fr, zvec).tolist(), geometric_margin(fr, zvec, cfg.eta).tolist()
    records = sorted(({"z2": ref.z2, "x": ref.x, "alpha_engine": a, "alpha_reference": ref.alpha,
                       "margin_engine": m, "margin_reference": ref.margin(cfg.eta)}
                      for ref, a, m in zip(refs, alphas, margins)), key=lambda r: r["x"])
    errors = [abs(r[f"{k}_engine"] - r[f"{k}_reference"]) / (1 + abs(r[f"{k}_reference"]))
              for r in records for k in ("alpha", "margin")]
    thresholds = {f"{g:.6f}": worm.riccati_threshold(g) for g in worm.RICCATI_GAMMAS}
    summary = {
        "gamma": wp.gamma,
        "t": wp.t,
        "s": wp.s,
        # np.max keeps a NaN error, which ``max`` would drop
        "max_relative_error": float(np.max(errors, initial=0.0)),
        "riccati_thresholds": thresholds,
        "known_index": math.pi / (2 * wp.gamma),
    }
    return make_report("worm-bench", cfg, records, summary)


def cmd_selftest(cfg):
    from . import diagnostics      # only selftest loads the invariant suites

    checks = diagnostics.run_all()
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

# The third column holds the run settings a command reads.  Every command takes the output
# options out and format besides them; main refuses a non-default value of any other setting.
_SAMPLING = ("seed", "domain", "domain_params", "metric", "samples", "special_samples", "eps_null",
             "basis_spread")
_CERTIFYING = (*_SAMPLING, "c_floor", "basis", "basis_degree", "box_radius")
_COMMANDS = {
    "forms": (cmd_forms, "alpha/beta/Levi records over a boundary sample", _SAMPLING),
    "levi": (cmd_levi, "Levi eigenvalue records over a boundary sample", _SAMPLING),
    "check": (cmd_check, "feasibility of the boundary inequality at one eta, then the interior "
                         "check of the certified h", (*_CERTIFYING, "eta")),
    "estimate": (cmd_estimate, "eta-bisection estimate of the index with per-eta certificates",
                 (*_CERTIFYING, "tol_eta", "eta_cap")),
    "worm-bench": (cmd_worm_bench, "closed-form worm reference comparison and Riccati thresholds",
                   ("domain", "domain_params", "samples", "eta")),
    "selftest": (cmd_selftest, "run all invariant suites (reduced counts)", ("seed",)),
}
# the settings that have a flag; a subcommand offers the flag of each setting it reads
_FLAGS = {"seed": {"type": int}, "samples": {"type": int}, "metric": {"type": str},
          "special_samples": {"type": int}, "eta": {"type": float},
          "domain": {"type": str, "help": f"registry key, one of {REGISTRY_KEYS}"}}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dfindex",
        description="Boundary characterizations of the strong Diederich-Fornaess index",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        for field in reads:
            if field in _FLAGS:
                p.add_argument("--" + field.replace("_", "-"), **_FLAGS[field])
    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    command, config = args.pop("command"), args.pop("config")
    try:
        cfg = load_config(config, args)
        reads = (*_COMMANDS[command][2], "out", "format")
        for field, default in vars(RunConfig()).items():
            value = getattr(cfg, field)
            if field not in reads and value != default:
                readers = " and ".join(c for c, row in _COMMANDS.items() if field in row[2])
                raise ConfigError(f"{command} reads no {field}, got {value}; only {readers} do")
        report = _COMMANDS[command][0](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    paths = write_report(report, cfg.out, fmt=cfg.format)
    for key, value in report["summary"].items():
        if key != "certificates":
            print(f"{key}: {value}")
    print("wrote: " + ", ".join(str(p) for p in paths))
    if command == "selftest" and not report["summary"]["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
