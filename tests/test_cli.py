import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfindex import forms
from dfindex.boundary import levi_data, normal_frame
from dfindex.cli import (
    ConfigError,
    RunConfig,
    _domain_of,
    _jsonify,
    cmd_check,
    cmd_estimate,
    cmd_forms,
    cmd_levi,
    cmd_selftest,
    cmd_worm_bench,
    load_config,
    _report_text,
    main,
    write_report,
)
from dfindex.domains import make_domain
from dfindex.geometry import CTVector


def run_cli(argv):
    return main(argv)


def test_config_loading_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": "ball", "samples": 7, "seed": 5}))
    cfg = load_config(cfg_path, {"seed": 9, "out": str(tmp_path)})
    assert cfg.domain == "ball" and cfg.samples == 7 and cfg.seed == 9

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense_field": 1}))
    with pytest.raises(ConfigError, match="nonsense_field"):
        load_config(bad)
    bad2 = tmp_path / "bad2.json"
    bad2.write_text("{ not json")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(bad2)
    with pytest.raises(ConfigError, match="tol_eta must be positive"):
        load_config(None, {"tol_eta": -1.0})


@pytest.mark.parametrize("field, value, message", [
    ("samples", 0, "samples must be an integer >= 1"),
    ("samples", 2.5, "samples must be an integer >= 1"),
    ("special_samples", -1, "special_samples must be an integer >= 0"),
    ("eta_cap", 1.0, r"eta_cap must lie in \(0, 1\)"),
    ("eta_cap", 0.0, r"eta_cap must lie in \(0, 1\)"),
    ("box_radius", 0.0, "box_radius must be positive"),
    ("basis_spread", 0.0, "basis_spread must be positive"),
    ("tol_eta", math.nan, "tol_eta must be positive"),
    ("eta", "x", "eta must be a number"),
    ("c_floor", "1e-4", "c_floor must be a number"),
    ("seed", 1.5, "seed must be an integer >= 0"),
    ("domain_params", [1], "domain_params must be an object"),
    ("basis_degree", -5, "basis_degree must be an integer >= 0"),
    ("basis_degree", 2.5, "basis_degree must be an integer >= 0"),
    ("basis_degree", "x", "basis_degree must be an integer >= 0"),
])
def test_estimate_rejects_a_value_that_would_crash_or_mislead_it(tmp_path, capsys, field, value,
                                                                   message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": f"worm({math.pi!r})", field: value}))
    with pytest.raises(ConfigError, match=message):
        load_config(cfg_path)
    assert run_cli(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "config error: " + field in capsys.readouterr().err
    assert not (tmp_path / "estimate.json").exists()


def test_unknown_override_key_is_rejected():
    with pytest.raises(ConfigError, match="config field 'tol_bnd' unknown"):
        load_config(None, {"tol_bnd": 0.01})
    with pytest.raises(ConfigError, match="config field 'sample' unknown"):
        load_config(None, {"sample": None, "seed": 3})
    assert load_config(None, {"seed": 3, "samples": None}).samples == RunConfig().samples


def test_removed_tol_bnd_field_is_unknown(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tol_bnd": 0.01}))
    with pytest.raises(ConfigError, match="config field 'tol_bnd' unknown"):
        load_config(cfg_path)
    assert run_cli(["levi", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "config field 'tol_bnd' unknown" in capsys.readouterr().err


def test_forms_command_on_ball(tmp_path):
    cfg = load_config(None, {"domain": "ball", "samples": 5, "seed": 7, "out": str(tmp_path)})
    report = cmd_forms(cfg)
    assert report["schema"] == "dfindex/1"
    assert len(report["records"]) == 5
    assert "strictly pseudoconvex" in report["summary"]["note"]
    assert report["config"]["seed"] == 7
    paths = write_report(report, tmp_path, fmt="csv")
    assert len(paths) == 2
    header = paths[1].read_text().splitlines()[0]
    assert "levi_eigenvalues" in header


def test_report_config_holds_every_field_but_the_output_options(tmp_path):
    cfg = load_config(None, {"domain": "ball", "samples": 3, "seed": 2, "out": str(tmp_path)})
    paths = write_report(cmd_levi(cfg), tmp_path)
    config = json.loads(paths[0].read_text())["config"]
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(config) == fields - {"out", "format"} | {"version"}


def test_forms_alpha_pattern_on_worm_fiber(tmp_path):
    cfg = load_config(None, {"domain": "worm(3.141592653589793)", "samples": 2, "seed": 1,
                             "special_samples": 10, "out": str(tmp_path)})
    report = cmd_forms(cfg)
    rows = [r for r in report["records"] if r["null_dim"] == 1]
    assert len(rows) >= 10
    for row in rows:
        z2 = complex(row["z"][1]["re"], row["z"][1]["im"])
        alpha = complex(row["alpha_null"][0]["re"], row["alpha_null"][0]["im"])
        assert abs(alpha) == pytest.approx(1.0 / abs(z2), rel=1e-9)


@pytest.mark.parametrize("metric", ["euclidean", "worm_kahler"])
def test_forms_null_values_match_a_one_point_loop(tmp_path, metric):
    cfg = load_config(None, {"domain": f"worm({math.pi!r})", "metric": metric, "samples": 4,
                             "special_samples": 10, "out": str(tmp_path)})
    report = cmd_forms(cfg)
    assert sum(r["null_dim"] for r in report["records"]) >= 10
    domain = _domain_of(cfg)
    for row in report["records"]:
        z = np.array([complex(c["re"], c["im"]) for c in row["z"]])
        ld = levi_data(normal_frame(domain, z, r_order=2), eps_null=cfg.eps_null)
        _, null = ld.pairs(ld.null)
        nulls = [CTVector.holo(h) for h in null.h]
        one = normal_frame(domain, z)
        alphas = [complex(forms.alpha(one, zv)) for zv in nulls]
        assert row["null_dim"] == len(nulls)
        assert row["alpha_null"] == [{"re": a.real, "im": a.imag} for a in alphas]
        assert row["i_beta_null"] == [float(np.real(1j * forms.beta_mixed(one, zv, zv)))
                                      for zv in nulls]


# check on worm(pi) with a small basis: sites, a certificate and the interior
# verification of the certified h
WORM_CHECK = {"domain": f"worm({math.pi!r})", "basis_degree": 8, "eta": 0.3, "samples": 4}


def test_reports_are_byte_identical(tmp_path):
    check_cfg = tmp_path / "check.json"
    check_cfg.write_text(json.dumps(WORM_CHECK))
    estimate_cfg = tmp_path / "estimate.json"
    estimate_cfg.write_text(json.dumps({"domain": f"worm({math.pi!r})", "basis_degree": 8,
                                        "samples": 10}))
    for command, args in (("forms", ["--domain", "ball", "--samples", "4", "--seed", "3"]),
                          ("check", ["--config", str(check_cfg)]),
                          ("estimate", ["--config", str(estimate_cfg)])):
        for run in ("a", "b"):
            assert run_cli([command, *args, "--out", str(tmp_path / command / run)]) == 0
        a = (tmp_path / command / "a" / f"{command}.json").read_bytes()
        b = (tmp_path / command / "b" / f"{command}.json").read_bytes()
        assert a == b


def test_unknown_domain_key_exits_2(tmp_path, capsys):
    code = run_cli(["forms", "--domain", "wurm", "--out", str(tmp_path)])
    assert code == 2
    assert "known keys" in capsys.readouterr().err


def test_levi_command(tmp_path):
    cfg = load_config(None, {"domain": "ellipsoid(1,2)", "samples": 4, "seed": 2,
                             "out": str(tmp_path)})
    report = cmd_levi(cfg)
    assert report["command"] == "levi"
    assert all("alpha_null" not in r for r in report["records"])
    assert report["summary"]["min_levi_eigenvalue"] > 0


def test_estimate_command_on_ball(tmp_path):
    cfg = load_config(None, {"domain": "ball", "samples": 6, "seed": 0, "out": str(tmp_path)})
    report = cmd_estimate(cfg)
    assert report["summary"]["eta_lo"] >= 0.95
    assert "grid cap" in report["summary"]["summary"]
    assert report["summary"]["min_strictly_pc_eigenvalue"] > 0


def test_check_command_on_ball(tmp_path):
    cfg = load_config(None, {"domain": "ball", "samples": 6, "seed": 0, "eta": 0.5,
                             "out": str(tmp_path)})
    report = cmd_check(cfg)
    assert report["summary"]["feasible"] is True
    assert report["summary"]["n_sites"] == 0


def test_worm_bench_command(tmp_path):
    cfg = load_config(None, {"domain": "worm(3.141592653589793)", "samples": 6, "seed": 0,
                             "eta": 0.4, "out": str(tmp_path)})
    report = cmd_worm_bench(cfg)
    assert report["summary"]["max_relative_error"] < 1e-6
    assert report["summary"]["known_index"] == pytest.approx(0.5)
    key = f"{math.pi:.6f}"
    assert report["summary"]["riccati_thresholds"][key] == pytest.approx(0.5, abs=1e-3)


def test_worm_bench_without_kahler_metric_exits_2(tmp_path, capsys):
    # at worm(2 pi) the default t admits no positive-definite Kaehler metric
    code = run_cli(["worm-bench", "--domain", f"worm({2 * math.pi!r})", "--samples", "3",
                    "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "raise t" in err
    assert not (tmp_path / "worm-bench.json").exists()


@pytest.mark.parametrize("config", [
    {"domain": "ball"},
    {"domain": "ellipsoid(1,2)"},
    {"domain": f"worm({math.pi!r})", "domain_params": {"metric": "euclidean"}},
    # the smoothing parameters reach the worm: p = 2 and c = -1 are rejected
    {"domain": f"worm({math.pi!r})", "domain_params": {"lam_p": 2}},
    {"domain": f"worm({math.pi!r})", "domain_params": {"lam_c": -1.0}},
])
def test_worm_bench_rejects_a_domain_it_does_not_build_exits_2(tmp_path, capsys, config):
    cfg_path = tmp_path / "wb.json"
    cfg_path.write_text(json.dumps(dict(config, samples=3)))
    assert run_cli(["worm-bench", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "worm-bench.json").exists()


@pytest.mark.parametrize("key, params, message", [
    ("ball", {"radius": 2.0}, "ball reads no domain param radius; it reads n, signed"),
    ("worm(3.14159)", {"tt": 3}, "worm reads no domain param tt; it reads gamma, t, s, lam_c, lam_p"),
    ("user", {"n": 2, "radius": 1}, "user reads no domain param radius; it reads n, r, box, interior"),
    ("ellipsoid(1,2)", {"axes": [5, 5]},
     "'ellipsoid(1,2)' already gives axes; drop that domain param (ellipsoid reads axes)"),
    ("ball(3)", {"n": 3}, "'ball(3)' already gives n; drop that domain param (ball reads n, signed)"),
    ("worm(3.14159)", {"gamma": 3.5}, "'worm(3.14159)' already gives gamma"),
    # numbers in parentheses past those the key reads
    ("worm(3.141592653589793, 7)", {}, "'worm(3.141592653589793, 7)' gives too many numbers: worm reads 1"),
    ("ball(2, 9)", {}, "'ball(2, 9)' gives too many numbers: ball reads 1"),
    ("user(1)", {}, "'user(1)' gives too many numbers: user reads none"),
], ids=["ball-radius", "worm-tt", "user-radius", "ellipsoid-axes", "ball-n", "worm-gamma",
        "worm-two-numbers", "ball-two-numbers", "user-one-number"])
def test_make_domain_rejects_a_param_its_key_does_not_read(key, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_domain(key, **params)


def test_a_key_with_too_many_numbers_exits_2(tmp_path, capsys):
    assert run_cli(["levi", "--domain", "ball(2, 9)", "--samples", "3", "--out", str(tmp_path)]) == 2
    assert "config error: 'ball(2, 9)' gives too many numbers" in capsys.readouterr().err
    assert not (tmp_path / "levi.json").exists()


def test_make_domain_takes_the_params_its_key_reads():
    assert make_domain("ball", n=3, signed=True).n == 3
    assert make_domain("ball(3)", signed=True).name == "ball_sd"
    assert make_domain("ellipsoid", axes=[1, 2]).params["axes"] == [1.0, 2.0]
    assert make_domain("ellipsoid(1,2,3)").n == 3     # an ellipsoid key takes any count of numbers
    wp = make_domain("worm", gamma=math.pi, t=1.2, s=2.0, lam_c=10.0, lam_p=4).params["worm"]
    assert (wp.gamma, wp.t, wp.s, wp.lam_c, wp.lam_p) == (math.pi, 1.2, 2.0, 10.0, 4)


def test_a_domain_param_the_key_does_not_read_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": "ball", "domain_params": {"radius": 3}, "samples": 3}))
    assert run_cli(["levi", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "config error: ball reads no domain param radius; it reads n, signed" in capsys.readouterr().err
    assert not (tmp_path / "levi.json").exists()


def test_worm_bench_honours_the_fiber_scale(tmp_path):
    cfg = load_config(None, {"domain": f"worm({math.pi!r})", "domain_params": {"s": 64.0},
                             "samples": 3, "out": str(tmp_path)})
    summary = cmd_worm_bench(cfg)["summary"]
    assert summary["s"] == 64.0
    assert summary["max_relative_error"] < 1e-6


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0


def test_check_command_on_worm_runs_interior_check(tmp_path):
    cfg = load_config(None, dict(WORM_CHECK, out=str(tmp_path)))
    report = cmd_check(cfg)
    summary = report["summary"]
    assert summary["feasible"] is True and summary["n_sites"] > 0
    assert summary["interior_positive"] is True
    interior = [r for r in report["records"] if "depth" in r]
    assert interior and all(r["min_eig"] > 0 for r in interior)


@pytest.mark.parametrize("domain, basis, basis_id", [
    (f"worm({math.pi!r})", "auto", "log|z2|^2(deg=4,"),
    (f"worm({math.pi!r})", "reduction", "log|z2|^2(deg=4,"),
    (f"worm({math.pi!r})", "poly", "poly(deg=2)"),
    ("ball", "auto", "poly(deg=2)"),
    ("ball", "poly", "poly(deg=2)"),
], ids=["worm-auto", "worm-reduction", "worm-poly", "ball-auto", "ball-poly"])
def test_basis_field_picks_the_domain_basis_or_poly(tmp_path, domain, basis, basis_id):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": domain, "basis": basis, "basis_degree": 4,
                                    "samples": 4, "eta": 0.3}))
    assert run_cli(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["records"][0]["basis_id"].startswith(basis_id)
    assert report["config"]["basis"] == basis


@pytest.mark.parametrize("domain, basis, message", [
    ("ball", "reduction", "reduction basis needs a domain with a reduction coordinate (worm)"),
    ("ball", "cubic", "unknown basis 'cubic' (auto | reduction | poly)"),
    (f"worm({math.pi!r})", "cubic", "unknown basis 'cubic' (auto | reduction | poly)"),
], ids=["ball-reduction", "ball-unknown", "worm-unknown"])
def test_basis_field_errors_exit_2(tmp_path, capsys, domain, basis, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": domain, "basis": basis, "samples": 4}))
    assert run_cli(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "config error: " + message in capsys.readouterr().err
    assert not (tmp_path / "estimate.json").exists()


# r = |z1|^2 + |z2|^2 - 1 as a user expression tree
BALL_TREE = {"op": "add", "args": [{"op": "abs2", "arg": {"op": "coord", "index": 0}},
                                   {"op": "abs2", "arg": {"op": "coord", "index": 1}},
                                   {"op": "const", "value": -1.0}]}


def _user_params(metric=None):
    params = {"n": 2, "r": BALL_TREE, "box": [[-1.5, 1.5]] * 4,
              "interior": [[0.0, 0.0], [0.0, 0.0]]}
    if metric is not None:
        params["metric"] = metric
    return params


def _const(value):
    return {"op": "const", "value": value}


def test_user_domain_with_custom_metric(tmp_path):
    # an entries spec works on every registry key, the user key included
    doubled = {"entries": [[_const(2.0), _const(0.0)], [_const(0.0), _const(2.0)]]}
    for domain in ("ball", "ellipsoid(1,2)", f"worm({math.pi!r})", "user"):
        base = _user_params() if domain == "user" else {}
        eigs = {}
        for label, metric in (("euclidean", None), ("doubled", doubled)):
            params = base if metric is None else dict(base, metric=metric)
            cfg_path = tmp_path / f"{label}.json"
            cfg_path.write_text(json.dumps({"domain": domain, "domain_params": params}))
            out = tmp_path / label
            assert run_cli(["levi", "--config", str(cfg_path), "--samples", "3", "--out", str(out)]) == 0
            report = json.loads((out / "levi.json").read_text())
            eigs[label] = [r["levi_eigenvalues"][0] for r in report["records"]]
        # g = 2 delta halves the Levi eigenvalues on unit tangent vectors
        assert eigs["doubled"] == pytest.approx([0.5 * e for e in eigs["euclidean"]], rel=1e-9), domain
        # a metric name next to a metric spec is ambiguous
        assert run_cli(["levi", "--config", str(cfg_path), "--metric", "worm_kahler",
                        "--out", str(out)]) == 2


@pytest.mark.parametrize("metric", [
    {"entries": [[_const(1.0)]]},
    {"rows": [[_const(1.0), _const(0.0)], [_const(0.0), _const(1.0)]]},
    {"entries": [[_const(1.0), {"op": "nope"}], [_const(0.0), _const(1.0)]]},
    "worm_kahler",
])
def test_user_domain_with_bad_metric_exits_2(tmp_path, capsys, metric):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": "user", "domain_params": _user_params(metric)}))
    assert run_cli(["levi", "--config", str(cfg_path), "--samples", "3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    # the registry keys belong to unknown-key errors only
    assert "known keys" not in err and "registry keys" not in err


@pytest.mark.parametrize("domain", ["ball", "ellipsoid(1,2)", "user"])
def test_unsupported_metric_name_exits_2(tmp_path, capsys, domain):
    cfg_path = tmp_path / "cfg.json"
    params = _user_params() if domain == "user" else {}
    cfg_path.write_text(json.dumps({"domain": domain, "domain_params": params}))
    code = run_cli(["levi", "--config", str(cfg_path), "--metric", "worm_kahler",
                    "--samples", "3", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "supports metrics ['euclidean']" in err
    assert not (tmp_path / "levi.json").exists()


def test_levi_minimum_keeps_a_nan_eigenvalue(tmp_path, monkeypatch):
    from dfindex import cli

    real = cli.levi_data

    def nan_where_re_z1_positive(frame, eps_null=1e-7):
        ld = real(frame, eps_null=eps_null)
        eigs = ld.eigenvalues.copy()
        eigs[..., 0] = np.where(np.real(ld.frame.z[..., 0]) > 0, np.nan, eigs[..., 0])
        ld.eigenvalues = eigs
        return ld

    monkeypatch.setattr(cli, "levi_data", nan_where_re_z1_positive)
    report = cmd_levi(load_config(None, {"domain": "ball", "samples": 12, "out": str(tmp_path)}))
    firsts = [r["levi_eigenvalues"][0] for r in report["records"]]
    # records are sorted by z, so the first one (smallest Re z1) is finite
    assert firsts[0] != "nan" and "nan" in firsts
    assert report["summary"]["min_levi_eigenvalue"] == "nan"


def _no_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("value, expected", [
    (np.float64("nan"), "nan"),
    (np.float64("inf"), "inf"),
    (np.float64("-inf"), "-inf"),
    (np.float32("nan"), "nan"),
    (np.complex128(complex(math.nan, 1.0)), {"re": "nan", "im": 1.0}),
    (complex(2.0, -math.inf), {"re": 2.0, "im": "-inf"}),
    (np.array([1.5, math.nan, -math.inf]), [1.5, "nan", "-inf"]),
    (np.array([complex(math.inf, math.nan)]), [{"re": "inf", "im": "nan"}]),
    ({"a": np.float64("nan"), "b": float("nan"), "c": [np.float64("inf")]}, {"a": "nan", "b": "nan", "c": ["inf"]}),
])
def test_jsonify_writes_nan_and_inf_as_the_strings_a_python_float_gets(value, expected):
    text = json.dumps(_jsonify(value))
    assert json.loads(text, parse_constant=_no_constant) == expected


# JSON-ready trees with str keys, as a report is: nesting, escapes, big ints and extreme floats
_STRINGS = st.text(st.characters(), max_size=5) | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9\u2028\U0001f600"])
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | st.floats()
           | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]) | _STRINGS)
_TREES = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=4)
                      | st.dictionaries(_STRINGS, kids, max_size=4), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_TREES)
@example({"a": [{"b": [[1, {"c": [], "d": {}}], []]}], "e": 2.5})      # nesting to depth 5
@example([[], {}, [[]], {"k": {}}])
@example({'q"\\\n\x00\u00e9': ["\x1f\u2028", -0.0, 5e-324, 1.7976931348623157e308, 2**100, True, None]})
@example({})
@example(-0.0)
def test_report_text_is_json_dumps_with_indent_1(tree):
    assert _report_text(tree) == json.dumps(tree, sort_keys=True, indent=1)


@pytest.mark.parametrize("command, config", [
    (cmd_forms, {"domain": f"worm({math.pi!r})", "samples": 4, "special_samples": 4}),
    (cmd_levi, {"domain": "ellipsoid(1,2)", "samples": 6}),
    (cmd_check, {"domain": f"worm({math.pi!r})", "samples": 6, "basis_degree": 4, "eta": 0.4}),
    (cmd_estimate, {"domain": "ellipsoid(1,2)", "samples": 6}),
    (cmd_worm_bench, {"domain": f"worm({math.pi!r})", "samples": 4}),
    (cmd_selftest, {}),
], ids=["forms", "levi", "check", "estimate", "worm-bench", "selftest"])
def test_write_report_writes_json_dumps_with_indent_1(tmp_path, command, config):
    report = command(load_config(None, config))
    path = write_report(report, tmp_path)[0]
    assert path.read_text() == json.dumps(report, sort_keys=True, indent=1) + "\n"
