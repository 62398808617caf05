import argparse
import cmath
import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dfindex import forms
from dfindex.boundary import levi_data, normal_frame
from dfindex.cli import (
    ConfigError,
    RunConfig,
    _COMMANDS,
    _boundary_points,
    _domain_of,
    cmd_check,
    cmd_estimate,
    cmd_forms,
    cmd_levi,
    cmd_selftest,
    cmd_worm_bench,
    load_config,
    make_report,
    _report_text,
    build_parser,
    main,
    problem_of,
    write_report,
)
from dfindex.domains import make_domain
from dfindex.geometry import CTVector


def run_cli(argv):
    return main(argv)


def _jsonify(value):
    """The JSON form of a report value, one rule per type: the reference of ``_report_text``."""
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


def _written(report, out_dir):
    """The report as its JSON file reads back."""
    return json.loads(write_report(report, out_dir)[0].read_text())


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
    ("domain", ["ball"], "domain must be a string"),
    ("basis_degree", -5, "basis_degree must be an integer >= 0"),
    ("basis_degree", 2.5, "basis_degree must be an integer >= 0"),
    ("basis_degree", "x", "basis_degree must be an integer >= 0"),
    ("basis_spread", 1.02, "basis_spread must be at most 1, got 1.02"),
    ("basis_spread", 1.5, "basis_spread must be at most 1, got 1.5"),
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


def test_forms_rejects_a_basis_spread_past_the_annulus(tmp_path, capsys):
    # the spread is a fraction of the annulus: past 1 its sites leave S_gamma and the boundary
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": f"worm({math.pi!r})", "basis_spread": 1.02}))
    assert run_cli(["forms", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: basis_spread must be at most 1, got 1.02\n"
    assert not (tmp_path / "forms.json").exists()


def test_estimate_runs_at_basis_spread_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": f"worm({math.pi!r})", "samples": 4, "basis_degree": 4,
                                    "basis_spread": 1.0}))
    assert run_cli(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "estimate.json").read_text())["summary"]
    assert summary["summary"] == "DF in [0.40, 0.41]"


def test_an_out_that_is_no_string_exits_2(tmp_path, capsys, monkeypatch):
    # no --out flag, so the config's own out stands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": 5}))
    with pytest.raises(ConfigError, match="out must be a string, got 5"):
        load_config("cfg.json")
    assert run_cli(["levi", "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err == "config error: out must be a string, got 5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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
    assert report["records"] == sorted(report["records"], key=lambda r: tuple((c.real, c.imag) for c in r["z"]))
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
    report = _written(cmd_forms(cfg), tmp_path)
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
    report = _written(cmd_forms(cfg), tmp_path)
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
    assert report["summary"]["eta_hi_rests_on"] is None
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
    # the message names the smallest t = k/20 that passes the positivity check, and that t builds
    t = float(re.search(r"raise t \(domain_params\.t\) to ([0-9.]+),", err).group(1))
    assert t == 4.4
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domain": f"worm({2 * math.pi!r})", "domain_params": {"t": t}, "samples": 3}))
    assert run_cli(["worm-bench", "--config", str(config), "--out", str(tmp_path)]) == 0


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
    ("ball", {"radius": 2.0}, "ball reads no domain param radius; it reads signed"),
    ("worm(3.14159)", {"tt": 3}, "worm reads no domain param tt; it reads t, s, lam_c, lam_p"),
    ("user", {"n": 2, "radius": 1}, "user reads no domain param radius; it reads n, r, box, interior"),
    # n, the axes and gamma come only from the key, with its numbers or without them
    ("ellipsoid(1,2)", {"axes": [5, 5]}, "ellipsoid reads no domain param axes; it reads none; "
                                         "axes comes only from the key, ellipsoid(a1,..,an)"),
    ("ball(3)", {"n": 3},
     "ball reads no domain param n; it reads signed; n comes only from the key, ball(n)"),
    ("worm(3.14159)", {"gamma": 3.5}, "worm reads no domain param gamma; it reads t, s, lam_c, lam_p; "
                                      "gamma comes only from the key, worm(gamma)"),
    ("ellipsoid", {"axes": [1, 2]}, "axes comes only from the key, ellipsoid(a1,..,an)"),
    ("ball", {"n": 3, "signed": True}, "n comes only from the key, ball(n)"),
    ("worm", {"gamma": math.pi}, "gamma comes only from the key, worm(gamma)"),
    # numbers in parentheses past those the key reads
    ("worm(3.141592653589793, 7)", {}, "'worm(3.141592653589793, 7)' gives too many numbers: worm reads 1"),
    ("ball(2, 9)", {}, "'ball(2, 9)' gives too many numbers: ball reads 1"),
    ("user(1)", {}, "'user(1)' gives too many numbers: user reads none"),
    # a key that needs its numbers
    ("ellipsoid", {}, "ellipsoid needs axes: ellipsoid(a1,..,an)"),
    ("worm", {}, "worm needs gamma: worm(gamma)"),
], ids=["ball-radius", "worm-tt", "user-radius", "ellipsoid-axes", "ball-n", "worm-gamma",
        "bare-ellipsoid-axes", "bare-ball-n", "bare-worm-gamma",
        "worm-two-numbers", "ball-two-numbers", "user-one-number", "bare-ellipsoid", "bare-worm"])
def test_make_domain_rejects_a_param_its_key_does_not_read(key, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_domain(key, **params)


def test_a_key_with_too_many_numbers_exits_2(tmp_path, capsys):
    assert run_cli(["levi", "--domain", "ball(2, 9)", "--samples", "3", "--out", str(tmp_path)]) == 2
    assert "config error: 'ball(2, 9)' gives too many numbers" in capsys.readouterr().err
    assert not (tmp_path / "levi.json").exists()


def test_make_domain_takes_the_params_its_key_reads():
    assert make_domain("ball").n == 2
    ball = make_domain("ball(3)", signed=True)
    assert (ball.n, ball.name) == (3, "ball_sd")
    assert make_domain("ellipsoid(1,2)").params["axes"] == [1.0, 2.0]
    assert make_domain("ellipsoid(1,2,3)").n == 3     # an ellipsoid key takes any count of numbers
    wp = make_domain(f"worm({math.pi!r})", t=1.2, s=2.0, lam_c=10.0, lam_p=4).params["worm"]
    assert (wp.gamma, wp.t, wp.s, wp.lam_c, wp.lam_p) == (math.pi, 1.2, 2.0, 10.0, 4)


# a user domain's params: r = |z1|^2 + |z2|^2 - 1 as an expression tree
_USER_BALL = {"n": 2, "box": [[-1.5, 1.5]] * 4, "interior": [[0.0, 0.0], [0.0, 0.0]],
              "r": {"op": "add", "args": [{"op": "abs2", "arg": {"op": "coord", "index": 0}},
                                          {"op": "abs2", "arg": {"op": "coord", "index": 1}},
                                          {"op": "const", "value": -1.0}]}}


@pytest.mark.parametrize("key, params, message", [
    ("ball", {"signed": "no"}, "ball domain param signed must be a bool, got 'no'"),
    ("ball", {"signed": 1}, "ball domain param signed must be a bool, got 1"),
    ("worm(3.14159)", {"t": "2"}, "worm domain param t must be a finite real number, got '2'"),
    ("worm(3.14159)", {"t": True}, "worm domain param t must be a finite real number, got True"),
    ("worm(3.14159)", {"s": float("nan")}, "worm domain param s must be a finite real number, got nan"),
    ("worm(3.14159)", {"lam_c": None}, "worm domain param lam_c must be a finite real number, got None"),
    ("worm(3.14159)", {"lam_p": 3.0}, "worm domain param lam_p must be an integer, got 3.0"),
    ("user", dict(_USER_BALL, interior=[[0, "x"], [0, 0]]),
     "user domain interior must be 2 numbers or [re, im] pairs, got [[0, 'x'], [0, 0]]"),
    ("user", dict(_USER_BALL, interior=5), "user domain interior must be 2 numbers or [re, im] pairs, got 5"),
    ("user", dict(_USER_BALL, interior=[[0, 0, 7], [0, 0]]),
     "user domain interior must be 2 numbers or [re, im] pairs, got [[0, 0, 7], [0, 0]]"),
    ("user", dict(_USER_BALL, interior=[[0], [0, 0]]),
     "user domain interior must be 2 numbers or [re, im] pairs, got [[0], [0, 0]]"),
    ("user", dict(_USER_BALL, interior=[[0, 0]] * 3),
     "user domain interior must be 2 numbers or [re, im] pairs, got [[0, 0], [0, 0], [0, 0]]"),
], ids=["signed-str", "signed-int", "t-str", "t-bool", "s-nan", "lam_c-none", "lam_p-float",
        "interior-str", "interior-int", "interior-triple", "interior-single", "interior-3-entries"])
def test_make_domain_rejects_a_param_of_the_wrong_kind(key, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_domain(key, **params)


@pytest.mark.parametrize("command, config, message", [
    # a string t once reached WormParams and exited 1 with a TypeError
    ("worm-bench", {"domain": f"worm({math.pi!r})", "domain_params": {"t": "2"}},
     "worm domain param t must be a finite real number, got '2'"),
    # a string signed once went through bool() and built the signed-distance ball
    ("levi", {"domain": "ball", "domain_params": {"signed": "no"}},
     "ball domain param signed must be a bool, got 'no'"),
    # a malformed interior once exited 1 with a TypeError from complex() or iter()
    ("forms", {"domain": "user", "domain_params": dict(_USER_BALL, interior=[[0, "x"], [0, 0]])},
     "user domain interior must be 2 numbers or [re, im] pairs, got [[0, 'x'], [0, 0]]"),
    ("forms", {"domain": "user", "domain_params": dict(_USER_BALL, interior=5)},
     "user domain interior must be 2 numbers or [re, im] pairs, got 5"),
    # an [re, im, extra] entry was once read as [re, im] and the extra number ignored
    ("levi", {"domain": "user", "domain_params": dict(_USER_BALL, interior=[[0, 0, 7], [0, 0]])},
     "user domain interior must be 2 numbers or [re, im] pairs, got [[0, 0, 7], [0, 0]]"),
    # a one-number list once exited 1 with an IndexError
    ("levi", {"domain": "user", "domain_params": dict(_USER_BALL, interior=[[0], [0, 0]])},
     "user domain interior must be 2 numbers or [re, im] pairs, got [[0], [0, 0]]"),
    # too many coordinates were once refused by the field, which named user_r and not interior
    ("levi", {"domain": "user", "domain_params": dict(_USER_BALL, interior=[[0, 0]] * 3)},
     "user domain interior must be 2 numbers or [re, im] pairs, got [[0, 0], [0, 0], [0, 0]]"),
], ids=["worm-bench-t", "levi-signed", "forms-interior-str", "forms-interior-int", "levi-interior-triple",
        "levi-interior-single", "levi-interior-3-entries"])
def test_a_domain_param_of_the_wrong_kind_exits_2(tmp_path, capsys, command, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(config, samples=3)))
    assert run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / f"{command}.json").exists()


def test_a_domain_param_the_key_does_not_read_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": "ball", "domain_params": {"radius": 3}, "samples": 3}))
    assert run_cli(["levi", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "config error: ball reads no domain param radius; it reads signed" in capsys.readouterr().err
    assert not (tmp_path / "levi.json").exists()


@pytest.mark.parametrize("config, message", [
    ({"domain": "ball", "domain_params": {"n": 3}}, "n comes only from the key, ball(n)"),
    ({"domain": "ellipsoid(1,2)", "domain_params": {"axes": [1, 2]}},
     "axes comes only from the key, ellipsoid(a1,..,an)"),
    ({"domain": f"worm({math.pi!r})", "domain_params": {"gamma": math.pi}},
     "gamma comes only from the key, worm(gamma)"),
    # a metric in domain_params is refused even where it agrees with the metric field
    ({"domain": f"worm({math.pi!r})", "metric": "euclidean", "domain_params": {"metric": "euclidean"}},
     "domain_params reads no metric; the metric field sets it"),
], ids=["ball-n", "ellipsoid-axes", "worm-gamma", "worm-metric"])
def test_a_removed_way_in_exits_2_and_names_the_one_way_in(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(config, samples=3)))
    assert run_cli(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(f"{message}\n")
    assert not (tmp_path / "estimate.json").exists()


def test_only_check_and_worm_bench_take_an_eta_flag(tmp_path, capsys):
    for command in ("forms", "levi", "estimate", "selftest"):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--eta", "0.3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eta 0.3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    # every flag lands in the config under its own name
    given = {"domain": f"worm({math.pi!r})", "samples": 3, "seed": 4, "eta": 0.3, "metric": "worm_kahler",
             "special_samples": 5}
    for command, fields in (("check", list(given)), ("worm-bench", ["domain", "samples", "eta"])):
        argv = [arg for field in fields for arg in ("--" + field.replace("_", "-"), str(given[field]))]
        assert run_cli([command, *argv, "--format", "csv", "--out", str(tmp_path / command)]) == 0
        report = json.loads((tmp_path / command / f"{command}.json").read_text())
        assert {field: report["config"][field] for field in fields} == {field: given[field] for field in fields}
        assert (tmp_path / command / f"{command}.csv").exists()


SAMPLING_FLAGS = {"--seed", "--domain", "--metric", "--samples", "--special-samples"}
FLAGS = {"forms": SAMPLING_FLAGS, "levi": SAMPLING_FLAGS, "check": SAMPLING_FLAGS | {"--eta"},
         "estimate": SAMPLING_FLAGS, "worm-bench": {"--domain", "--samples", "--eta"},
         "selftest": {"--seed"}}


def test_each_subcommand_offers_the_flags_of_the_settings_it_reads(tmp_path, capsys):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(FLAGS)
    for command, flags in FLAGS.items():
        offered = {o for a in subparsers[command]._actions for o in a.option_strings}
        assert offered == {"-h", "--help", "--config", "--out", "--format", *flags}, command
    for argv in (["selftest", "--samples", "3"], ["worm-bench", "--special-samples", "5"]):
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_worm_bench_report_names_the_metric_it_ran(tmp_path):
    # the bench always runs the worm's Kaehler metric, and its report says so
    out = tmp_path / "wb"
    assert run_cli(["worm-bench", "--domain", f"worm({math.pi!r})", "--samples", "3", "--out", str(out)]) == 0
    report = json.loads((out / "worm-bench.json").read_text())
    assert report["config"]["metric"] == "worm_kahler"
    assert report["summary"]["s"] == 8.0     # the Kaehler fiber scale at the default t


def test_worm_bench_refuses_a_metric(tmp_path, capsys):
    # worm-bench runs the Kaehler metric whatever it is given, so it takes no metric setting
    with pytest.raises(SystemExit) as exc:
        run_cli(["worm-bench", "--metric", "euclidean", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --metric euclidean" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": f"worm({math.pi!r})", "metric": "worm_kahler"}))
    assert run_cli(["worm-bench", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("config error: worm-bench reads no metric, got worm_kahler; "
                                       "only forms and levi and check and estimate do\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["forms", "levi", "estimate", "selftest"])
def test_a_command_that_reads_no_eta_refuses_one_in_its_config(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"eta": 0.3}))
    assert run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {command} reads no eta, got 0.3; only check and worm-bench do\n"
    assert not (tmp_path / "out").exists()


# a value other than the default for each setting, valid for every command that reads it
OTHER_VALUE = {"seed": 3, "domain": "ellipsoid(1,2)", "domain_params": {"signed": True},
               "metric": "worm_kahler", "samples": 3, "special_samples": 5, "eps_null": 1e-6,
               "tol_eta": 0.02, "c_floor": 1e-3, "eta": 0.3, "eta_cap": 0.9, "basis": "poly",
               "basis_degree": 4, "basis_spread": 0.95, "box_radius": 10.0}
UNREAD = [(command, field) for command, (_, _, reads) in _COMMANDS.items()
          for field in OTHER_VALUE if field not in reads]


def test_the_table_accepts_48_of_the_90_command_setting_pairs():
    assert set(OTHER_VALUE) == {f.name for f in dataclasses.fields(RunConfig)} - {"out", "format"}
    assert len(_COMMANDS) * len(OTHER_VALUE) - len(UNREAD) == 48
    assert [c for c, f in UNREAD if f == "eta"] == ["forms", "levi", "estimate", "selftest"]


# the eta refusals are the test above
@pytest.mark.parametrize("command, field", [(c, f) for c, f in UNREAD if f != "eta"],
                         ids=[f"{c}-{f}" for c, f in UNREAD if f != "eta"])
def test_a_command_refuses_a_setting_it_does_not_read(tmp_path, capsys, command, field):
    readers = " and ".join(c for c, (_, _, reads) in _COMMANDS.items() if field in reads)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: OTHER_VALUE[field]}))
    assert run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {command} reads no {field}, got {OTHER_VALUE[field]}; only {readers} do\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("gamma", [math.pi, 2 * math.pi], ids=["pi", "2pi"])
def test_basis_spread_places_the_null_sites_and_the_basis_together(tmp_path, gamma):
    # the sites must stop where the basis does: against a basis clamped past 0.95 a, sites out to
    # 0.99 a bracket the index near 0 ([0.00, 0.02] at gamma = pi), with every stage certified
    config = {"domain": f"worm({gamma!r})", "basis_spread": 0.95, "basis_degree": 12, "samples": 10}
    cfg = load_config(None, config)
    domain = _domain_of(cfg)
    special = _boundary_points(cfg, domain, 8 * problem_of(cfg).sites.basis.m)[cfg.samples:]
    reach = max(abs(math.log(abs(p.z[1]) ** 2)) for p in special)
    assert 0.949 * domain.params["worm"].a < reach <= 0.95 * domain.params["worm"].a
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "estimate.json").read_text())["summary"]
    assert summary["warnings"] == []
    for end in (summary["eta_lo"], summary["eta_hi"]):
        assert abs(end - math.pi / (2 * gamma)) <= 0.05


@pytest.mark.parametrize("config", [
    {"domain": f"worm({math.pi!r})", "samples": 6, "basis_degree": 4, "eta": 0.3},
    {"domain": "ellipsoid(1,2)", "samples": 6, "eta": 0.3},
], ids=["worm", "ellipsoid"])
def test_reports_count_the_sites_of_the_builder(config):
    check = load_config(None, config)
    estimate = load_config(None, {k: v for k, v in config.items() if k != "eta"})
    assert cmd_check(check)["summary"]["n_sites"] == len(problem_of(check).sites)
    assert cmd_estimate(estimate)["summary"]["n_sites"] == len(problem_of(estimate).sites)


@pytest.mark.parametrize("gamma", [math.pi, 2 * math.pi], ids=["pi", "2pi"])
def test_check_is_the_estimate_stage_at_its_eta(gamma):
    # the cold stages (eta = 0 and the cap) are check's search on the same sites, coefficients included;
    # warm midpoints may find other coefficients, but not another status at the bracket's ends
    config = {"domain": f"worm({gamma!r})", "samples": 10, "basis_degree": 8}
    summary = cmd_estimate(load_config(None, config))["summary"]
    certificates = summary["certificates"]

    def check(eta):
        report = cmd_check(load_config(None, dict(config, eta=eta)))
        assert report["summary"]["n_sites"] == summary["n_sites"]
        return report

    cap = RunConfig().eta_cap
    for eta in (0.0, cap):
        assert check(eta)["records"][0] == certificates[f"{eta:.6f}"]
    assert check(summary["eta_lo"])["summary"]["status"].startswith("feasible_")
    assert check(summary["eta_hi"])["summary"]["status"] == "infeasible_certified"
    basis = certificates[f"{summary['eta_hi']:.6f}"]["basis_id"]
    assert summary["eta_hi_rests_on"] == (f"no h in {basis} with |c_j| <= 50 reaches c_floor 0.0001 "
                                          f"on these {summary['n_sites']} sites")


def test_a_stage_starts_from_the_incumbent_of_the_last_feasible_one():
    # on the worm's Kaehler metric the incumbent of the 0.2475 stage already certifies 0.37125:
    # that stage exits on its first iteration, before any centring gives a bound
    cfg = load_config(None, {"domain": f"worm({math.pi!r})", "metric": "worm_kahler", "samples": 10,
                             "basis_degree": 8})
    summary = cmd_estimate(cfg)["summary"]
    stage = summary["certificates"]["0.371250"]
    assert (stage["status"], stage["iterations"], stage["upper_bound"]) == ("feasible_early_exit", 1, None)
    assert summary["summary"] == "DF in [0.43, 0.45]"


def _csv_cell(record, column):
    """What the CSV mirror should hold for ``column`` of ``record``: a dotted column names a
    nested field, a ``_re``/``_im`` column one part of a complex, and a list is its JSON text."""
    *path, leaf = column.split(".")
    node = record
    for key in path:
        node = node.get(key) or {}
    if leaf in node:
        value = node[leaf]
    else:
        stem, _, part = leaf.rpartition("_")
        value = (node.get(stem) or {}).get(part)
    if value is None:
        return ""
    return json.dumps(value) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("command, config, columns", [
    ("worm-bench", {"domain": f"worm({math.pi!r})", "samples": 5},
     {"x", "z2_re", "z2_im", "alpha_engine_re", "alpha_engine_im", "alpha_reference_re",
      "alpha_reference_im", "margin_engine", "margin_reference"}),
    # a feasible certificate with its dual weights, then the interior rows
    ("check", {"domain": f"worm({math.pi!r})", "samples": 4, "basis_degree": 4, "eta": 0.4},
     {"eta", "basis_id", "coeffs", "min_margin", "upper_bound", "gap", "multipliers.sites",
      "multipliers.box", "iterations", "n_sites", "feasible", "status", "seed", "depth", "min_eig"}),
], ids=["worm-bench", "check"])
def test_csv_mirror_holds_every_json_record_field(tmp_path, command, config, columns):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(config, format="csv")))
    assert run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    records = json.loads((tmp_path / f"{command}.json").read_text())["records"]
    with (tmp_path / f"{command}.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(records) > 1
    assert set(rows[0]) == columns
    for record, row in zip(records, rows):
        for column, cell in row.items():
            assert cell == _csv_cell(record, column), column
        assert any(cell for cell in row.values())


@pytest.mark.parametrize("domain, basis, basis_id", [
    (f"worm({math.pi!r})", "auto", "log|z2|^2(deg=4,"),
    (f"worm({math.pi!r})", "poly", "poly(deg=2)"),
    ("ball", "auto", "poly(deg=2)"),
    ("ball", "poly", "poly(deg=2)"),
], ids=["worm-auto", "worm-poly", "ball-auto", "ball-poly"])
def test_basis_field_picks_the_domain_basis_or_poly(tmp_path, domain, basis, basis_id):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": domain, "basis": basis, "basis_degree": 4,
                                    "samples": 4, "eta": 0.3}))
    assert run_cli(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["records"][0]["basis_id"].startswith(basis_id)
    assert report["config"]["basis"] == basis


@pytest.mark.parametrize("domain, basis, message", [
    # ``reduction`` was another name for ``auto``; the domain's own basis is ``auto`` only
    ("ball", "reduction",
     "unknown basis 'reduction': auto (the domain's own basis, else poly(deg=2)) or poly"),
    (f"worm({math.pi!r})", "reduction", "unknown basis 'reduction': auto"),
    ("ball", "cubic", "unknown basis 'cubic': auto (the domain's own basis, else poly(deg=2)) or poly"),
    (f"worm({math.pi!r})", "cubic", "unknown basis 'cubic': auto"),
], ids=["ball-reduction", "worm-reduction", "ball-unknown", "worm-unknown"])
def test_basis_field_errors_exit_2(tmp_path, capsys, domain, basis, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": domain, "basis": basis, "samples": 4}))
    assert run_cli(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "config error: " + message in capsys.readouterr().err
    assert not (tmp_path / "estimate.json").exists()


def _const(value):
    return {"op": "const", "value": value}


def test_user_domain_with_custom_metric(tmp_path, capsys):
    # an entries spec in the metric field works on every registry key, the user key included
    doubled = {"entries": [[_const(2.0), _const(0.0)], [_const(0.0), _const(2.0)]]}
    for domain in ("ball", "ellipsoid(1,2)", f"worm({math.pi!r})", "user"):
        params = _USER_BALL if domain == "user" else {}
        eigs = {}
        for label, metric in (("euclidean", "euclidean"), ("doubled", doubled)):
            cfg_path = tmp_path / f"{label}.json"
            cfg_path.write_text(json.dumps({"domain": domain, "domain_params": params, "metric": metric}))
            out = tmp_path / label
            assert run_cli(["levi", "--config", str(cfg_path), "--samples", "3", "--out", str(out)]) == 0
            report = json.loads((out / "levi.json").read_text())
            assert report["config"]["metric"] == metric
            eigs[label] = [r["levi_eigenvalues"][0] for r in report["records"]]
        # g = 2 delta halves the Levi eigenvalues on unit tangent vectors
        assert eigs["doubled"] == pytest.approx([0.5 * e for e in eigs["euclidean"]], rel=1e-9), domain
        # the spec has no second way in through domain_params
        cfg_path.write_text(json.dumps({"domain": domain, "domain_params": dict(params, metric=doubled)}))
        assert run_cli(["levi", "--config", str(cfg_path), "--samples", "3", "--out", str(out)]) == 2
        assert "config error: domain_params reads no metric" in capsys.readouterr().err


@pytest.mark.parametrize("metric", [
    {"entries": [[_const(1.0)]]},
    {"rows": [[_const(1.0), _const(0.0)], [_const(0.0), _const(1.0)]]},
    {"entries": [[_const(1.0), {"op": "nope"}], [_const(0.0), _const(1.0)]]},
    "worm_kahler",
])
def test_user_domain_with_bad_metric_exits_2(tmp_path, capsys, metric):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": "user", "domain_params": _USER_BALL, "metric": metric}))
    assert run_cli(["levi", "--config", str(cfg_path), "--samples", "3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "domain_params" not in err
    # the registry keys belong to unknown-key errors only
    assert "known keys" not in err and "registry keys" not in err


@pytest.mark.parametrize("domain", ["ball", f"worm({math.pi!r})"], ids=["ball", "worm-pi"])
@pytest.mark.parametrize("entries, message", [
    # these once exited 1 with a MetricError, a Gram-Schmidt ValueError or ProjectionError,
    # and a LinAlgError from the first frame built
    ([[1.0, 0.5], [0.0, 1.0]], "metric 'user_metric' not Hermitian at"),
    ([[-1.0, 0.0], [0.0, 1.0]], "metric 'user_metric' is not positive definite at the interior witness"),
    ([[0.0, 0.0], [0.0, 1.0]], "metric 'user_metric' is not positive definite at the interior witness"),
], ids=["not-hermitian", "indefinite", "singular"])
def test_a_metric_bad_at_the_interior_witness_exits_2(tmp_path, capsys, domain, entries, message):
    metric = {"entries": [[_const(v) for v in row] for row in entries]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": domain, "metric": metric, "samples": 4}))
    assert run_cli(["forms", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "forms.json").exists()


@pytest.mark.parametrize("command", ["forms", "estimate"])
def test_a_metric_bad_at_a_boundary_point_exits_2(tmp_path, capsys, command):
    # g_12 = 2 Re z1 passes at the witness 0 but is indefinite where |Re z1| > 1/2, and the first
    # frame built there reads |dbar r|^2 = -1.28e+02
    off = {"op": "mul", "args": [_const(2.0), {"op": "re", "arg": {"op": "coord", "index": 0}}]}
    metric = {"entries": [[_const(1.0), off], [off, _const(1.0)]]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": "ball", "metric": metric, "samples": 5}))
    assert run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: metric 'user_metric' is not positive definite at the boundary point [")
    assert re.search(r"least eigenvalue -\d\.\d{3}e-\d\d\n$", err), err
    assert not (tmp_path / f"{command}.json").exists()


def test_a_metric_indefinite_where_d_r_is_large_exits_2(tmp_path, capsys):
    # g_22 = 1 - 1.5 |z1|^2 is indefinite where |z1|^2 > 2/3, but |dbar r|^2 can stay above tolerance
    # there: at seeds 0, 18, 20, 26 and 28 the tangent Gram-Schmidt of levi_data is the first to fail
    g22 = {"op": "add", "args": [_const(1.0), {"op": "mul", "args": [
        _const(-1.5), {"op": "abs2", "arg": {"op": "coord", "index": 0}}]}]}
    metric = {"entries": [[_const(1.0), _const(0.0)], [_const(0.0), g22]]}
    cfg_path = tmp_path / "cfg.json"
    codes = {}
    for seed in range(40):
        cfg_path.write_text(json.dumps({"domain": "ball", "metric": metric, "samples": 12, "seed": seed}))
        codes[seed] = run_cli(["levi", "--config", str(cfg_path), "--out", str(tmp_path / str(seed))])
        err = capsys.readouterr().err
        if codes[seed] == 2:
            assert err.startswith("config error: metric 'user_metric' is not positive definite at the "
                                  "boundary point ["), err
    assert set(codes.values()) <= {0, 2}
    assert all(codes[seed] == 2 for seed in (0, 18, 20, 26, 28))


@pytest.mark.parametrize("domain", ["ball", "ellipsoid(1,2)", "user"])
def test_unsupported_metric_name_exits_2(tmp_path, capsys, domain):
    cfg_path = tmp_path / "cfg.json"
    params = _USER_BALL if domain == "user" else {}
    cfg_path.write_text(json.dumps({"domain": domain, "domain_params": params}))
    code = run_cli(["levi", "--config", str(cfg_path), "--metric", "worm_kahler",
                    "--samples", "3", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    key = domain.split("(")[0]
    assert f"config error: {key} supports metrics ['euclidean'], got 'worm_kahler'" in err
    assert not (tmp_path / "levi.json").exists()


# r = |z1|^2 - 1 as a user expression tree in C^1
DISC_TREE = {"op": "add", "args": [{"op": "abs2", "arg": {"op": "coord", "index": 0}},
                                   {"op": "const", "value": -1.0}]}


@pytest.mark.parametrize("command", ["levi", "forms", "check", "estimate"])
@pytest.mark.parametrize("config, given", [
    ({"domain": "ball(1)"}, "ball(n)), got 1.0"),
    ({"domain": "ball(1)", "domain_params": {"signed": True}}, "ball(n)), got 1.0"),
    ({"domain": "ball(0)"}, "ball(n)), got 0.0"),
    ({"domain": "ball(2.5)"}, "ball(n)), got 2.5"),
    ({"domain": "ellipsoid(2)"}, "the count of ellipsoid axes), got 1"),
    ({"domain": "user", "domain_params": {"n": 1, "r": DISC_TREE, "box": [[-1.5, 1.5]] * 2,
                                          "interior": [[0.0, 0.0]]}},
     "domain_params.n of a user domain), got 1"),
    ({"domain": "user", "domain_params": dict(_USER_BALL, n=2.7)},
     "domain_params.n of a user domain), got 2.7"),
], ids=["ball-1", "signed-ball-1", "ball-0", "ball-2.5", "ellipsoid-1-axis", "user-1", "user-2.7"])
def test_a_domain_dimension_that_is_not_an_integer_of_at_least_2_exits_2(tmp_path, capsys, command,
                                                                          config, given):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(config, samples=3)))
    assert run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: n must be an integer >= 2 ({given}\n"
    assert not (tmp_path / "out").exists()


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
    report = _written(cmd_levi(load_config(None, {"domain": "ball", "samples": 12, "out": str(tmp_path)})),
                      tmp_path)
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
    for text in (_report_text(value), _report_text(value, indent=False), json.dumps(_jsonify(value))):
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
    # a non-finite float is written as the string of its repr, as _jsonify makes it
    assert _report_text(tree) == json.dumps(_jsonify(tree), sort_keys=True, indent=1)
    assert _report_text(tree, indent=False) == json.dumps(_jsonify(tree))


# the values a command builds: complex numbers (NaN and infinite parts too), NumPy scalars,
# real and complex arrays, tuples and nested dicts, over the JSON leaves above
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
_ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.complex128]),
                     hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3))
_RAW_LEAVES = (_LEAVES | _FLOATS | st.builds(complex, _FLOATS, _FLOATS) | _FLOATS.map(np.float64)
               | st.floats(width=32).map(np.float32) | st.integers(-(2**63), 2**63 - 1).map(np.int64)
               | st.builds(complex, _FLOATS, _FLOATS).map(np.complex128) | _ARRAYS)
_RAW_TREES = st.recursive(_RAW_LEAVES, lambda kids: st.lists(kids, max_size=4)
                          | st.lists(kids, max_size=4).map(tuple)
                          | st.dictionaries(_STRINGS, kids, max_size=4), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_RAW_TREES)
@example({"z": [complex(math.nan, -math.inf), complex(-0.0, 5e-324)], "w": (np.float32(0.1), np.int64(-7)),
          "a": np.array([[1.5, math.nan], [-math.inf, -0.0]]), "c": np.array([complex(math.inf, 1.0)]),
          "e": np.zeros((2, 0)), "n": {"d": {"x": np.float64(math.inf)}, "t": ()}})
@example(complex(1.0, -2.0))
@example(np.array([]))
def test_report_text_of_a_raw_tree_is_json_dumps_of_its_json_form(tree):
    plain = _jsonify(tree)
    assert _report_text(tree) == json.dumps(plain, sort_keys=True, indent=1)
    assert _report_text(tree, indent=False) == json.dumps(plain)


def test_make_report_keeps_the_command_values_themselves():
    cfg = load_config(None, {})
    records, summary = [{"z": [1j]}], {"n": np.float64(2.0)}
    report = make_report("forms", cfg, records, summary)
    assert report["records"] is records and report["summary"] is summary
    assert report["config"] == cfg.to_dict()


@pytest.mark.parametrize("command, config", [
    (cmd_forms, {"domain": f"worm({math.pi!r})", "samples": 4, "special_samples": 4}),
    (cmd_levi, {"domain": "ellipsoid(1,2)", "samples": 6}),
    (cmd_check, {"domain": f"worm({math.pi!r})", "samples": 6, "basis_degree": 4, "eta": 0.4}),
    (cmd_estimate, {"domain": "ellipsoid(1,2)", "samples": 6}),
    # null sites: each certificate holds flat lists of multipliers
    (cmd_estimate, {"domain": f"worm({math.pi!r})", "samples": 4, "basis_degree": 4}),
    (cmd_worm_bench, {"domain": f"worm({math.pi!r})", "samples": 4}),
    (cmd_selftest, {}),
], ids=["forms", "levi", "check", "estimate", "estimate-worm", "worm-bench", "selftest"])
def test_write_report_writes_json_dumps_with_indent_1(tmp_path, command, config):
    report = command(load_config(None, config))
    path = write_report(report, tmp_path)[0]
    assert path.read_text() == json.dumps(_jsonify(report), sort_keys=True, indent=1) + "\n"
