"""The benchmark's own checks must catch a bad run.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dfindex import (  # noqa: E402
    WormParams,
    collect_sites,
    feasibility_search,
    sgamma_points,
    worm_domain,
    worm_reduction_basis,
)
from dfindex.cli import load_config  # noqa: E402

from run import REF_FIRST_S, REF_SHARE, Session, relative_wall, timed_runs  # noqa: E402
from workloads import WORKLOADS, certificate_problems  # noqa: E402

ETA = 0.3


@pytest.fixture(scope="module")
def small_problem():
    """40 S_gamma sites on worm(pi) with a degree-4 basis and a feasible certificate."""
    domain = worm_domain(WormParams(gamma=math.pi))
    basis = worm_reduction_basis(gamma=math.pi, degree=4, spread=0.99)
    sites, _ = collect_sites(domain, sgamma_points(domain.params["worm"], 40, spread=0.99), basis)
    cert = feasibility_search(domain, ETA, basis, sites, C_floor=1e-4, box_radius=50.0)
    assert cert.feasible
    return sites, cert.to_json_dict(seed=0)


def estimate_report(sites, cert):
    return {
        "config": {"domain": f"worm({math.pi!r})", "domain_params": {}, "tol_eta": 0.01,
                   "c_floor": 1e-4},
        "records": [{"eta": cert["eta"], "feasible": True, "status": cert["status"]}],
        "summary": {"eta_lo": 0.495, "eta_hi": 0.5027, "n_sites": len(sites),
                    "certificates": {f"{cert['eta']:.6f}": cert}},
    }


def fake_cli(reports, codes=None):
    """A stand-in for ``dfindex.cli.main`` that writes the given reports in turn."""
    calls = []

    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        report = reports[min(len(calls), len(reports) - 1)]
        (out / f"{argv[0]}.json").write_text(json.dumps(report, sort_keys=True))
        code = codes[len(calls)] if codes else 0
        calls.append(argv)
        return code

    return main


def session_for(workload, tmp_path, cli_main, sites=None):
    session = Session(WORKLOADS[workload], 7, tmp_path, cli_main, load_config)
    session.sites = sites
    return session


def scaled(cert, factor):
    return {**cert, "coeffs": [factor * c for c in cert["coeffs"]]}


def test_certificate_recomputed_from_sites(small_problem):
    sites, cert = small_problem
    assert certificate_problems(cert, sites, 1e-4) == []
    assert certificate_problems(scaled(cert, 3.0), sites, 1e-4)


def test_scaled_certificate_counts_as_failed(small_problem, tmp_path):
    sites, cert = small_problem
    honest = estimate_report(sites, cert)
    session = session_for("estimate-worm-pi", tmp_path, fake_cli([honest]), sites)
    assert session.run()[1] == []
    bad = estimate_report(sites, scaled(cert, 3.0))
    session = session_for("estimate-worm-pi", tmp_path, fake_cli([bad]), sites)
    problems = session.run()[1]
    assert any("below c_floor" in p for p in problems)
    assert (session.attempted, session.failed) == (1, 1)


SELFTEST_OK = {"config": {}, "records": [],
               "summary": {"passed": True, "n_checks": 45, "failed": []}}


def test_changed_report_byte_counts_as_failed(tmp_path):
    changed = {**SELFTEST_OK, "records": [{"residual": 1e-16}]}
    session = session_for("selftest", tmp_path, fake_cli([SELFTEST_OK, SELFTEST_OK, changed]))
    assert [session.run()[1] for _ in range(2)] == [[], []]
    assert session.run()[1] == ["report bytes differ from the first run"]
    assert (session.attempted, session.failed) == (3, 1)


def test_nonzero_exit_counts_as_failed(tmp_path):
    session = session_for("selftest", tmp_path, fake_cli([SELFTEST_OK], codes=[0, 1]))
    session.run()
    assert session.run()[1][0].startswith("exit code 1")
    assert (session.attempted, session.failed) == (2, 1)


def test_raising_run_counts_as_failed(tmp_path):
    def boom(argv):
        raise RuntimeError("solver crashed")

    session = session_for("selftest", tmp_path, boom)
    assert session.run()[1] == ["raised RuntimeError: solver crashed"]
    assert (session.attempted, session.failed) == (1, 1)


def test_selftest_check_needs_every_invariant(tmp_path):
    short = {**SELFTEST_OK, "summary": {"passed": True, "n_checks": 44, "failed": []}}
    session = session_for("selftest", tmp_path, fake_cli([short]))
    assert session.run()[1] == ["expected 45 checks, got 44"]


def test_reference_blocks_run_before_and_after_every_timed_run():
    calls = []

    def reference(seconds):
        calls.append(seconds)
        return [0.1] * 2

    walls, blocks = timed_runs(lambda: 4.0, reference, seconds=0.0)
    assert walls == [4.0, 4.0, 4.0]
    assert calls == pytest.approx([REF_FIRST_S] + [REF_SHARE * 4.0] * 3)
    assert len(blocks) == 8


def test_a_slower_machine_leaves_the_ratio_alone():
    def ratio_at(slowdown):
        return relative_wall(*timed_runs(lambda: 3.0 * slowdown,
                                         lambda seconds: [0.1 * slowdown] * 2, seconds=0.0))

    assert ratio_at(1.0) == pytest.approx(30.0)
    assert ratio_at(1.5) == pytest.approx(ratio_at(1.0))
