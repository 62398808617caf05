"""Print the SHA-256 of each CLI report at small fixed configurations.

Usage: ``python3 scripts/report_digests.py`` (no options).  Every command
runs in process through ``dfindex.cli.main`` in a temporary directory, and
one ``label sha256`` line is printed per report, plus one ``label.csv
sha256`` line per CSV mirror.  The last lines hash the records of invariant
suites at sample counts and seeds the selftest report does not run:
``suites`` those of the tests' random-instance suites, ``suites-worm`` the
boundary and worm suites at larger counts.  Reports are deterministic,
so two checkouts produce the same lines exactly when every report (and every
suite residual) is byte-identical: run the script in both and diff the
output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dfindex import cli, diagnostics  # noqa: E402

WORM_PI = f"worm({math.pi!r})"
# r = |z1|^2 + |z2|^4 + 0.1 Re(z1 z2) - 1 as a ``user`` expression tree (the benchmark's forms-user domain)
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

# g = I + a (x) conj(a) with a = (z2/2, z2/2), a metric that is not Kaehler: g_11 = g_22 = 1 + Q and
# g_12 = g_21 = Q, where Q = |z2|^2 / 4
_Q = {"op": "mul", "args": [{"op": "const", "value": 0.25}, {"op": "abs2", "arg": {"op": "coord", "index": 1}}]}
_D = {"op": "add", "args": [{"op": "const", "value": 1.0}, _Q]}
NONKAHLER = {"entries": [[_D, _Q], [_Q, _D]]}

# (label, subcommand, config): small enough that the whole script takes seconds
RUNS = [
    ("forms", "forms", {"domain": WORM_PI, "samples": 8, "special_samples": 10}),
    ("forms-kahler", "forms", {"domain": WORM_PI, "metric": "worm_kahler", "samples": 8,
                               "special_samples": 10}),
    ("levi", "levi", {"domain": "ellipsoid(1,2)", "samples": 20, "format": "csv"}),
    ("check", "check", {"domain": WORM_PI, "samples": 10, "basis_degree": 8, "eta": 0.4}),
    ("estimate", "estimate", {"domain": WORM_PI, "samples": 10, "basis_degree": 8}),
    # the one estimate under a metric other than the Euclidean one
    ("estimate-kahler", "estimate", {"domain": WORM_PI, "metric": "worm_kahler", "samples": 10,
                                     "basis_degree": 8}),
    # one basis_spread places both the S_gamma sites and the basis
    ("estimate-spread", "estimate", {"domain": WORM_PI, "samples": 10, "basis_degree": 12,
                                     "basis_spread": 0.95}),
    ("worm-bench", "worm-bench", {"domain": WORM_PI, "samples": 10}),
    ("worm-bench-2pi", "worm-bench", {"domain": f"worm({2 * math.pi!r})", "domain_params": {"t": 6.0},
                                      "samples": 12, "eta": 0.2}),
    # fiber scales the runs above do not reach: s = 4 at worm(1.5 pi), and an explicit s that passes
    ("worm-bench-1.5pi", "worm-bench", {"domain": f"worm({1.5 * math.pi!r})", "domain_params": {"t": 2.5},
                                        "samples": 8}),
    ("worm-bench-s16", "worm-bench", {"domain": WORM_PI, "domain_params": {"s": 16.0}, "samples": 8}),
    # the {"entries": ...} metric path, on a metric that is not Kaehler
    ("forms-nonkahler", "forms", {"domain": WORM_PI, "metric": NONKAHLER, "samples": 8,
                                  "special_samples": 10}),
    ("estimate-nonkahler", "estimate", {"domain": WORM_PI, "metric": NONKAHLER, "samples": 10,
                                        "basis_degree": 8}),
    ("selftest", "selftest", {}),
    # off the worm: a domain without a basis or sampler of its own
    ("check-ellipsoid", "check", {"domain": "ellipsoid(1,2)", "samples": 10, "eta": 0.4}),
    ("estimate-ellipsoid", "estimate", {"domain": "ellipsoid(1,2)", "samples": 10}),
    # the off-worm sampler on a user expression tree
    ("forms-user", "forms", {"domain": "user", "metric": "euclidean", "samples": 200,
                             "domain_params": {"n": 2, "r": USER_R, "box": [[-1.3, 1.3]] * 4,
                                               "interior": [[0.0, 0.0], [0.0, 0.0]]}}),
]

# label -> (suite, arguments): first the configurations of tests/test_diagnostics.py,
# test_geometry.py and test_acceptance.py::test_04, then the boundary and worm suites at counts
# that neither the tests nor selftest run
SUITES = {
    "suites": [
        ("jets_suite", {"count": 20, "seed": 3}),
        ("h3_identity_suite", {"count": 30, "seed": 7}),
        ("h3_identity_suite", {"count": 200, "seed": 17}),
        ("structural_suite", {"count": 10, "seed": 9}),
    ],
    "suites-worm": [
        ("boundary_suite", {"samples": 6}),
        ("worm_reference_suite", {"count": 50}),
        ("margin_equivalence_suite", {"count": 40}),
    ],
}


def suites_digest(calls):
    rows = [record.row() for name, kwargs in calls for record in getattr(diagnostics, name)(**kwargs)]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for label, command, config in RUNS:
            out = Path(tmp) / label
            out.mkdir()
            config_path = out / "config.json"
            config_path.write_text(json.dumps(config))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(config_path), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{label}: dfindex {command} exited {code}")
            files = [(label, f"{command}.json")]
            if config.get("format") == "csv":
                files.append((f"{label}.csv", f"{command}.csv"))
            for name, file in files:
                print(f"{name} {hashlib.sha256((out / file).read_bytes()).hexdigest()}")
    for label, calls in SUITES.items():
        print(f"{label} {suites_digest(calls)}")


if __name__ == "__main__":
    main()
