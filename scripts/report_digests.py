"""Print the SHA-256 of each CLI report at small fixed configurations.

Usage: ``python3 scripts/report_digests.py`` (no options).  Every command
runs in process through ``dfindex.cli.main`` in a temporary directory, and
one ``command sha256`` line is printed per report.  Reports are
deterministic, so two checkouts produce the same lines exactly when every
report is byte-identical: run the script in both and diff the output.
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

from dfindex import cli  # noqa: E402

WORM_PI = f"worm({math.pi!r})"

# (label, subcommand, config): small enough that the whole script takes seconds
RUNS = [
    ("forms", "forms", {"domain": WORM_PI, "samples": 8, "special_samples": 10}),
    ("forms-kahler", "forms", {"domain": WORM_PI, "metric": "worm_kahler", "samples": 8,
                               "special_samples": 10}),
    ("levi", "levi", {"domain": "ellipsoid(1,2)", "samples": 20}),
    ("check", "check", {"domain": WORM_PI, "samples": 10, "basis_degree": 8, "eta": 0.4}),
    ("estimate", "estimate", {"domain": WORM_PI, "samples": 10, "basis_degree": 8}),
    ("worm-bench", "worm-bench", {"domain": WORM_PI, "samples": 10}),
    ("selftest", "selftest", {}),
    # off the worm: a domain without a basis or sampler of its own
    ("check-ellipsoid", "check", {"domain": "ellipsoid(1,2)", "samples": 10, "eta": 0.4}),
    ("estimate-ellipsoid", "estimate", {"domain": "ellipsoid(1,2)", "samples": 10}),
]


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
            digest = hashlib.sha256((out / f"{command}.json").read_bytes()).hexdigest()
            print(f"{label} {digest}")


if __name__ == "__main__":
    main()
