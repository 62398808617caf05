"""Set-up work of one workload in a fresh interpreter.

Imports the CLI, resolves the workload's config and builds its domain and
basis, then exits.  ``run.py`` times whole runs of this script.

Usage: python3 bench/setup_probe.py CONFIG_JSON SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(config_path, seed):
    from dfindex import cli
    from workloads import build_domain_and_basis

    build_domain_and_basis(cli.load_config(config_path, {"seed": int(seed)}))


if __name__ == "__main__":
    main(*sys.argv[1:])
