"""Every report of ``scripts/report_digests.py`` is byte-identical to the committed digests.

A change that moves a report byte on purpose rewrites ``tests/report_digests.txt`` in the
same diff: ``python3 scripts/report_digests.py > tests/report_digests.txt``.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_report_digests_match_the_committed_lines():
    spec = importlib.util.spec_from_file_location("report_digests", ROOT / "scripts" / "report_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        script.main()
    got = printed.getvalue().splitlines()
    committed = (ROOT / "tests" / "report_digests.txt").read_text().splitlines()
    assert got == committed, ("report digests differ from tests/report_digests.txt\n"
                              "committed:\n  " + "\n  ".join(committed) + "\nnow:\n  " + "\n  ".join(got))
