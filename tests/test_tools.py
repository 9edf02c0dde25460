"""tools/output_digests.py keeps exit code 1 for "the outputs differ": any
other failure exits 2 with one line on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def _digests(*args):
    env = dict(os.environ, PYTHONPATH=str(TOOL.parents[1] / "src"))
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("case", ["unknown_rev", "out_dir_not_empty"])
def test_failure_that_is_no_difference_exits_2(tmp_path, case):
    out = tmp_path / "out"
    if case == "out_dir_not_empty":
        out.mkdir()
        (out / "left_over").write_text("")
    rev = "no-such-rev" if case == "unknown_rev" else "HEAD"
    done = _digests("--against", rev, out)
    assert done.returncode == 2
    assert done.stdout == "" and len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("output_digests: ")
    assert ("no-such-rev" if case == "unknown_rev" else "is not empty") in done.stderr
    assert list(tmp_path.iterdir()) == ([out] if case == "out_dir_not_empty" else [])
