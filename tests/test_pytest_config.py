"""The repository's pytest settings, exercised on a throwaway test module."""

import os
import re
import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Warnings are errors under the repository's config; one that Hypothesis
    # raises while it reports a falsifying example must not stop the run.
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example" in out


REACH = '''
import pytest

from tfa.cli import main
from tfa.metrics import accuracy


def test_through_the_cli():
    assert main(["report", "--in", "missing.json", "--format", "csv"]) == 3


def test_outside_the_cli():
    with pytest.raises(ValueError):
        accuracy([1], [1, 2])
'''


def test_the_reach_plugin_splits_raises_by_the_cli_on_the_stack(tmp_path):
    (tmp_path / "test_reach.py").write_text(REACH)
    root = CONFIG.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "-p", "raise_reach", "-q", "test_reach.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "2 passed" in run.stdout, run.stdout + run.stderr

    def line_of(name, text):
        lines = (root / "src" / "tfa" / name).read_text().splitlines()
        return f"src/tfa/{name}:{lines.index(text) + 1}"

    rows = dict(reversed(row.split()) for row in run.stdout.splitlines()
                if row.split()[:1] in (["cli"], ["test"], ["never"]))
    assert rows[line_of("cli.py", "            raise FormatError(str(e)) from e")] == "cli"
    assert rows[line_of("metrics.py",
                        '        raise ValueError("predictions and truths differ in length")')
                ] == "test"
    assert rows[line_of("cli.py", "    raise SystemExit(main())")] == "never"
    summary = re.search(r"(\d+) raise statements: (\d+) cli, (\d+) test-only, (\d+) never run",
                        run.stdout)
    total, cli, test, never = map(int, summary.groups())
    assert total == len(rows) == cli + test + never and cli >= 1 and test >= 1
