"""Opt-in pytest plugin: which ``raise`` statements in ``src/tfa`` a test run
reaches, and whether ``tfa.cli.main`` is on the stack when it does.

Run it over the whole suite (Tier-1 does not load it)::

    PYTHONPATH=src:tests python -m pytest -q -p raise_reach

The terminal summary lists every ``raise`` statement as ``cli`` (run at
least once under ``tfa.cli.main``), ``test`` (run, but only outside the
CLI) or ``never``, then the three counts. Only this process is traced:
code that tests run in child processes counts as not run. Tracing the
lines of ``tfa`` makes the suite 1.2-1.4 times as slow (2 cores).
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import tfa

_SRC = Path(tfa.__file__).parent   # the directory code objects name
_CLI = str(_SRC / "cli.py")


def _raise_lines() -> dict[str, set[int]]:
    """Every ``raise`` statement's first line, by absolute file name."""
    lines = {}
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines[str(path)] = {n.lineno for n in ast.walk(tree) if isinstance(n, ast.Raise)}
    return lines


class _Reach:
    def __init__(self):
        self.lines = _raise_lines()
        self.hits: dict[tuple[str, int], bool] = {}   # (file, line) -> under the CLI

    def _line(self, frame, event, _arg):
        if event == "line" and frame.f_lineno in self.lines[frame.f_code.co_filename]:
            key = (frame.f_code.co_filename, frame.f_lineno)
            if not self.hits.get(key):
                self.hits[key] = self._under_cli(frame)
        return self._line

    @staticmethod
    def _under_cli(frame) -> bool:
        while frame is not None:
            if frame.f_code.co_name == "main" and frame.f_code.co_filename == _CLI:
                return True
            frame = frame.f_back
        return False

    def call(self, frame, _event, _arg):
        return self._line if frame.f_code.co_filename in self.lines else None

    def report(self) -> tuple[list[str], dict[str, int]]:
        rows, counts = [], {"cli": 0, "test": 0, "never": 0}
        for path, lines in self.lines.items():
            for line in sorted(lines):
                hit = self.hits.get((path, line))
                kind = "never" if hit is None else "cli" if hit else "test"
                counts[kind] += 1
                rows.append(f"{kind:<6} {Path(path).relative_to(_SRC.parent.parent)}:{line}")
        return rows, counts


_reach = _Reach()


def pytest_configure(config):
    sys.settrace(_reach.call)
    threading.settrace(_reach.call)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    rows, counts = _reach.report()
    terminalreporter.section("raise statements reached")
    for row in rows:
        terminalreporter.write_line(row)
    terminalreporter.write_line(
        f"{sum(counts.values())} raise statements: {counts['cli']} cli, "
        f"{counts['test']} test-only, {counts['never']} never run")
