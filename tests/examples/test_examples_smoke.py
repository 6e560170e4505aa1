"""Smoke tests: the example scripts must run clean from the command line.

Each example is executed the way a reader would run it — as a subprocess
with ``src`` on the path — so import errors, API drift, or assertion
failures inside the scripts fail CI instead of the first reader.  Every
example is seeded, so its stdout is also compared byte for byte with
``expected/<name>.txt``: a change that moves an example's output says so
in the diff of that file.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXPECTED = Path(__file__).resolve().parent / "expected"
EXAMPLES = sorted(path.stem for path in (REPO_ROOT / "examples").glob("*.py"))


@functools.cache
def run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / f"{name}.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=REPO_ROOT,
    )


@pytest.mark.parametrize("name", EXAMPLES)
def test_output_is_pinned(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (EXPECTED / f"{name}.txt").read_text()


class TestQuickstart:
    @pytest.fixture(scope="class")
    def result(self):
        return run_example("quickstart")

    def test_runs_clean(self, result):
        assert result.returncode == 0, result.stderr

    def test_covers_every_layer(self, result):
        for token in (
            "produced 4000 ride events",
            "flink job ran to quiescence",
            "pinot ingested",
            "city leaderboard (PrestoSQL over Pinot)",
        ):
            assert token in result.stdout

    def test_observability_section_reports(self, result):
        assert "one traced record" in result.stdout
        assert "(append -> queryable)" in result.stdout
        # The SLO dashboard's verdict for the quickstart target.
        assert "OK" in result.stdout
        assert "VIOLATED" not in result.stdout


class TestSurgePricing:
    def test_runs_clean(self):
        result = run_example("surge_pricing")
        assert result.returncode == 0, result.stderr
        assert "multiplier" in result.stdout
