"""Smoke tests: every shipped example runs to completion.

The heavyweight sweeps inside the examples are exercised by the
benchmarks; here we only assert that each script executes end to end
and prints its headline result -- catching API drift between the
library and its documentation surface.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

# (script, expected stdout fragment, rough time budget in seconds)
FAST_EXAMPLES = [
    ("quickstart.py", "broadcast", 120),
    ("model_validation.py", "fit residual RMS", 180),
]


@pytest.mark.parametrize("script,fragment,budget", FAST_EXAMPLES)
def test_example_runs(script, fragment, budget):
    path = os.path.join(EXAMPLES_DIR, script)
    result = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=budget,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert fragment in result.stdout


def test_all_examples_present_and_executable_syntax():
    """Every example at least compiles (the slow ones are not executed
    here; the benchmarks cover their code paths)."""
    scripts = sorted(
        f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")
    )
    assert scripts == [
        "broadcast_comparison.py", "collective_pipeline.py",
        "contention_study.py", "manycore_scaling.py", "model_validation.py",
        "quickstart.py",
    ]
    for script in scripts:
        path = os.path.join(EXAMPLES_DIR, script)
        with open(path) as fh:
            source = fh.read()
        compile(source, path, "exec")
        assert '"""' in source, f"{script} lacks a docstring"
        assert "__main__" in source, f"{script} lacks a main guard"
