import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_fails_alone(tmp_path):
    # Under the repo's warning filters, a failing @given test is one failure:
    # the run goes on to the next test and exits 1, not 3 (INTERNALERROR).
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "PASSED test_probe.py::test_after_the_failure" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
