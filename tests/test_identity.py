"""The digests of ``identity_digest.py``'s fixed desk-scale run equal the committed baseline."""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def digests(lines):
    """{artefact name: SHA-256}, in output order."""
    return {name: sha for sha, name in (line.split("  ", 1) for line in lines)}


def test_identity_digests_equal_the_committed_baseline():
    """A subprocess runs the script, which pins the BLAS threads before numpy loads. On
    the baseline's host every artefact whose digest moved is named; on another host, whose
    BLAS kernels may round products in another order, the test skips."""
    result = subprocess.run([sys.executable, str(HERE / "identity_digest.py")],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    host, *lines = result.stdout.splitlines()
    baseline_host, *baseline_lines = (HERE / "identity_digests.txt").read_text().splitlines()
    if host != baseline_host:
        pytest.skip(f"the baseline's host is {baseline_host!r}, this one is {host!r}")
    got, want = digests(lines), digests(baseline_lines)
    assert list(got) == list(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"{len(moved)} of {len(want)} artefacts moved: {', '.join(moved)}"
