"""Batch and layout invariance at numpy's other SIMD dispatch level.

np.exp and np.power give different bits at the AVX2 (X86_V3) and
AVX-512 (X86_V4) levels, so every pinned Hodgkin-Huxley digest holds at
one level alone.  The invariance properties, the kernels' agreement with
the frozen reference computed at the same level, and the exit search's
digests at three block widths (their models call neither ufunc) must hold
at both: the test reruns them in a fresh interpreter with the AVX-512
level switched off, since numpy picks its dispatch level once, at import.
"""

import os
import subprocess
import sys

import pytest

import sdeinvariance

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x, which names no X86_V4 level
    from numpy.core._multiarray_umath import __cpu_features__

SRC = os.path.dirname(os.path.dirname(sdeinvariance.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
BELOW_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
INVARIANCE_TESTS = (
    "test_ensemble.py::TestDeterminism::test_batch_size_does_not_change_paths",
    "test_ensemble.py::TestDeterminism::"
    "test_exits_inside_and_at_the_ends_of_a_block",
    "test_ensemble.py::TestDeterminism::test_one_sided_box_with_slack",
    "test_hodgkin_huxley.py::TestKernelBits",
    "test_hodgkin_huxley.py::TestLayout",
)


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy reports no AVX-512 level on this host")
def test_invariance_holds_below_avx512():
    env = dict(os.environ, **BELOW_AVX512, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    level = subprocess.run(
        [sys.executable, "-c", "from numpy._core._multiarray_umath import "
         "__cpu_features__ as f; print(f['X86_V4'])"],
        capture_output=True, text=True, env=env, timeout=60)
    assert level.stdout.strip() == "False", level.stderr
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *INVARIANCE_TESTS],
        capture_output=True, text=True, env=env, cwd=TESTS, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "13 passed" in done.stdout
