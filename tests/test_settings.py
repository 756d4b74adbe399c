"""The suite's pytest settings report a failing test as a failure."""

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(pytester):
    # A subprocess: the hypothesis plugin imports its patching module on the
    # first failure, and once this process has imported it no warning fires.
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    path = pytester.makepyfile(test_given="""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess(path, "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == pytest.ExitCode.TESTS_FAILED
