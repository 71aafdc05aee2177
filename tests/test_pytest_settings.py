"""The pytest settings of ``pyproject.toml``, run on a session of their own."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_reports_its_example(pytester):
    # a fresh interpreter: Hypothesis imports libcst only to explain a
    # failure, and libcst warns only on its first import
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_ten(x):
            assert x < 10
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py")
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.stdout.fnmatch_lines(["*Falsifying example: test_below_ten(*"])
    result.assert_outcomes(failed=1)
