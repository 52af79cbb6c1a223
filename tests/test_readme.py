"""The README's "Library use" example runs and shows what it says."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    """The first ```python block after the "## Library use" heading."""
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs_as_documented():
    names = {}
    exec(compile(library_use_block(), str(README), "exec"), names)
    sol = names["sol"]
    np.testing.assert_array_equal(sol.point.z, [-1.0])
    np.testing.assert_array_equal(sol.point.mu, [1.0])
    np.testing.assert_array_equal(sol.active.indices, [0])
    # z = d on the active row, so dz/dd = 1 and mu = -z moves by -1
    np.testing.assert_allclose(names["dz"], [1.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(names["dmu"], [-1.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(names["bundle"].grad_d, [1.0], rtol=0, atol=1e-14)
