"""The README's code runs and gives the values its comments state."""

from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading):
    """The first ```python block under the ``## heading`` of the README."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_quickstart_runs_and_gives_its_commented_values():
    names = {}
    exec(compile(readme_block("Library quickstart"), "README quickstart", "exec"), names)
    report = names["report"]
    assert np.allclose(report.sld_fisher, np.diag([2.0, 2.0]), rtol=0.0, atol=1e-12)
    assert np.allclose(np.abs(report.berry_curvature), [[0.0, 2.0], [2.0, 0.0]],
                       rtol=0.0, atol=1e-12)
    assert report.betas == pytest.approx((1.0,), abs=1e-12)
    assert report.cr_js == pytest.approx(4.0, abs=1e-12)
    assert report.sld_bound(report.sld_fisher) == pytest.approx(2.0, abs=1e-12)
    assert names["flag"] is True
