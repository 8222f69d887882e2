"""SVG rendering tests."""

import re

import numpy as np
import pytest

from omitbench.svgmap import render_line
from omitbench.sweeps import SweepTrace


@pytest.mark.parametrize("db", [False, True], ids=["linear", "db"])
def test_flat_trace_renders_on_a_padded_axis(db):
    # A constant magnitude has no y range; the axis is widened by 0.5 on
    # each side, so the line sits mid-plot instead of dividing by zero.
    trace = SweepTrace(np.linspace(-1e3, 1e3, 51), np.full(51, 0.56), {"scheme": "red"})
    svg = render_line(trace, db=db)
    points = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    xy = np.array([p.split(",") for p in points.split()], dtype=float)
    assert xy.shape == (51, 2)
    assert np.all(np.isfinite(xy))
    assert np.all(xy[:, 1] == xy[0, 1])
    assert xy[0, 1] == pytest.approx(40 + 360 / 2)
