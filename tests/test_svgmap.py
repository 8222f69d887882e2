"""SVG rendering tests."""

import re

import numpy as np
import pytest

from omitbench.svgmap import render_heatmap, render_line
from omitbench.sweeps import SweepMap, SweepTrace


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


def test_one_row_map_renders_on_a_padded_axis():
    # A one-row map has no detuning range; like a flat trace's, its axis is
    # widened by 0.5 Hz on each side, so the ticks are finite and the row's
    # detuning sits mid-axis.
    delta_hz = -3.8e6
    smap = SweepMap(np.array([2 * np.pi * delta_hz]), np.linspace(1.0, 2.0, 11),
                    np.linspace(0.2, 0.9, 11)[None, :], {"scheme": "red"})
    svg = render_heatmap(smap)
    assert "nan" not in svg
    ticks = re.findall(r'<line x1="95" y1="([^"]+)" x2="100"', svg)
    assert len(ticks) == 5
    labels = re.findall(r'text-anchor="end" fill="#333">([^<]+)</text>', svg)
    assert labels[2] == f"{delta_hz:.6g}"
