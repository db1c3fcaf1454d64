import sys
import warnings

import numpy as np
import pytest

from sdeinvariance import svgplot
from sdeinvariance.svgplot import line_chart


def test_minimal_chart_structure():
    x = np.linspace(0.0, 1.0, 20)
    svg = line_chart(x, [("signal", np.sin(x))], title="demo",
                     x_label="t", y_label="y")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "demo" in svg
    assert "signal" in svg


def test_output_is_deterministic():
    x = np.linspace(0.0, 5.0, 300)
    series = [("a", np.cos(x)), ("b", 0.5 * x)]
    assert line_chart(x, series) == line_chart(x, series)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        line_chart([0.0, 1.0], [("bad", [1.0, 2.0, 3.0])])


def test_long_series_get_decimated():
    x = np.linspace(0.0, 1.0, 60_000)
    svg = line_chart(x, [("dense", np.sin(40 * x))])
    assert len(svg) < 200_000
    assert "NaN" not in svg


def test_nonfinite_values_do_not_poison_scaling():
    x = np.linspace(0.0, 1.0, 10)
    y = np.sin(x)
    y[3] = np.nan
    svg = line_chart(x, [("holey", y)])
    assert svg.startswith("<svg")
    assert "nan" not in svg.lower()  # bad points are dropped, not drawn


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_x_values_are_dropped(bad):
    # the x axis spans the finite values, and a vertex without one is left
    # out, so every vertex drawn lies inside the plot rectangle
    svg = line_chart([0.0, bad, 2.0], [("y", [1.0, 2.0, 3.0])])
    assert "nan" not in svg and "inf" not in svg
    line = next(row for row in svg.split("\n") if row.startswith("<polyline"))
    points = line.split('points="')[1].split('"')[0].split()
    assert len(points) == 2
    for point in points:
        px, py = map(float, point.split(","))
        assert svgplot._MARGIN_L <= px <= svgplot._WIDTH - svgplot._MARGIN_R
        assert svgplot._MARGIN_T <= py <= svgplot._HEIGHT - svgplot._MARGIN_B


def test_labels_are_escaped():
    x = np.array([0.0, 1.0])
    svg = line_chart(x, [("a<b&c", x)], title="x > y")
    assert "a<b&c" not in svg
    assert "a&lt;b&amp;c" in svg
    assert "x &gt; y" in svg


def _y_ticks(svg):
    # the y-axis tick labels, bottom to top
    return [float(line.rsplit(">", 2)[-2].split("<")[0])
            for line in svg.split("\n") if 'text-anchor="end"' in line]


@pytest.mark.parametrize("y, ticks", [
    ([np.nan] * 3, [-1.0, -0.5, 0.0, 0.5, 1.0]),  # nothing finite: 0 +- 1
    ([5.0] * 3, [4.5, 4.75, 5.0, 5.25, 5.5]),  # constant: 5 +- 10%
])
def test_flat_or_empty_series_get_a_padded_axis(y, ticks):
    svg = line_chart(np.array([0.0, 1.0, 2.0]), [("y", y)])
    assert _y_ticks(svg) == ticks


def _x_ticks(svg):
    # the x-axis tick labels, left to right
    return [float(line.rsplit(">", 2)[-2].split("<")[0])
            for line in svg.split("\n") if 'text-anchor="middle">' in line
            and 'font-size="11"' in line]


HUGE = sys.float_info.max


@pytest.mark.parametrize("x, y", [
    ([-1e308, 1e308], [0.0, 1.0]),
    ([-HUGE, HUGE], [0.0, 1.0]),
    ([0.0, 1.0], [-HUGE, HUGE]),
    ([-HUGE, 0.0, HUGE], [HUGE, -HUGE, HUGE]),
    ([-1e307, HUGE], [-1e307, HUGE]),  # ends rounded past HUGE / 2
    ([HUGE, HUGE], [-HUGE, -HUGE]),
])
def test_ranges_out_to_the_largest_float_stay_finite(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow on the way either
        svg = line_chart(x, [("y", y)])
    assert "nan" not in svg and "inf" not in svg
    line = next(row for row in svg.split("\n") if row.startswith("<polyline"))
    points = line.split('points="')[1].split('"')[0].split()
    assert len(points) == len(x)
    for point in points:
        px, py = map(float, point.split(","))
        assert svgplot._MARGIN_L <= px <= svgplot._WIDTH - svgplot._MARGIN_R
        assert svgplot._MARGIN_T <= py <= svgplot._HEIGHT - svgplot._MARGIN_B
    # a label such as 1.798e+308 reads back as inf, but it is written out
    for ticks in (_x_ticks(svg), _y_ticks(svg)):
        assert len(ticks) == 5 and ticks == sorted(ticks)


def test_ordinary_ranges_keep_their_limits():
    # the halved arithmetic rounds as the whole values would
    svg = line_chart([0.0, 1.0, 2.0], [("y", [-3.0, 0.5, 7.0])])
    assert _x_ticks(svg) == [-0.08, 0.46, 1.0, 1.54, 2.08]
    assert _y_ticks(svg) == [-3.4, -0.7, 2.0, 4.7, 7.4]
