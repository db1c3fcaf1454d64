import numpy as np
import pytest

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
