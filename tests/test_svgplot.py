"""SVG output: well-formed, deterministic, and structurally sane."""
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hullexplain.errors import InvalidInputError
from hullexplain.svgplot import line_plot, nice_ticks, scatter_plot

SVG = "{http://www.w3.org/2000/svg}"


def tags(svg_text, name):
    return ET.fromstring(svg_text).iter(SVG + name)


class TestNiceTicks:
    def test_simple_range(self):
        ticks, (lo, hi) = nice_ticks(0.0, 10.0)
        assert ticks == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert (lo, hi) == (0.0, 10.0)

    def test_ladder_steps(self):
        # tick spacing is always 1, 2, or 5 times a power of ten
        for lo, hi in [(0, 1), (0, 7), (-3, 3), (0.001, 0.0017), (12, 1234)]:
            ticks, span = nice_ticks(float(lo), float(hi))
            step = ticks[1] - ticks[0]
            mantissa = step / 10.0 ** np.floor(np.log10(step))
            assert min(abs(mantissa - m) for m in (1.0, 2.0, 5.0, 10.0)) < 1e-9

    def test_ticks_inside_range(self):
        for lo, hi in [(0.001, 0.0017), (-8, -2), (0.3, 9.7)]:
            ticks, (tlo, thi) = nice_ticks(float(lo), float(hi))
            assert ticks
            assert tlo <= ticks[0] and ticks[-1] <= thi

    def test_degenerate_range_padded(self):
        ticks, (lo, hi) = nice_ticks(3.0, 3.0)
        assert lo < 3.0 < hi
        assert any(abs(t - 3.0) < 1e-12 for t in ticks)


class TestScatter:
    def test_parses_and_counts_points(self):
        xs = np.array([0.1, 0.5, 0.9, 0.3])
        ys = np.array([1.0, 2.0, 0.5, 1.5])
        svg = scatter_plot(xs, ys, title="t", xlabel="x", ylabel="y")
        assert len(list(tags(svg, "circle"))) == 4

    def test_deterministic(self):
        xs, ys = np.array([0.0, 1.0]), np.array([2.0, 3.0])
        a = scatter_plot(xs, ys, title="same")
        b = scatter_plot(xs, ys, title="same")
        assert a == b

    def test_diagonal_line(self):
        xs, ys = np.array([0.0, 1.0]), np.array([0.0, 2.0])
        plain = scatter_plot(xs, ys)
        with_diag = scatter_plot(xs, ys, diagonal=True)
        assert with_diag.count("stroke-dasharray") == plain.count("stroke-dasharray") + 1

    def test_labels_present(self):
        svg = scatter_plot(np.array([0.0]), np.array([1.0]),
                           title="Error scatter", xlabel="dual", ylabel="baseline")
        assert "Error scatter" in svg and "dual" in svg and "baseline" in svg

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            scatter_plot(np.array([0.0, np.nan]), np.array([1.0, 2.0]))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            scatter_plot(np.array([0.0, 1.0]), np.array([1.0]))

    def test_constant_data_still_renders(self):
        svg = scatter_plot(np.array([2.0, 2.0]), np.array([5.0, 5.0]))
        ET.fromstring(svg)


class TestLines:
    def grid(self):
        return np.linspace(0.0, 1.0, 21)

    def test_polyline_per_series(self):
        x = self.grid()
        svg = line_plot(x, [("effects", x ** 2), ("linear", 0.5 * x),
                            ("net", np.sin(x))])
        assert len(list(tags(svg, "polyline"))) == 3

    def test_legend_names(self):
        x = self.grid()
        svg = line_plot(x, [("alpha", x), ("beta", 1 - x)])
        assert "alpha" in svg and "beta" in svg

    def test_deterministic(self):
        x = self.grid()
        series = [("s", np.cos(x))]
        assert line_plot(x, series, title="t") == line_plot(x, series, title="t")

    def test_series_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            line_plot(self.grid(), [("s", np.zeros(3))])

    def test_non_finite_rejected(self):
        x = self.grid()
        bad = np.full_like(x, np.inf)
        with pytest.raises(InvalidInputError):
            line_plot(x, [("s", bad)])
