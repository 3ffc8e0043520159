import math
import xml.etree.ElementTree as ET

import numpy as np

from gpp_extremes import svg


def test_line_chart_structure():
    x = np.arange(10)
    out = svg.line_chart(
        x, {"a": np.sin(x), "b": np.cos(x)}, title="T", xlabel="x", ylabel="y"
    )
    assert out.startswith("<svg")
    assert out.rstrip().endswith("</svg>")
    assert out.count("<polyline") == 2
    assert ">T</text>" in out
    assert ">a</text>" in out and ">b</text>" in out


def test_line_chart_deterministic():
    x = np.arange(50)
    y = {"s": np.sin(x / 3.0)}
    assert svg.line_chart(x, y) == svg.line_chart(x, y)


def test_line_chart_skips_non_finite():
    y = np.array([1.0, np.nan, 3.0, 4.0])
    out = svg.line_chart(np.arange(4), {"s": y})
    assert "nan" not in out


def test_heat_map_structure():
    values = np.arange(12, dtype=float).reshape(3, 4)
    values[0, 0] = np.nan
    out = svg.heat_map(values, title="H")
    assert out.startswith("<svg")
    assert out.count("<rect") >= 12
    assert "#dddddd" in out  # NaN cell rendered gray
    assert ">H</text>" in out


def test_heat_map_per_map_scale():
    a = svg.heat_map(np.array([[0.0, 1.0]]))
    b = svg.heat_map(np.array([[0.0, 100.0]]))
    # each map normalizes to its own maximum: same ramp, different label
    assert ">1</text>" in a
    assert ">100</text>" in b


def test_heat_map_constant_zero():
    out = svg.heat_map(np.zeros((2, 2)))
    assert out.startswith("<svg")


def test_names_with_markup_characters_give_well_formed_svg():
    # region and period names reach titles and legends verbatim
    x = np.arange(4)
    line = svg.line_chart(x, {"W&NA <1>": x * 1.0}, title="VAE loss, W&NA 1850-80",
                          xlabel="a<b", ylabel="c>d")
    texts = [t.text for t in ET.fromstring(line).iter("{http://www.w3.org/2000/svg}text")]
    assert {"VAE loss, W&NA 1850-80", "W&NA <1>", "a<b", "c>d"} <= set(texts)
    heat = svg.heat_map(np.ones((2, 2)), title="Negative extremes, <C> & D")
    root = ET.fromstring(heat)
    assert root.find("{http://www.w3.org/2000/svg}text").text == "Negative extremes, <C> & D"


def _points_one_at_a_time(x, series):
    """Each series' polyline points, formatted one point at a time with the
    chart's scaling; a non-finite y is left out."""
    left, top = 64, 28
    pw, ph = svg.LINE_WIDTH - left - 16, svg.LINE_HEIGHT - top - 44
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(v, dtype=float) for v in series.values()]
    finite = np.concatenate([y[np.isfinite(y)] for y in ys])
    y_lo, y_hi = float(finite.min()), float(finite.max())
    y_hi = y_lo + 1.0 if y_hi == y_lo else y_hi
    x_lo, x_hi = float(x.min()), float(x.max())
    x_hi = x_lo + 1.0 if x_hi == x_lo else x_hi
    return [" ".join(f"{left + (xv - x_lo) / (x_hi - x_lo) * pw:.2f},"
                     f"{top + ph - (yv - y_lo) / (y_hi - y_lo) * ph:.2f}"
                     for xv, yv in zip(x, y) if math.isfinite(yv))
            for y in ys]


def test_line_chart_points_are_the_per_point_formula():
    rng = np.random.default_rng(7)
    years = np.arange(1850, 1881)
    gappy = rng.normal(size=years.size).cumsum()
    gappy[[0, 5, 6, 7, 30]] = np.nan
    epochs = np.arange(1, 41)  # the loss chart's integer epochs
    loss = 50.0 / epochs + rng.uniform(0.0, 1.0, size=epochs.size)
    cases = [
        (years, {"negative": gappy, "positive": -0.5 * gappy}),
        (epochs, {"train": loss, "validation": loss * 1.1}),
        (np.arange(372) / 12.0, {"s": np.sin(np.arange(372) / 7.0) * 1e3}),
        (np.array([3]), {"one": np.array([2.5])}),  # a one-point series
        (np.array([3]), {"one": [7]}),
    ]
    for x, series in cases:
        out = svg.line_chart(x, series)
        got = [line.split('points="')[1].split('"')[0]
               for line in out.splitlines() if line.startswith("<polyline")]
        assert got == _points_one_at_a_time(x, series)
