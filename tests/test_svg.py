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
