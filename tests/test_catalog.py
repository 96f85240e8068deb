"""Metric catalog: builtins and the metric description file format."""

import math
import random
import re
from pathlib import Path

import pytest

import curvkit.exprcore as ec
from curvkit.catalog import (BUILTIN_IDS, CatalogError, builtin,
                             builtin_source, load_metric, parse_metric_source,
                             reference_coefficient_forms,
                             reference_component_checks)

GOOD = """\
dim 4
coords t r theta phi
params M e
range r 1.5 3
range theta 0.3 2.8
g[0][0] = -(1 - 2*M*r^2/(e^2+r^2)^(3/2))
g[1][1] = 1/(1 - 2*M*r^2/(e^2+r^2)^(3/2))
g[2][2] = r^2
g[3][3] = r^2*sin(theta)^2
"""


def test_builtins_load_and_are_invertible():
    for mid in BUILTIN_IDS:
        spec = builtin(mid)
        assert spec.dim == 4
        assert len(spec.coords) == 4
        g = spec.g().data
        assert all(g[i, j] is g[j, i] for i in range(4) for j in range(4))


def test_unknown_builtin():
    with pytest.raises(CatalogError):
        builtin("kerr")


def test_file_format_reproduces_builtin():
    # the components are written as in the builtin's source, so they parse
    # to the very nodes of the builtin
    spec, ref = parse_metric_source(GOOD), builtin("bardeen")
    assert all(spec.components[i, j] is ref.components[i, j]
               for i in range(4) for j in range(4))


@pytest.mark.parametrize("mid, r_range, defaults", [
    ("bardeen", (1.5, 3.0), {"M": 1.0, "e": 0.5}),
    ("reissner_nordstrom", (1.5, 3.0), {"m": 1.0, "q": 0.5}),
    ("schwarzschild", (2.2, 4.0), {"M": 1.0}),
    ("minkowski", None, {}),
])
def test_builtin_sources_keep_ranges_and_defaults(mid, r_range, defaults):
    # theta keeps the default window (0.3, pi - 0.3), which the file
    # format cannot spell
    spec = builtin(mid)
    assert spec.ranges == ({"r": r_range} if r_range else {})
    assert spec.defaults == defaults
    assert spec.coordinate_range("theta") == (0.3, math.pi - 0.3)


def test_readme_metric_file_is_the_bardeen_builtin():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    text = re.search(r"```\n(dim 4\n.*?)```", readme, re.S).group(1)
    spec, ref = parse_metric_source(text), builtin("bardeen")
    assert (spec.coords, spec.params, spec.ranges) == (
        ref.coords, ref.params, ref.ranges)
    assert all(a is b for a, b in zip(spec.components.flat,
                                      ref.components.flat))


def test_load_metric_missing_file():
    with pytest.raises(CatalogError):
        load_metric("/nonexistent/path/metric.txt")


def test_load_metric_round_trip(tmp_path):
    path = tmp_path / "regular.metric"
    path.write_text(GOOD)
    spec = load_metric(str(path))
    assert spec.id == "regular"
    assert spec.params == ["M", "e"]
    assert spec.coordinate_range("r") == (1.5, 3.0)


def test_duplicate_component_rejected():
    text = GOOD + "g[2][2] = r^2\n"
    with pytest.raises(CatalogError) as exc:
        parse_metric_source(text)
    assert "already assigned" in str(exc.value)


def test_symmetric_pair_counts_as_duplicate():
    text = GOOD + "g[0][1] = r\ng[1][0] = r\n"
    with pytest.raises(CatalogError):
        parse_metric_source(text)


def test_missing_header_rejected():
    with pytest.raises(CatalogError):
        parse_metric_source("g[0][0] = -1\n")
    with pytest.raises(CatalogError):
        parse_metric_source("")


def test_bad_directive_and_bad_index():
    with pytest.raises(CatalogError):
        parse_metric_source("dim 2\ncoords t r\nfrobnicate 3\n")
    with pytest.raises(CatalogError):
        parse_metric_source("dim 2\ncoords t r\ng[0][5] = 1\n")


@pytest.mark.parametrize("target", [
    "g[0]]]][0]", "g[[0][0]", "g[0][0]]", "g[0][0][1]", "g[0]x[0]",
    "g[ 0][0]", "g[+1][0]", "g[٣][0]", "g[0]"])
def test_component_target_is_exactly_g_digits_digits(target):
    # g[0]]]][0] once read as g[0][0], because the brackets were stripped
    with pytest.raises(CatalogError) as exc:
        parse_metric_source(GOOD.replace("g[0][0]", target))
    assert str(exc.value) == f"line 6: bad component index {target!r}"


def bardeen_with(line):
    """GOOD with its g[0][0] line replaced."""
    return GOOD.replace(GOOD.splitlines()[5], line)


@pytest.mark.parametrize("line, message", [
    ("g[0][0] = -r^²", "line 6: unexpected character '²' (line 1, column 4)"),
    ("g[0][0] = -2²*r", "line 6: unexpected character '²' (line 1, column 3)"),
    ("g[0][0] = -(10^400)",
     "metric 'custom' is singular or not finite at all probe points")])
def test_unreadable_expression_text_is_a_catalog_error(line, message):
    with pytest.raises(CatalogError) as exc:
        parse_metric_source(bardeen_with(line))
    assert str(exc.value) == message


def test_root_of_a_constant_beyond_float64_loads():
    spec = parse_metric_source(bardeen_with("g[0][0] = -(10^400)^(1/2)"))
    assert spec.components[0, 0] is ec.const(-10 ** 200)


def test_expression_errors_carry_line_numbers():
    text = "dim 2\ncoords t r\ng[0][0] = -1\ng[1][1] = 1 + * r\n"
    with pytest.raises(CatalogError) as exc:
        parse_metric_source(text)
    assert "line 4" in str(exc.value)


def test_decimal_component_rejected():
    text = "dim 2\ncoords t r\ng[0][0] = -1\ng[1][1] = 0.5\n"
    with pytest.raises(CatalogError):
        parse_metric_source(text)


def test_unknown_symbol_in_component_rejected():
    text = "dim 2\ncoords t r\ng[0][0] = -1\ng[1][1] = q^2\n"
    with pytest.raises(CatalogError):
        parse_metric_source(text)


def test_singular_metric_rejected():
    text = "dim 2\ncoords t r\ng[0][0] = r\ng[0][1] = r\ng[1][1] = r\n"
    with pytest.raises(CatalogError) as exc:
        parse_metric_source(text)
    assert "singular" in str(exc.value)


def test_root_of_square_keeps_sign_on_negative_range():
    # (x^2)^(1/2) is |x|: on x in [-2, -1] the metric keeps signature
    # (-,+,+,+) instead of flipping g11 to x < 0
    spec = parse_metric_source(
        "dim 4\ncoords t x y z\nrange x -2 -1\n"
        "g[0][0] = -1\ng[1][1] = (x^2)^(1/2)\ng[2][2] = 1\ng[3][3] = 1\n")
    g = spec.g().evaluate({"t": 0.0, "x": -1.5, "y": 0.0, "z": 0.0}).data
    assert g[1, 1] == 1.5


def test_charge_zero_builtin_matches_vacuum_builtin():
    bar = builtin("bardeen")
    sch = builtin("schwarzschild")
    rng = random.Random(4)
    for _ in range(6):
        values = {"t": 0.0, "phi": 0.0, "r": rng.uniform(2.2, 3.0),
                  "theta": rng.uniform(0.3, 2.8), "M": 1.0, "e": 0.0}
        for i in range(4):
            a = ec.eval_float(bar.components[i, i], values, {})
            b = ec.eval_float(sch.components[i, i], values, {})
            assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
# reference data shape

def test_reference_component_checks_well_formed():
    checks = reference_component_checks()
    assert len(checks) == 135
    spec = builtin("bardeen")
    allowed = set(spec.coords) | set(spec.params) | {"Lambda"}
    for chk in checks:
        assert set(chk) >= {"group", "kind", "indices", "expr"}
        ec.parse_expr(chk["expr"], allowed)  # must parse
        assert all(1 <= i <= 4 for i in chk["indices"])


def test_reference_coefficient_forms_parse():
    forms = reference_coefficient_forms("bardeen")
    spec = builtin("bardeen")
    allowed = set(spec.coords) | set(spec.params)
    assert forms
    for name, coefficients in forms.items():
        assert coefficients, name
        for candidates in coefficients:
            assert candidates, name
            for text in candidates:
                ec.parse_expr(text, allowed)


def test_reference_coefficient_forms_only_for_regular_metric():
    assert reference_coefficient_forms("minkowski") == {}
