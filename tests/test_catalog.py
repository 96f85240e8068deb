"""Metric catalog: builtins and the metric description file format."""

import random

import pytest

import curvkit.exprcore as ec
from curvkit.catalog import (BUILTIN_IDS, CatalogError, builtin, load_metric,
                             parse_metric_source, reference_coefficient_forms,
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
    spec = parse_metric_source(GOOD)
    ref = builtin("bardeen")
    rng = random.Random(1)
    for _ in range(5):
        values = {"t": 0.0, "phi": 0.0, "r": rng.uniform(1.5, 3.0),
                  "theta": rng.uniform(0.3, 2.8), "M": 1.0, "e": 0.5}
        for i in range(4):
            for j in range(4):
                a = ec.eval_float(spec.components[i, j], values, {})
                b = ec.eval_float(ref.components[i, j], values, {})
                assert abs(a - b) < 1e-12


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
