"""The committed reports under reports/ reproduce exactly from the engine.

Each result is compared after a JSON round trip, so every verdict, fitted
coefficient, residual and discrepancy string must be equal to the last
digit.  scripts/reproduce_reports.py regenerates the files."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from curvkit import cli
from curvkit.catalog import reference_component_checks
from curvkit.classify import compare_metrics, verify_component_tables

REPORTS = Path(__file__).resolve().parent.parent / "reports"


def committed(name):
    return json.loads((REPORTS / name).read_text())


def round_trip(obj):
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("metric_id, fixture", [
    ("bardeen", "bardeen_classified"),
    ("reissner_nordstrom", "rn_classified"),
    ("schwarzschild", "schw_classified"),
    ("minkowski", "mink_classified"),
])
def test_classify_reports_reproduce(metric_id, fixture, request):
    _, _, report = request.getfixturevalue(fixture)
    assert round_trip(report.to_json()) == committed(
        f"classify_{metric_id}.json")


def test_compare_report_reproduces(bardeen_classified, rn_classified):
    comp = compare_metrics(bardeen_classified[2], rn_classified[2])
    assert round_trip(comp) == committed("compare_bardeen_rn.json")


def test_verify_report_reproduces(bardeen_classified):
    spec, bundle, _ = bardeen_classified
    res = verify_component_tables(spec, bundle, reference_component_checks(),
                                  lam=0.0)
    assert round_trip(res) == committed("verify_bardeen.json")


@pytest.mark.parametrize("metric_id",
                         ["schwarzschild", "bardeen", "reissner_nordstrom"])
@pytest.mark.parametrize("tensor", ["S", "kappa", "nabla_R", "nabla_C"])
def test_components_dump_matches_digest(metric_id, tensor):
    # node identity: a kernel change that moves any symbolic node moves the
    # printed components; reproduce_reports.py checks all 52 dumps.  The
    # nabla_C dumps of bardeen and reissner_nordstrom are the largest
    # (about 1 MB each), the printer's stress case
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(["components", "--metric", metric_id,
                        "--tensor", tensor]) == 0
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == committed("components_sha256.json")[metric_id][tensor]


@pytest.mark.parametrize("metric_id", ["bardeen", "reissner_nordstrom"])
def test_classify_output_matches_digest(metric_id):
    # every float bit of the numeric path: reproduce_reports.py checks all
    # 24 runs (4 builtins x 12/48/192 points x seeds 42 and 7)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(["classify", "--metric", metric_id, "--points", "48",
                        "--seed", "7"]) == 0
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == committed("classify_sha256.json")[metric_id]["48/7"]
