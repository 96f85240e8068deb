"""Command-line interface: exit codes, output formats, determinism."""

import json
import re

import pytest

from curvkit import cli

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


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_2(capsys):
    assert cli.run([]) == 2
    assert cli.run(["classify"]) == 2
    assert cli.run(["classify", "--metric", "bardeen", "--param", "M"]) == 2
    assert cli.run(["classify", "--metric", "bardeen", "--param",
                    "M=abc"]) == 2
    assert cli.run(["classify", "--metric", "bardeen", "--tol", "-1"]) == 2
    assert cli.run(["classify", "--metric", "bardeen", "--points", "2"]) == 2
    assert cli.run(["compare", "--metric", "bardeen"]) == 2
    assert cli.run(["verify", "--metric", "minkowski"]) == 2
    capsys.readouterr()


def test_unknown_metric_exits_2(capsys):
    assert cli.run(["classify", "--metric", "kerr"]) == 2
    assert cli.run(["classify", "--metric", "/no/such/file"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_metric_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.metric"
    path.write_text("dim 2\ncoords t r\ng[0][0] = 1 + *\n")
    assert cli.run(["classify", "--metric", str(path)]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# components

def test_components_kappa_and_tensor(tmp_path, capsys):
    out = tmp_path / "kappa.json"
    rc = cli.run(["components", "--metric", "bardeen", "--tensor", "kappa",
                  "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["tensor"] == "kappa"
    assert "e^2" in data["expression"]

    out2 = tmp_path / "S.json"
    assert cli.run(["components", "--metric", "bardeen", "--tensor", "S",
                    "--out", str(out2)]) == 0
    data2 = json.loads(out2.read_text())
    assert data2["valence"] == 2
    assert set(data2["nonzero_components"]) == {"00", "11", "22", "33"}
    capsys.readouterr()


def test_components_unknown_tensor_exits_2(capsys):
    # KeyError from the bundle accessor surfaces as a usage error
    try:
        rc = cli.run(["components", "--metric", "minkowski", "--tensor",
                      "bogus"])
    except KeyError:
        pytest.fail("unknown tensor name must not raise through the CLI")
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown tensor 'bogus'" in err and "nabla_S" in err


# ---------------------------------------------------------------------------
# classify

def test_classify_json_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.run(["classify", "--metric", "minkowski", "--out",
                    str(a)]) == 0
    assert cli.run(["classify", "--metric", "minkowski", "--out",
                    str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_classify_markdown_matches_json_verdicts(tmp_path, capsys):
    j = tmp_path / "r.json"
    m = tmp_path / "r.md"
    assert cli.run(["classify", "--metric", "schwarzschild", "--out",
                    str(j)]) == 0
    assert cli.run(["classify", "--metric", "schwarzschild", "--format",
                    "markdown", "--out", str(m)]) == 0
    data = json.loads(j.read_text())
    table = {}
    for line in m.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1] in ("holds", "fails", "degenerate"):
            table[cells[0]] = cells[1]
    for s in data["structures"]:
        assert table[s["name"]] == s["verdict"]
    capsys.readouterr()


def test_classify_metric_file_with_params(tmp_path, capsys):
    path = tmp_path / "regular.metric"
    path.write_text(GOOD)
    out = tmp_path / "out.json"
    rc = cli.run(["classify", "--metric", str(path), "--param", "M=1",
                  "--param", "e=0.5", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    verdicts = {s["name"]: s["verdict"] for s in data["structures"]}
    assert verdicts["roter"] == "holds"
    assert verdicts["einstein"] == "fails"
    capsys.readouterr()


@pytest.mark.parametrize("params, missing", [
    ([], "['M', 'e']"),
    (["--param", "M=1"], "['e']"),
])
def test_classify_unbound_params_exit_1(tmp_path, capsys, params, missing):
    path = tmp_path / "regular.metric"
    path.write_text(GOOD)
    assert cli.run(["classify", "--metric", str(path), *params]) == 1
    err = capsys.readouterr().err
    assert missing in err
    assert "sample points" not in err


def write_metric(tmp_path, name, body):
    path = tmp_path / f"{name}.metric"
    path.write_text("dim 4\ncoords t r theta phi\n" + body
                    + "g[2][2] = r^2\ng[3][3] = r^2*sin(theta)^2\n")
    return str(path)


def test_overflowing_metric_file_exits_2(tmp_path, capsys):
    # r^1200 overflows float64 at every probe point: one error line, no
    # traceback
    path = write_metric(tmp_path, "huge",
                        "range r 2 3\ng[0][0] = -1\ng[1][1] = r^1200\n")
    assert cli.run(["classify", "--metric", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: metric 'huge' is singular or not finite at all probe points"]


def test_sample_plan_error_counts_rejections(tmp_path, capsys):
    # with a = 0.5, (a - r)^(1/2) is not real anywhere on r in [1, 2], so
    # every one of the 200 * 12 candidates is rejected as not finite
    path = write_metric(tmp_path, "imaginary", "params a\nrange r 1 2\n"
                        "g[0][0] = -1\ng[1][1] = (a - r)^(1/2)\n")
    assert cli.run(["classify", "--metric", path, "--param", "a=0.5"]) == 1
    err = capsys.readouterr().err
    assert "2400 candidates drawn, 2400 not finite" in err
    assert "0 with a singular det, 0 with |g00| below" in err


# ---------------------------------------------------------------------------
# verify and compare

def test_verify_json_shape(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert cli.run(["verify", "--metric", "bardeen", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["total"] == 135
    assert 0 <= data["matched"] <= data["total"]
    statuses = {c["status"] for c in data["checks"]}
    assert statuses <= {"match", "mismatch"}
    for c in data["checks"]:
        if c["status"] == "mismatch":
            assert c["engine_confirmed_by_finite_differences"] is True
    capsys.readouterr()


def test_compare_outputs(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    rc = cli.run(["compare", "--metric", "bardeen", "--metric",
                  "reissner_nordstrom", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert "scalar_curvature_zero" in data["differing"]
    assert "roter" in data["shared_holds"]
    capsys.readouterr()
