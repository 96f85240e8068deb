"""Shared fixtures: classified reports for the built-in metrics, and the
sympy curvature oracles for their two metric forms."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import curvkit
from curvkit.catalog import builtin, reference_coefficient_forms
from curvkit.classify import classify_metric
from curvkit.curvature import build_bundle
from curvkit.tensor import invert_metric
from oracles import SympyCurvature, f, ingoing, static_spherical

# the same examples on every run, and none replayed from earlier runs, so
# an outcome does not depend on a `.hypothesis/` directory
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def fresh_env() -> dict:
    """The environment of a new process that imports this checkout's
    curvkit."""
    src = str(Path(curvkit.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def fresh_python(*args, check=True) -> subprocess.CompletedProcess:
    """`python *args` in a new process that imports this checkout's
    curvkit: nothing is interned or imported from the test session."""
    return subprocess.run([sys.executable, *args], env=fresh_env(),
                          capture_output=True, check=check)


def classified(metric_id):
    spec = builtin(metric_id)
    bundle = build_bundle(invert_metric(spec.g()), spec.coords)
    forms = reference_coefficient_forms(metric_id) or None
    report = classify_metric(spec, bundle, reference_forms=forms)
    return spec, bundle, report


@pytest.fixture(scope="session")
def bardeen_classified():
    return classified("bardeen")


@pytest.fixture(scope="session")
def rn_classified():
    return classified("reissner_nordstrom")


@pytest.fixture(scope="session")
def schw_classified():
    return classified("schwarzschild")


@pytest.fixture(scope="session")
def mink_classified():
    return classified("minkowski")


@pytest.fixture(scope="session")
def spherical_oracle():
    """Curvature of -f dt^2 + dr^2/f + r^2 dOmega^2 (bardeen's form)."""
    return SympyCurvature(static_spherical(f))


@pytest.fixture(scope="session")
def ingoing_oracle():
    """Curvature of -f dt^2 - 2 dt dr + r^2 dOmega^2 (reissner_nordstrom's
    form)."""
    return SympyCurvature(ingoing(f))
