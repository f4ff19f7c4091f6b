"""The names the sweep benchmark (``perfbench/``) reaches into rqsim for.

The benchmark's tracer rebinds entry points by name from outside the
package, so renaming or deleting one breaks only the benchmark run.  These
tests make that a test failure instead.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import rqsim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    """``perfbench/tracer.py`` loaded by path, writing no bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists(tracer):
    assert tracer.TARGETS
    for module_name, attr, _span in tracer.TARGETS:
        module = importlib.import_module(f"rqsim.{module_name}")
        assert callable(getattr(module, attr, None)), f"rqsim.{module_name}.{attr}"


def test_package_names_the_benchmark_reads():
    for name in ("run_experiment", "ExperimentConfig", "rows_to_csv", "rows_to_json",
                 "simulate_si", "likelihood_table", "make_regular_tree", "make_erdos_renyi",
                 "make_scale_free"):
        assert callable(getattr(rqsim, name, None)), f"rqsim.{name}"
    graph = rqsim.make_scale_free(30, 1.5, np.random.default_rng(0))
    assert graph.is_finite and graph.n == 30
    snap = rqsim.simulate_si(graph, 0, 10, np.random.default_rng(1))
    assert json.loads(snap.to_json())["infected_order"] == list(snap.infected)
    assert isinstance(snap.is_tree, bool) and isinstance(snap.induced_edge_count, int)
