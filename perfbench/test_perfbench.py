"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import affinefdr  # noqa: E402
from affinefdr import hjmm  # noqa: E402
from affinefdr.modelfile import parse_model_file, parse_model_text  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, self_time_by_name, self_times  # noqa: E402


def test_self_times_nested_spans():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("a.inner", 1, 2.0, 3.0),
        ("b", 0, 5.0, 7.0),
        ("a", -1, 20.0, 21.5),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.5])
    assert self_time_by_name(spans) == pytest.approx(
        {"root": 5.0, "a": 3.5, "a.inner": 1.0, "b": 2.0})


def test_self_times_merge_overlapping_and_clip_children():
    spans = [("p", -1, 0.0, 10.0), ("c1", 0, 1.0, 4.0), ("c2", 0, 3.0, 6.0),
             ("c3", 0, 9.0, 12.0)]
    # children cover [1, 6] and [9, 10] of the parent
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_nesting_and_restores_bindings():
    original = hjmm.riccati_small
    tracer = Tracer()
    tracer.install(affinefdr)
    try:
        assert hjmm.riccati_small is not original
        hjmm.riccati_small(np.linspace(0.0, 1.0, 5), 0.1, 0.05)
    finally:
        tracer.uninstall()
    assert hjmm.riccati_small is original
    assert [(name, parent) for name, parent, *_ in tracer.spans] == [
        ("hjmm.riccati_small", -1), ("hjmm.riccati_capital", 0)]
    assert tracer.counts["hjmm.riccati_capital.calls"] == 1


@pytest.mark.parametrize("seed,paths", [(0, None), (7, 20000), (123456, 50)])
def test_generated_model_parses_with_seed_and_paths(tmp_path, seed, paths):
    inputs = wl.Inputs(ROOT, tmp_path, seed, paths)
    spec = parse_model_file(str(inputs.sim_model))
    bundled = parse_model_text(
        (ROOT / "src" / "affinefdr" / "models" / "cir.model").read_text(encoding="utf-8"))
    assert spec.sim.seed == seed
    assert spec.sim.n_paths == (bundled.sim.n_paths if paths is None else paths)
    assert spec.sim.n_steps == bundled.sim.n_steps
    assert inputs.n_paths == spec.sim.n_paths
    assert sorted(inputs.models) == sorted(wl.BUNDLED_MODELS)


def test_set_sim_rejects_text_without_one_seed_line():
    with pytest.raises(ValueError):
        wl.set_sim("[sim]\nhorizon = 1\n", 3)


def test_curves_have_their_verdict_by_construction():
    x = np.linspace(0.0, 10.0, 2001)
    curves = wl.make_curves(5, x)
    assert [k for k, _ in curves] == [k for k in wl.CURVE_KINDS
                                      for _ in range(wl.CURVES_PER_KIND)]
    for kind, h in curves:
        assert {"member": h[0] > 0, "boundary": h[0] == 0.0,
                "non-member": h[0] < 0}[kind]
        assert h[1] > h[0]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(curves, wl.make_curves(5, x)))


def test_read_verdicts_keeps_boolean_leaves_only():
    checks = {"overall": False, "a_sigma_dim": 2,
              "realizability": {"cond-AR-1": {"ok": True, "n_samples": 6, "failures": []}}}
    assert wl.read_verdicts(checks) == {"overall": False, "realizability.cond-AR-1.ok": True}


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    value, pct, n = run.tail([float(v) for v in range(40, 0, -1)])
    assert (value, pct, n) == (30.0, 75.0, 40)
