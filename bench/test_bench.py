"""Tests of the benchmark's own workload builder, checker and metric names.

Run from the repository root:  python3 -m pytest bench -q
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from maxcut_bridge.bounds import Certificate, certify  # noqa: E402
from maxcut_bridge.penalty import rho  # noqa: E402
from maxcut_bridge.relaxations import compute_bounds  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402


def _acceptance_suite():
    spec = importlib.util.spec_from_file_location("acceptance_conftest",
                                                  ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_suite()


def test_seed0_corpus_is_the_acceptance_suite():
    ours = workloads.corpus(0).instances[:50]
    theirs = _acceptance_suite()
    assert [i.label for i in ours] == [i.label for i in theirs]
    for a, b in zip(ours, theirs):
        for field in ("c", "F", "A", "b"):
            assert np.array_equal(getattr(a.sign, field), getattr(b.sign, field)), a.label
        assert (a.sign.offset, a.sign.scale) == (b.sign.offset, b.sign.scale)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workloads_are_seeded(name):
    build = workloads.BUILDERS[name]
    labels = lambda seed: [i.label for i in build(seed).instances]
    assert labels(3) == labels(3)
    assert labels(3) != labels(4)


def test_relabelling_keeps_the_program():
    for a, b in zip(workloads.dnn(0).instances, workloads.dnn(7).instances):
        assert oracle.enumerate_optimum(a.sign) == pytest.approx(oracle.enumerate_optimum(b.sign))
    for inst in workloads.scaling(7).instances:
        assert inst.witness is None or oracle.is_feasible(inst.sign, inst.witness)


def test_declared_feasibility_matches_enumeration():
    for inst in workloads.corpus(5).instances:
        assert np.isfinite(oracle.enumerate_optimum(inst.sign)) == inst.feasible, inst.label


@pytest.fixture(scope="module")
def solved():
    """A small feasible instance with an honest report, its verdict and f*."""
    inst = workloads.corpus(0).instances[0]
    pb = rho(inst.sign.c, inst.sign.F, workloads.FAST_CFG)
    rep = compute_bounds(inst.sign, selectors=["maxcut_shor_min", "lasserre1", "brute_force"],
                         cfg=workloads.FAST_CFG, pb=pb, gw_trials=50)
    return inst, pb, rep, certify(rep, pb), oracle.enumerate_optimum(inst.sign)


def _check(solved, rep=None, cert=None):
    inst, pb, base_rep, base_cert, f_star = solved
    return oracle.check(inst.label, inst.sign, inst.feasible, f_star, None,
                        rep or base_rep, pb.rho, cert or base_cert)


def _with_entry(rep, name, **changes):
    entries = dict(rep.entries)
    entry = entries[name]
    entries[name] = type(entry)(**{**vars(entry), **changes})
    return type(rep)(**{**vars(rep), "entries": entries})


def test_honest_report_passes(solved):
    out = _check(solved)
    assert out.failures == []
    assert out.attempted == 5  # three entries, one rounding, one verdict
    assert out.optimal


def test_fabricated_unsound_bound_fails(solved):
    _, _, rep, _, f_star = solved
    out = _check(solved, rep=_with_entry(rep, "maxcut_shor_min", value=f_star + 1.0,
                                         inflation=0.0))
    assert [(f.op, f.kind, f.known) for f in out.failures] == \
        [("maxcut_shor_min", "unsound", False)]


def test_unconverged_lasserre1_above_optimum_is_the_known_defect(solved):
    _, _, rep, _, f_star = solved
    out = _check(solved, rep=_with_entry(rep, "lasserre1", value=f_star + 1.0, inflation=0.0,
                                         status="IterationLimit"))
    assert [(f.op, f.kind, f.known) for f in out.failures] == \
        [("lasserre1", "unsound_unconverged", True)]


def test_wrong_exact_value_fails(solved):
    _, _, rep, _, f_star = solved
    out = _check(solved, rep=_with_entry(rep, "brute_force", value=f_star - 1.0))
    assert [(f.op, f.kind) for f in out.failures] == [("brute_force", "wrong_optimum")]


def test_mislabelled_rounding_fails(solved):
    _, _, rep, _, _ = solved
    flipped = type(rep)(**{**vars(rep), "rounding": rep.rounding._replace(
        feasible=not rep.rounding.feasible)})
    out = _check(solved, rep=flipped)
    assert [(f.op, f.kind) for f in out.failures] == [("rounding", "feasible_flag")]

    shifted = type(rep)(**{**vars(rep), "rounding": rep.rounding._replace(
        value=rep.rounding.value + 1.0)})
    out = _check(solved, rep=shifted)
    assert [(f.op, f.kind) for f in out.failures] == [("rounding", "value_mismatch")]


def test_false_infeasible_by_gap_fails(solved):
    out = _check(solved, cert=Certificate(kind="InfeasibleByGap", explanation="fabricated"))
    assert [(f.op, f.kind, f.known) for f in out.failures] == \
        [("verdict", "false_infeasible", False)]


def test_infeasible_instance_is_never_reported_feasible():
    inst = next(i for i in workloads.corpus(0).instances if not i.feasible)
    pb = rho(inst.sign.c, inst.sign.F, workloads.FAST_CFG)
    rep = compute_bounds(inst.sign, selectors=["maxcut_shor_min", "brute_force"],
                         cfg=workloads.FAST_CFG, pb=pb, gw_trials=20)
    cert = certify(rep, pb)
    check = lambda rep, cert: [(f.op, f.kind) for f in oracle.check(
        inst.label, inst.sign, False, np.inf, None, rep, pb.rho, cert).failures]
    assert check(rep, cert) == []
    fake = Certificate(kind="Feasible", explanation="fabricated", value=0.0,
                       point=np.ones(inst.sign.n, dtype=np.int64))
    assert check(rep, fake) == [("verdict", "false_feasible")]
    assert check(_with_entry(rep, "brute_force", value=0.0), cert) == \
        [("brute_force", "wrong_optimum")]


def test_printed_metrics_are_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.corpus(0)
    small = workloads.Workload(wl.instances[:2] + wl.instances[-2:], wl.selectors,
                               wl.cfg, wl.dnn_cfg)
    refs = [oracle.enumerate_optimum(i.sign) for i in small.instances]
    untraced = [run.run_pass(small, refs)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run.run_pass(small, refs, tracer)]
    finally:
        tracer.remove()
    e2e = run.end_to_end(untraced, setup_s=0.1)
    layers = run.per_layer(tracer, traced, untraced)
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert list(layers) == [m["name"] for m in declared["per_layer"]]
    for spec in declared["end_to_end"] + declared["per_layer"]:
        value, unit = {**e2e, **layers}[spec["name"]]
        assert unit == spec["unit"] and np.isfinite(value), spec["name"]
    assert tracer.calls["sdp.project_psd"] > 0
    assert all(s["parent"] is None or s["parent"] < s["id"] for s in tracer.spans)


def test_speed_probe_samples_only_inside_its_block():
    probe = SpeedProbe()
    with probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
    taken = len(probe.samples)
    assert taken >= 1 and probe.spent > 0.0 and probe.factor(0) > 0.0
    time.sleep(0.3)
    assert len(probe.samples) == taken


def test_pass_count_depends_on_seconds_alone():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.PASSES) == {w["name"] for w in declared["workloads"]}
    assert declared["run_seconds"] == run.NOMINAL_SECONDS
    assert all(run.pass_count(w, run.NOMINAL_SECONDS) == n for w, n in run.PASSES.items())
    assert all(run.pass_count(w, 0.5) == 1 for w in run.PASSES)
