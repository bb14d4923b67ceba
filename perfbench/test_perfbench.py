"""Tests of the benchmark itself: generators, output checks, tracing and
limits.  Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import REF_S, job_scales, scale  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_deterministic_per_seed(workload):
    first = workloads.jobs_for(workload, 11)
    assert workloads.jobs_for(workload, 11) == first
    assert json.loads(json.dumps(first)) == first
    assert workloads.jobs_for(workload, 12) != first


def _stratum(job):
    """What sets a job's cost; the seed may change anything else."""
    kind = job[0]
    if kind == "audit":
        return tuple(job[1:4] + job[5:6]) if job[1] == "rationality" \
            else tuple(job)
    if kind == "cli":
        argv = job[1]
        if argv[0] == "verify":
            return ("verify", argv[2], argv[-1])
        return (argv[0], argv[2]) if argv[0] == "eval" else (argv[0],)
    return tuple(job[:4]) if kind == "row" else tuple(job[:3])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_no_stratum_count(workload):
    def strata(seed):
        return sorted(map(_stratum, workloads.jobs_for(workload, seed)))
    assert strata(1) == strata(2)


@pytest.mark.parametrize("seed", [1, 2])
def test_every_request_exits_zero_and_passes_its_check(seed):
    runner = jobs.Runner(jobs.load_expected())
    failures = []
    for job in workloads.jobs_for("requests", seed):
        _, _, failure = runner.run(job)
        if failure:
            failures.append((job, failure))
    assert failures == []
    assert runner.pair_out == {}


def test_every_sampled_audit_has_recorded_verdicts():
    expected = jobs.load_expected()
    for seed in range(20):
        for workload in ("audit-grid", "audit-wide"):
            for _, kind, p, n, m, arg, part in workloads.jobs_for(workload,
                                                                  seed):
                assert part == "grid" or (p, n, kind, m, arg) in expected


def test_motcoh_oracle_agrees_with_the_program():
    from rostcalc import motcoh
    from rostcalc.splitring import make_params
    for p, n in ((2, 3), (3, 2), (5, 2), (2, 5)):
        params = make_params(p, n)
        for j in range(1, 2 * params.c):
            for i in range(j + 1, 2 * j + 4):
                got = [(m.m, m.k, m.eps)
                       for m in motcoh.enumerate_monomials(i, j, params)]
                assert got == jobs.motcoh_oracle(i, j, p, n)


def _sample_jobs():
    grid = [job for job in workloads.jobs_for("audit-grid", 3)
            if job[2:4] == [3, 2]]
    wide = [job for job in workloads.jobs_for("audit-wide", 3)
            if job[2:4] == [5, 2]]
    tables = [job for job in workloads.jobs_for("tables", 3)
              if job[0] != "compare" or job[1:] == [3, 7]]
    return grid + wide + tables + workloads.jobs_for("requests", 3)[:300]


def _run_all(job_list):
    runner = jobs.Runner(jobs.load_expected())
    outputs = []
    for job in job_list:
        _, out, failure = runner.run(job)
        assert failure is None, (job, failure)
        outputs.append(out)
    return outputs, runner.totals


def _rostcalc_namespaces():
    for name, module in sorted(sys.modules.items()):
        if name == "rostcalc" or name.startswith("rostcalc."):
            yield module.__name__, vars(module)
            for key, value in vars(module).items():
                if isinstance(value, dict):
                    yield f"{module.__name__}.{key}", value


def test_traced_run_matches_untraced_run():
    from rostcalc import steenrod
    job_list = _sample_jobs()
    plain_out, plain_totals = _run_all(job_list)

    tracer = Tracer()
    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr, _ in tracer._targets()}
    tracer.install()
    try:
        for where, namespace in _rostcalc_namespaces():
            for key, value in namespace.items():
                assert not any(value is fn for fn in originals.values()), \
                    f"{where}.{key} still holds the untraced function"
        traced_out, traced_totals = _run_all(job_list)
    finally:
        tracer.uninstall()
    assert traced_out == plain_out
    assert traced_totals == plain_totals

    layers = tracer.layer_metrics(steenrod._cartan_expand_cached.cache_info())
    for name in ("steenrod.audit_s", "steenrod.classify_calls",
                 "motcoh.enumerate_calls", "rostchow.recurrence_self_s",
                 "corresp.mul_calls", "splitring.mul_calls",
                 "arith.val_calls", "exprlang.ast_nodes", "cli.self_s"):
        assert layers[name] > 0, name
    assert layers["cli.requests"] == 300
    assert layers["cli.nonzero_exits"] == 0
    assert layers["steenrod.verdicts"] == sum(map(sum, plain_totals.values()))
    assert set(layers) | {"trace.overhead_pct", "steenrod.grid_zero",
                          "steenrod.grid_at_least", "steenrod.grid_exact"} \
        == {name for name, _, _, _ in PER_LAYER}
    for owner, attr, _ in tracer._targets():
        assert vars(owner)[attr] is originals[owner, attr]


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    inner = tracer.span("motcoh.enumerate", lambda: sum(range(20000)))
    outer = tracer.span("rostchow.recurrence", lambda: inner() + inner())
    outer()
    from functools import _CacheInfo
    layers = tracer.layer_metrics(_CacheInfo(0, 0, None, 0))
    total = tracer.span_end[0] - tracer.span_start[0]
    children = sum(tracer.span_end[i] - tracer.span_start[i] for i in (1, 2))
    assert layers["rostchow.recurrence_self_s"] == pytest.approx(
        total - children)
    assert layers["motcoh.enumerate_s"] == pytest.approx(children)
    assert layers["motcoh.enumerate_calls"] == 2


def test_job_time_limit_fails_jobs_not_the_pass(monkeypatch, capsys):
    monkeypatch.setattr(child, "JOB_SECONDS", 0.05)
    assert child.main(["--workload", "audit-wide", "--seed", "1"]) == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    final, reports = lines[-1], lines[:-1]
    assert final["done"] and len(reports) == final["jobs"]
    timed_out = [doc for doc in reports if doc["failure"] == "time limit"]
    assert 0 < len(timed_out) < len(reports)
    assert all(doc["ms"] is None for doc in timed_out)
    assert final["wall_s"] == pytest.approx(
        sum(doc["ms"] for doc in reports if doc["ms"] is not None) / 1000.0)


def test_memory_cap_fails_jobs_not_the_pass(monkeypatch):
    monkeypatch.setattr(run, "MEMORY_CAP", 160 * 2 ** 20)
    ops = run.Ops()
    doc = run.run_pass("audit-wide", 1, 0, ops, time.perf_counter() + 120)
    assert doc is not None
    failed = [f for f in ops.failures if "memory limit" in f]
    assert failed and len(ops.failures) < ops.attempted
    assert len(doc["ms"]) == len(doc["scaled_ms"]) == doc["jobs"] - len(failed)


def test_scale_ignores_the_extreme_tenths():
    samples = [REF_S] * 8 + [REF_S / 100, REF_S * 100]
    assert scale(samples) == pytest.approx(1.0)
    assert scale([2 * REF_S] * 5) == pytest.approx(0.5)


def test_a_job_is_scaled_by_the_samples_around_it():
    samples = [(float(t), 2 * REF_S if t == 5 else REF_S) for t in range(10)]
    during, nearest, late = job_scales(
        [(4.0, 6.0), (4.9, 5.0), (20.0, 21.0)], samples)
    assert during == pytest.approx(0.75)  # the samples at 4, 5 and 6
    assert nearest == pytest.approx(2 / 3)  # the samples at 5 and 4
    assert late == pytest.approx(1.0)  # the samples at 8 and 9


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in PER_LAYER]


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_outputs_are_failed_operations():
    runner = jobs.Runner({})
    job = ["audit", "rationality", 5, 2, 0, 0, "sample"]
    assert "differ from the recorded" in runner.run(job)[2]
    runner = jobs.Runner(jobs.load_expected())
    for job in workloads.audit_grid(__import__("random").Random(0))[:3]:
        assert runner.run(job)[2] is None
    assert all(failure for _, failure in runner.final_checks("audit-grid"))


def test_a_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_OUT", "not what params prints\n")
    assert run.main(["--workload", "requests", "--seed", "1",
                     "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == run.SETUP_RUNS + 1
