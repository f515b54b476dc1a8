"""Tests of the benchmark itself: every workload runs a few ops, every check
rejects a wrong answer, and the traced counts match the engine's output.

Run with ``python -m pytest -q bench``; each test uses small inputs.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

if not run.use_sources():
    pytest.skip("the checkout has no src/insiderctl to measure", allow_module_level=True)

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from insiderctl import ctl, modelfile  # noqa: E402
from insiderctl.model import CondNot, CondOr, HasRole  # noqa: E402

END_TO_END = {"setup_s", "op_tail_ms", "peak_rss_mb"}
SMALL_PROFILE = {1: 2, 2: 2, 3: 2, 4: 1}


def small(name, tmp_path):
    """A workload with inputs small enough for a unit test."""
    return {
        "paper_queries": lambda: workloads.PaperQueries(tmp_path),
        "airplane_scaled": lambda: workloads.AirplaneScaled(passengers=0),
        "formula_battery": lambda: workloads.FormulaBattery(passengers=1),
        "random_models": lambda: workloads.RandomModels(SMALL_PROFILE),
    }[name]()


def run_small(wl, trace=False, ops=2):
    return run.run_workload(wl.name, 3, 0, trace, least_ops=ops, wl=wl)


@pytest.mark.parametrize("name", run.NAMES + run.EXTRA)
def test_each_workload_runs_a_few_ops(name, tmp_path):
    wl = small(name, tmp_path)
    result, report = run_small(wl)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == wl.warmup + 2 == wl.warmup + report["ops_measured"]
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def corrupt(wl, mutate):
    """Make every op of ``wl`` hand ``mutate``d outputs to the check."""
    op = wl.op

    def wrong(inputs_):
        out = op(inputs_)
        return mutate(out) or out

    wl.op = wrong
    return wl


def drop_last_state(k):
    k.states.pop()
    k.graphs.pop()
    k.edges.pop()


def minus_one(verdict):
    return dataclasses.replace(verdict, sat=verdict.sat - {max(verdict.sat)})


def airplane_state_off_by_one(out):
    drop_last_state(out[0])


def airplane_dot_edge_missing(out):
    k, edges, dot, verdict = out
    lines = dot.splitlines(keepends=True)
    del lines[max(i for i, line in enumerate(lines) if " -> " in line)]
    return k, edges, "".join(lines), verdict


def airplane_sat_missing_state(out):
    k, edges, dot, verdict = out
    return k, edges, dot, minus_one(verdict)


def battery_sat_missing_state(out):
    verdict, trace = out[6]
    out[6] = (minus_one(verdict), trace)


def battery_trace_too_long(out):
    verdict, trace = out[6]
    longer = ctl.TracePath(trace.states + trace.states[-1:], trace.labels + trace.labels[-1:])
    out[6] = (verdict, longer)


def random_ef_goal_missing_state(out):
    for i, (k, verdicts, trace) in enumerate(out):
        if verdicts[0].sat:
            out[i] = (k, [minus_one(verdicts[0])] + verdicts[1:], trace)
            return


def random_state_off_by_one(out):
    k = next(k for k, _, _ in out if len(k.states) > 1)
    drop_last_state(k)


def paper_states_off_by_one(out):
    code, text = out[1]
    out[1] = (code, text.replace("states explored: 21", "states explored: 22"))


def paper_exit_code_wrong(out):
    out[0] = (1, out[0][1])


@pytest.mark.parametrize(
    "name,mutate",
    [
        ("airplane_scaled", airplane_state_off_by_one),
        ("airplane_scaled", airplane_dot_edge_missing),
        ("airplane_scaled", airplane_sat_missing_state),
        ("formula_battery", battery_sat_missing_state),
        ("formula_battery", battery_trace_too_long),
        ("random_models", random_ef_goal_missing_state),
        ("random_models", random_state_off_by_one),
        ("paper_queries", paper_states_off_by_one),
        ("paper_queries", paper_exit_code_wrong),
    ],
)
def test_checks_reject_a_wrong_answer(name, mutate, tmp_path):
    wl = corrupt(small(name, tmp_path), mutate)
    result, _ = run_small(wl, ops=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == wl.warmup + 1


def test_traced_counts_match_the_engine():
    wl = workloads.AirplaneScaled(passengers=0)
    first, report = run_small(wl, trace=True)
    again, _ = run_small(workloads.AirplaneScaled(passengers=0), trace=True)
    k = ctl.reachable(modelfile.parse_model(modelfile.serialize_model(inputs.scaled_airplane(0))))
    metric = {key: m["value"] for key, m in first["metrics"].items()}
    assert metric["ctl.states"] == len(k.states) == 243
    assert metric["transition.edges"] == sum(len(out) for out in k.edges)
    assert metric["transition.successors_calls"] == len(k.states)
    assert metric["modelfile.parse_calls"] == 1 and metric["ctl.check_calls"] == 1
    assert 0 < metric["ctl.new_state_ratio"] < 1 and 0 < metric["ctl.distinct_edge_ratio"] < 1
    assert report["absent"] == []
    counts = [key for key, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert [metric[c] for c in counts if c != "python.gc_collections"] == [
        again["metrics"][c]["value"] for c in counts if c != "python.gc_collections"
    ]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    traced, _ = run_small(workloads.AirplaneScaled(passengers=0), trace=True, ops=1)
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]


def test_random_batch_fills_its_profile_within_the_state_bound():
    indices = inputs.select_batch(5, SMALL_PROFILE, lambda m: len(oracles.o_reach(m)[0]))
    assert indices == inputs.select_batch(5, SMALL_PROFILE, lambda m: len(oracles.o_reach(m)[0]))
    sizes = [len(oracles.o_reach(m)[0]).bit_length() for m in inputs.batch(5, indices)]
    assert sorted(sizes) == sorted(b for b, n in SMALL_PROFILE.items() for _ in range(n))
    for i in range(200):
        model = inputs.candidate(7, i)
        if inputs.state_bound(model) <= 4 * inputs.STATE_BOUND:
            assert len(oracles.o_reach(model)[0]) <= inputs.state_bound(model)


def test_random_batch_exercises_every_rule_and_condition_kind():
    wl = workloads.RandomModels()
    wl.prepare(1)
    models = inputs.batch(1, wl.indices)
    conditions = set()

    def walk(c):
        conditions.add(type(c))
        for child in vars(c).values():
            if hasattr(child, "__dataclass_fields__") and type(child).__module__ == c.__module__:
                walk(child)

    for m in models:
        for pols in m.policy_map.values():
            for pol in pols:
                walk(pol.condition)
    assert {HasRole, CondNot, CondOr} <= conditions
    assert any(m.insiders for m in models) and any(m.assumptions for m in models)
    out = wl.op(wl.setup())
    rules = {label.rule for k, _, _ in out for edges in k.edges for label, _ in edges}
    assert "get" in rules
    assert any(not edges for k, _, _ in out for edges in k.edges)


def test_battery_covers_every_operator_to_depth_three():
    ops = set()

    def depth(f):
        if isinstance(f, str):
            return 0
        ops.add(f[0])
        return max(depth(a) for a in f[1:]) + (f[0] not in ("not", "and", "or"))

    assert max(depth(f) for f in inputs.BATTERY) == 3
    assert {"EX", "AX", "EF", "AF", "EG", "AG", "EU", "AU", "ER", "AR"} <= ops


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "airplane_scaled", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
