"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run seconds-fast variants of each workload in-process.
"""

import json
import sys
from dataclasses import replace

import pytest

from run import HERE, SRC  # also pins the native thread pools to one thread

sys.path.insert(0, str(SRC))

import harness  # noqa: E402
from pipeline import reference_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload):
    """A seconds-fast variant of a workload with the same code paths."""
    if workload.generator == "stereo":
        params = dict(workload.params, width=5, height=4, labels=3)
        return replace(workload, params=params, pool=2, instance_seconds=1.0, passes=4)
    if workload.generator == "potts":
        params = dict(workload.params, width=4, height=4, labels=2)
        return replace(workload, params=params, pool=3, instance_seconds=1.0)
    return replace(workload, pool=6, instance_seconds=0.25)


def tiny_refs(w):
    return {i: reference_trace(w, i) for i in range(w.pool)}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_workload(request):
    w = tiny(WORKLOADS[request.param])
    return w, tiny_refs(w)


@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(tiny_workload, traced, tmp_path):
    w, refs = tiny_workload
    report, result = harness.run(w, 3, 1.0, traced, refs, tmp_path / "spans.jsonl")
    if traced:
        units = {n: u for n, (u, _) in harness.PER_LAYER.items()}
    else:
        units = {n: harness.END_TO_END[n] for n in harness.GATED}
        named = {n: m["unit"] for n, m in report["end_to_end"].items()}
        assert named == {n: u for n, u in harness.END_TO_END.items() if n != "pass_ms.p90"}
        assert report["pass_ms_samples"] == result["metrics"]["passes"]["value"] < 100
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] == len(report["instances"]) + 1
    assert report["env"]["threads"]["OMP_NUM_THREADS"] == "1" and report["env"]["nproc"] >= 1
    if traced:
        values = {n: m["value"] for n, m in result["metrics"].items()}
        assert values["trws.bound_s"] + values["trws.msg_s"] == pytest.approx(values["trws.pass_s"])
        assert values["trws.bound_s"] > 0 and values["cli.run_s"] > 0
        spans = [json.loads(ln) for ln in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert len(spans) == report["spans"]
        assert {"name", "start", "end", "parent", "instance"} <= set(spans[0])


def test_benchmark_json_lists_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        n: harness.END_TO_END[n] for n in harness.GATED
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        n: u for n, (u, _) in harness.PER_LAYER.items()
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_perturbed_reference_trips_the_bound_check():
    w = tiny(WORKLOADS["nested-mix"])
    refs = tiny_refs(w)
    _, clean = harness.run(w, 5, 1.0, False, refs)
    assert clean["correct"] and clean["failed"] == 0

    first = w.pick(5, 1.0)[0]
    refs[first] = list(refs[first])
    refs[first][-1] *= 1 + 1e-7
    report, bad = harness.run(w, 5, 1.0, False, refs)
    assert not bad["correct"] and bad["failed"] == 1
    assert "differs from reference" in report["failures"][str(first)][0]
    assert bad["metrics"]["ok_rate"]["value"] < clean["metrics"]["ok_rate"]["value"]
    assert report["end_to_end"]["fail_rate"]["value"] == 1 / bad["attempted"]


def test_missing_reference_counts_as_failed():
    w = tiny(WORKLOADS["potts-32"])
    report, result = harness.run(w, 1, 1.0, False, {})
    assert not result["correct"]
    assert result["failed"] == len(report["instances"])


def test_seed_fixes_the_inputs():
    for w in WORKLOADS.values():
        assert w.pick(7, 20) == w.pick(7, 20)
        assert len(set(w.pick(7, 20))) == w.batch_size(20)
    assert WORKLOADS["nested-mix"].pick(7, 20) != WORKLOADS["nested-mix"].pick(8, 20)


def test_checked_in_references_cover_every_pool_instance():
    for w in WORKLOADS.values():
        refs = harness.load_references(w)
        assert sorted(refs) == list(range(w.pool)), w.name
    assert harness.load_references(replace(WORKLOADS["potts-32"], passes=3)) == {}
