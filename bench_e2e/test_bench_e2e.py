"""The benchmark checks itself: one ``run.py --smoke`` report, collected by
tier-1.  Smoke sizes exercise every workload, every check and both passes in
well under a minute; the numbers mean nothing and ``--compare`` refuses them.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(BENCH_DIR / "run.py")]

#: Self times of the staged replay; together they cannot exceed its wall time.
STAGED_LAYERS = ("views.preprocess_s", "lp.formulate_s", "lp.decompose_s",
                 "lp.solve_s", "summary.merge_s", "summary.consistency_s",
                 "summary.relations_s", "service.store_put_s")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_e2e")
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out / "result.json"),
               "--trace-out", str(out / "spans.jsonl")],
        stdout=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stdout
    return {"stdout": done.stdout, "dir": out,
            "result": json.loads((out / "result.json").read_text())}


def test_every_declared_metric_is_reported_with_its_unit(smoke):
    result = smoke["result"]
    assert result["smoke"] is True
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(result["layers"]) == {"wlc", "wls"}
    for entry in result["workloads"].values():
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    for tour in result["layers"].values():
        assert tour["failed"] == 0 and tour["attempted"] > 0
        assert set(tour["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        row = re.compile(rf"^\s+{re.escape(metric['name'])}\s+\S+"
                         rf" {re.escape(metric['unit'])}$", re.MULTILINE)
        assert row.search(smoke["stdout"]), metric["name"]


def test_names_are_plain(smoke):
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_staged_layers_fit_inside_the_traced_build(smoke):
    for tour in smoke["result"]["layers"].values():
        layers = tour["metrics"]
        assert sum(layers[name] for name in STAGED_LAYERS) \
            <= layers["hydra.staged_build_s"]


def test_spans_carry_parents_and_one_trace_per_operation(smoke):
    spans = [json.loads(line)
             for line in (smoke["dir"] / "spans.jsonl").read_text().splitlines()]
    builds = [s for s in spans if s["name"] == "hydra.build"]
    assert len(builds) == 2 and all(s["parent"] is None for s in builds)
    for build in builds:
        children = [s for s in spans if s["parent"] == build["span"]
                    and s["constraint_set"] == build["constraint_set"]]
        assert children and all(s["trace"] == build["trace"] for s in children)
        assert all(build["start"] <= s["start"] <= s["end"] <= build["end"]
                   for s in children)


def test_a_corrupted_shard_fails_the_run():
    done = subprocess.run(
        RUN + ["--workload", "warm_stream", "--seed", "1", "--seconds", "1",
               "--trace", "0", "--smoke", "--inject", "corrupt_shard"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1
    assert "concatenated shards differ" in done.stderr


def test_compare_flags_a_doctored_regression(smoke, tmp_path):
    def write(name, result):
        path = tmp_path / name
        path.write_text(json.dumps(result))
        return str(path)

    def compare(a, b):
        return subprocess.run(RUN + ["--compare", a, b], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60)

    base = dict(smoke["result"], smoke=False)
    doctored = json.loads(json.dumps(base))
    latencies = doctored["workloads"]["cold_wlc"]["end_to_end"]["op_p50_ms"]
    latencies[:] = [1.3 * value for value in latencies]
    a, b = write("a.json", base), write("b.json", doctored)

    same = compare(a, a)
    assert same.returncode == 0 and "worse" not in same.stdout
    worse = compare(a, b)
    assert worse.returncode == 2
    flagged = [row for row in worse.stdout.splitlines() if " worse" in row]
    assert len(flagged) == 1 and flagged[0].split()[:2] == ["cold_wlc", "op_p50_ms"]
    refused = compare(str(smoke["dir"] / "result.json"), a)
    assert refused.returncode == 1 and "smoke" in refused.stderr
