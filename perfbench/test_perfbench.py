"""Tests of the benchmark itself: wrapper coverage, pinned counts, live checks.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cyclogab import certify, cli, construction, linalg, supports  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_pinned_counts_tiny_construct(tracer):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["construct", "--prime", "11", "--n", "6", "--k", "3",
                         "--epsilon", "0.01", "--seed", "1"])
    assert code == 0
    m = tracer.layer_metrics()
    # One draw; three bordered rows; det T in construct and in certify plus
    # the C(6, 3) = 20 minors of the sweep.
    assert m["construction.draws"] == 1
    assert m["linalg.bordered_minor_row.calls"] == 3
    assert m["linalg.det_small.calls"] == 22
    assert m["certify.checked_minors"] == 20
    assert m["construction.draw_success_ratio"] == 1.0


def test_from_imports_are_wrapped_and_restored():
    originals = {name: getattr(mod, name) for mod, name in [
        (construction, "bordered_minor_row"), (certify, "is_independent"),
        (cli, "check_condition"), (construction, "complete_sets")]}
    t = tracing.Tracer()
    t.install()
    try:
        for mod, name in [(construction, "bordered_minor_row"), (certify, "is_independent"),
                          (cli, "check_condition"), (construction, "complete_sets")]:
            assert getattr(mod, name) is not originals[name]
        for modname, attr, _ in tracing.SPANS:
            if "." in attr:
                continue
            original = getattr(sys.modules[modname], attr).__wrapped__
            for name, module in list(sys.modules.items()):
                if name == "cyclogab" or name.startswith("cyclogab."):
                    assert original not in vars(module).values(), (name, attr)
    finally:
        t.uninstall()
    assert construction.bordered_minor_row is originals["bordered_minor_row"]
    assert linalg.bordered_minor_row is originals["bordered_minor_row"]
    assert supports.check_condition is originals["check_condition"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _certify_job(tmp_path):
    jobs, _ = workloads.make_jobs("sweep", 7)
    job = next(j for j in jobs if j["kind"] == "certify")
    workloads.store_result(job, tmp_path)
    return job


def test_stored_sweep_result_passes(tmp_path):
    job = _certify_job(tmp_path)
    runner = run.Pass([job], tmp_path)
    runner.run()
    assert runner.failures == []


def test_tampered_generator_counts_as_failed(tmp_path):
    job = _certify_job(tmp_path)
    path = tmp_path / f"{job['id']}.result.json"
    result = json.loads(path.read_text(encoding="utf-8"))
    result["generator"]["entries"][0][0] = "12345/1"
    path.write_text(json.dumps(result), encoding="utf-8")
    runner = run.Pass([job], tmp_path)
    runner.run()
    assert runner.attempted == 1
    assert len(runner.failures) == 1


def test_wrong_check_verdict_counts_as_failed():
    jobs, _ = workloads.make_jobs("patterns", 3)
    job = next(j for j in jobs if j["kind"] == "check" and j["expect"]["ell"] > j["expect"]["k"])
    stdout = json.dumps({"condition": True, "ell": job["expect"]["k"]})
    with pytest.raises(AssertionError):
        workloads.check_output(job, 0, stdout, "", {})


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_jobs(name, 5) == workloads.make_jobs(name, 5)
        assert workloads.make_jobs(name, 5) != workloads.make_jobs(name, 6)


def test_brute_ell_matches_definition():
    # rows 1 and 2 share columns {1, 2}: 2 + 2 = 4 > k = 3
    assert workloads.brute_ell(3, [[1, 2], [1, 2, 3], [4]]) == 4
    assert workloads.brute_ell(3, [[1], [2], [3]]) == 3


def test_tail_keeps_ten_jobs_above_the_percentile():
    for jobs_per_pass in (12, 34):
        pct = run.tail_percentile(jobs_per_pass)
        times = [float(i) for i in range(run.MIN_PASSES * jobs_per_pass)]
        value = run.percentile(times, pct)
        assert sum(1 for t in times if t > value) >= 10
