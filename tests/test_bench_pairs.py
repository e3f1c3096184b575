"""The summary of `scripts/bench_pairs.py` on committed BENCH files: the
per-pair differences, the sign test and the claim rule."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts/bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
METRICS = [(m["name"], m["better"])
           for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _summaries(name):
    """{(workload, seed): the summary of its runs, recomputed} of a BENCH file."""
    bench = json.loads((ROOT / name).read_text())
    out = {(w, bench["seed"]): entry for w, entry in bench["workloads"].items()}
    out.update({(w, entry["seed"]): entry for w, entry in bench["held_out"].items()})
    return {key: bench_pairs.summary(entry["runs"], METRICS) for key, entry in out.items()}


def test_sign_test_p_values():
    assert bench_pairs.sign_test_p(10, 0) == bench_pairs.sign_test_p(0, 10) == 2 / 1024
    assert bench_pairs.sign_test_p(9, 1) == 22 / 1024
    assert round(bench_pairs.sign_test_p(10, 0), 3) == 0.002
    assert round(bench_pairs.sign_test_p(9, 1), 3) == 0.021
    assert bench_pairs.sign_test_p(5, 5) == bench_pairs.sign_test_p(0, 0) == 1.0


@pytest.mark.parametrize("name, seed, wins, median_ms, q1_ms, q3_ms", [
    ("BENCH_30.json", 43, 10, -5.3, -9.2, -4.1),
    ("BENCH_30.json", 5, 10, -5.8, -9.8, -2.8),
    ("BENCH_27.json", 43, 9, -8.0, -9.3, -4.6),
    ("BENCH_27.json", 5, 10, -8.0, -9.3, -5.7),
], ids=["30-seed-43", "30-held-out-5", "27-seed-43", "27-held-out-5"])
def test_the_cold_claims_hold_on_the_pair_differences(name, seed, wins, median_ms, q1_ms, q3_ms):
    """Both claims of BENCH_30.json hold, the held-out one too, which the
    quartile spread of the parent's runs (8.3 ms, from drift) refused; so do
    both of BENCH_27.json, one with a pair the change lost."""
    entry = _summaries(name)["cli-cold", seed]["op_p50_s"]
    assert entry["claim_holds"] and entry["change_better_pairs"] == wins
    assert entry["sign_test_p"] == bench_pairs.sign_test_p(wins, 10 - wins) < 0.05
    diff = entry["difference"]
    assert [round(diff[k] * 1e3, 1) for k in ("median", "q1", "q3")] == [median_ms, q1_ms, q3_ms]
    assert len(entry["differences"]) == entry["pairs"] == 10
    assert max(entry["differences"]) < 0 or wins < 10


@pytest.mark.parametrize("name, workload, seed, metric", [
    ("BENCH_30.json", "cli-cold", 43, "setup_s"),
    ("BENCH_30.json", "exact-family", 43, "op_p50_s"),
    ("BENCH_30.json", "kerr-geometry", 43, "op_p50_s"),
    ("BENCH_27.json", "kerr-geometry", 43, "op_p50_s"),
    ("BENCH_27.json", "exact-family", 43, "op_p50_s"),
], ids=["30-cold-setup", "30-exact", "30-kerr", "27-kerr", "27-exact"])
def test_no_claim_holds_where_the_pairs_disagree(name, workload, seed, metric):
    """Metrics that the change won in 8 of 10 pairs or fewer, or whose
    quartile of differences nearest 0 crosses 0, show no gain."""
    entry = _summaries(name)[workload, seed][metric]
    assert not entry["claim_holds"]
    assert entry["change_better_pairs"] <= 8 or entry["difference"]["q3"] >= 0
