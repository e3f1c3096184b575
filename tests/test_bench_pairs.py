"""The summary of `scripts/bench_pairs.py` on committed BENCH files and on
hand-made runs: the per-pair differences, the win count and the claim rule."""

import importlib.util
import json
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts/bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
METRICS = [(m["name"], m["better"])
           for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
#: the committed BENCH files that hold paired runs
BENCH_FILES = sorted((p.name for p in ROOT.glob("BENCH_*.json")
                      if "seed" in json.loads(p.read_text())), key=lambda n: int(n[6:-5]))


def _runs(name):
    """{(workload, seed): the runs} of a BENCH file, the held-out ones too."""
    bench = json.loads((ROOT / name).read_text())
    out = {(w, bench["seed"]): entry["runs"] for w, entry in bench["workloads"].items()}
    held_out = bench.get("held_out", {})
    out.update({(w, entry["seed"]): entry["runs"] for w, entry in held_out.items()})
    return out


def _summaries(name):
    """{(workload, seed): the summary of its runs, recomputed} of a BENCH file."""
    return {key: bench_pairs.summary(runs, METRICS) for key, runs in _runs(name).items()}


def _gap_and_spread(entry):
    """How far the change's median lies beyond the parent's on the better
    side, and the parent's q3 - q1."""
    gap = entry["change"]["median"] - entry["parent"]["median"]
    parent = entry["parent"]
    return (-gap if entry["better"] == "lower" else gap), parent["q3"] - parent["q1"]


def test_the_rule_is_the_acceptance_rule_on_every_committed_entry():
    """On every metric entry with runs of every committed BENCH file,
    `claim_holds` reads true exactly when the change won at least 9 of the
    10 pairs and its median lies on the better side of the parent's, further
    from it than the parent's q3 - q1, all recomputed here from the runs.
    The 17 files up to BENCH_35.json hold 275 such entries, of which 49 hold
    (64 under the difference-quartile and sign-test rule of those files)."""
    verdicts = {}
    for name in BENCH_FILES:
        for key, runs in _runs(name).items():
            summary = bench_pairs.summary(runs, METRICS)
            for metric, better in METRICS:
                side = {s: {r["pair"]: r["result"]["metrics"][metric]["value"]
                            for r in runs if r["side"] == s} for s in ("parent", "change")}
                sign = -1 if better == "lower" else 1
                wins = sum(sign * (side["change"][k] - side["parent"][k]) > 0
                           for k in side["parent"])
                q1, _, q3 = statistics.quantiles(side["parent"].values(), n=4)
                gap = sign * (statistics.median(side["change"].values())
                              - statistics.median(side["parent"].values()))
                holds = len(side["parent"]) == 10 and wins >= 9 and gap > 0 and gap > q3 - q1
                assert summary[metric]["claim_holds"] == holds, (name, key, metric)
                verdicts[name, key, metric] = holds
    up_to_35 = [holds for (name, *_), holds in verdicts.items() if int(name[6:-5]) <= 35]
    assert len(up_to_35) == 275 and sum(up_to_35) == 49


@pytest.mark.parametrize("name, workload, seed, metric", [
    ("BENCH_12.json", "exact-family", 43, "peak_rss_mb"),
    ("BENCH_15.json", "exact-family", 43, "setup_s"),
    ("BENCH_15.json", "kerr-geometry", 43, "peak_rss_mb"),
    ("BENCH_21.json", "kerr-geometry", 43, "op_p50_s"),
    ("BENCH_21.json", "kerr-geometry", 43, "op_tail_s"),
    ("BENCH_27.json", "cli-cold", 43, "setup_s"),
    ("BENCH_30.json", "exact-family", 43, "ops_per_s"),
    ("BENCH_30.json", "cli-cold", 5, "op_p50_s"),
    ("BENCH_30.json", "cli-cold", 5, "op_tail_s"),
    ("BENCH_30.json", "cli-cold", 5, "ops_per_s"),
    ("BENCH_32.json", "kerr-geometry", 5, "peak_rss_mb"),
    ("BENCH_34.json", "exact-family", 43, "peak_rss_mb"),
    ("BENCH_35.json", "kerr-geometry", 43, "op_p50_s"),
    ("BENCH_35.json", "kerr-geometry", 43, "op_tail_s"),
    ("BENCH_35.json", "kerr-geometry", 43, "ops_per_s"),
])
def test_every_pair_won_inside_the_parent_spread_is_refused(name, workload, seed, metric):
    """The 15 entries that the difference-quartile and sign-test rule of
    earlier BENCH files accepted: the change won at least 9 pairs, and the
    quartile of the differences nearest 0 lies on the better side, but the
    medians are no further apart than the parent's q3 - q1."""
    entry = _summaries(name)[workload, seed][metric]
    gap, spread = _gap_and_spread(entry)
    near_zero = entry["difference"]["q3" if entry["better"] == "lower" else "q1"]
    assert entry["change_better_pairs"] >= 9 and (near_zero < 0) == (entry["better"] == "lower")
    assert gap <= spread and not entry["claim_holds"]


@pytest.mark.parametrize("name, workload, seed, holds, wins, medians_ms, spread_ms", [
    ("BENCH_32.json", "kerr-geometry", 43, True, 9, (8.00, 7.37), 0.46),
    ("BENCH_32.json", "kerr-geometry", 5, True, 10, (8.08, 7.35), 0.07),
    ("BENCH_35.json", "kerr-geometry", 43, False, 10, (7.37, 7.22), 0.19),
    ("BENCH_21.json", "kerr-geometry", 43, False, 10, (10.46, 10.09), 0.39),
    ("BENCH_30.json", "cli-cold", 5, False, 10, (87.16, 81.62), 8.30),
], ids=["32-kerr", "32-kerr-held-out-5", "35-kerr", "21-kerr", "30-cold-held-out-5"])
def test_the_op_p50_verdicts(name, workload, seed, holds, wins, medians_ms, spread_ms):
    """The `kerr-geometry` claim of BENCH_32.json holds at both seeds; the
    other three won every pair, with medians closer than the parent's
    quartile spread."""
    entry = _summaries(name)[workload, seed]["op_p50_s"]
    assert entry["claim_holds"] == holds and entry["change_better_pairs"] == wins
    medians = tuple(round(entry[s]["median"] * 1e3, 2) for s in ("parent", "change"))
    assert medians == medians_ms
    assert round(_gap_and_spread(entry)[1] * 1e3, 2) == spread_ms


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_the_rule_on_hand_made_runs(better):
    """Nine wins hold only with the medians further apart than the parent's
    q3 - q1 (5.5 here); a tie is no win."""
    sign = -1 if better == "lower" else 1
    parent = [10 + k for k in range(10)]

    def verdict(moves):
        change = [p + sign * m for p, m in zip(parent, moves)]
        runs = [{"pair": k, "side": side, "value": v}
                for side, values in (("parent", parent), ("change", change))
                for k, v in enumerate(values, 1)]
        entry = bench_pairs.compare(runs, lambda r: r["value"], better)
        return entry["claim_holds"], entry["change_better_pairs"]

    assert verdict([1] * 9 + [-1]) == (False, 9)
    assert verdict([8] * 9 + [-1]) == (True, 9)
    assert verdict([10] * 10) == (True, 10)
    assert verdict([10] * 8 + [0, -1]) == (False, 8)
    assert verdict([10] * 8 + [1e-9, -1]) == (True, 9)
    assert verdict([-6] * 9 + [1]) == (False, 1)


@pytest.mark.parametrize("name, seed, holds, wins, median_ms, q1_ms, q3_ms", [
    ("BENCH_30.json", 43, True, 10, -5.3, -9.2, -4.1),
    ("BENCH_30.json", 5, False, 10, -5.8, -9.8, -2.8),
    ("BENCH_27.json", 43, True, 9, -8.0, -9.3, -4.6),
    ("BENCH_27.json", 5, True, 10, -8.0, -9.3, -5.7),
], ids=["30-seed-43", "30-held-out-5", "27-seed-43", "27-held-out-5"])
def test_the_cold_claims_hold_on_the_pair_differences(name, seed, holds, wins, median_ms,
                                                      q1_ms, q3_ms):
    """Both claims of BENCH_27.json hold, one with a pair the change lost, and
    so does the seed-43 claim of BENCH_30.json.  Its held-out claim won all 10
    pairs, and every quartile of the differences lies below 0, but the quartile
    spread of the parent's runs (8.3 ms, from drift) is wider than the 5.5 ms
    between the medians, so it is refused."""
    entry = _summaries(name)["cli-cold", seed]["op_p50_s"]
    assert entry["claim_holds"] == holds and entry["change_better_pairs"] == wins
    gap, spread = _gap_and_spread(entry)
    assert (gap > spread) == holds
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
    """Metrics that the change won in 8 of 10 pairs or fewer, or whose medians
    lie no further apart than the parent's quartile spread, show no gain."""
    entry = _summaries(name)[workload, seed][metric]
    gap, spread = _gap_and_spread(entry)
    assert not entry["claim_holds"]
    assert entry["change_better_pairs"] <= 8 or gap <= spread
