"""tools/benchpair.py on canned perfbench output: parsing, summary and table, no subprocess."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import benchpair  # noqa: E402

sys.path.pop(0)

SPEC = [{"name": "train_items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
FP = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas",
      "blas_version": "0.3.30", "blas_threads": 2, "nproc": 2, "cpu": "x"}


def canned_output(train, rss, failed=0, seed=101):
    """The tail of one perfbench/run.py --trace 0 run, as it prints it."""
    metrics = {"train_items_per_s": {"value": train, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        f"workload cifar_train seed {seed} seconds 30 trace 0",
        "fingerprint " + json.dumps({**FP, "seed": seed}, sort_keys=True),
        f"train_img_per_s {train:14.3f} img/s  (100 untraced steps)",
        'counts {"tensor.fwd_flops": 1}',
        json.dumps({"correct": failed == 0, "attempted": 50, "failed": failed,
                    "metrics": metrics}),
        ""])


def canned_doc():
    runs = [((350.0, 246.5), (352.0, 221.3)),
            ((360.0, 246.6), (360.0, 221.2)),      # a tie in throughput
            ((340.0, 246.4), (330.0, 221.4)),
            ((355.0, 246.5), (365.0, 246.6))]      # the change loses on memory
    pairs = []
    for i, (par, chg) in enumerate(runs, 1):
        seed = 100 + i
        pairs.append({"seed": seed, "first": "parent" if i % 2 else "change",
                      "parent": benchpair.parse_run(canned_output(*par, seed=seed)),
                      "change": benchpair.parse_run(canned_output(*chg, seed=seed))})
    for p in pairs:
        for side in benchpair.SIDES:
            assert p[side].pop("fingerprint") == FP
    return {"workload": "cifar_train", "seconds": 30.0, "fingerprint": FP,
            "parent": {"rev": "a" * 40, "src_tree": "c" * 40},
            "change": {"rev": "b" * 40, "src_tree": "d" * 40},
            "seeds": [p["seed"] for p in pairs], "pairs": pairs,
            "summary": benchpair.summarize(pairs, SPEC)}


def test_parse_run_reads_the_last_line_and_the_fingerprint():
    res = benchpair.parse_run(canned_output(352.5, 221.25, failed=2))
    assert res == {"metrics": {"train_items_per_s": 352.5, "peak_rss_mb": 221.25},
                   "failed": 2, "attempted": 50, "fingerprint": FP}


def test_quantile_interpolates_like_numpy_percentile():
    assert benchpair.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert benchpair.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0
    assert benchpair.quantile([1.0, 2.0, 3.0, 4.0], 0.75) == 3.25
    assert benchpair.quantile([7.0], 0.25) == 7.0


def test_summary_medians_quartiles_and_wins():
    s = canned_doc()["summary"]
    train, rss = s["train_items_per_s"], s["peak_rss_mb"]
    assert train["parent"] == {"median": 352.5, "q1": 347.5, "q3": 356.25}
    assert train["change"]["median"] == 356.0
    # 352 > 350 and 365 > 355 win, 360 = 360 ties, 330 < 340 loses
    assert train["change_wins"] == 2
    # lower is better for memory: three of four pairs
    assert rss["change_wins"] == 3 and rss["better"] == "lower"
    assert rss["parent"]["median"] == pytest.approx(246.5)
    assert rss["change"]["median"] == pytest.approx(221.35)


def test_table_lists_every_pair_and_every_metric():
    text = benchpair.table(canned_doc())
    lines = text.splitlines()
    assert lines[0].startswith("cifar_train: 4 pairs of 30 s runs, seeds 101-104, "
                               "parent aaaaaaa -> change bbbbbbb")
    assert [line.split()[:4] for line in lines[2:6]] == [
        ["1", "101", "parent", "0/0"], ["2", "102", "change", "0/0"],
        ["3", "103", "parent", "0/0"], ["4", "104", "change", "0/0"]]
    assert lines[-2].split() == ["train_items_per_s", "352.5", "356", "8.75", "14.8",
                                 "+1.0%", "2/4"]
    assert lines[-1].split()[0] == "peak_rss_mb" and lines[-1].endswith("3/4")


def test_table_reads_a_written_file(tmp_path, capsys):
    path = tmp_path / "BENCH_cifar_train.json"
    path.write_text(json.dumps(canned_doc()))
    assert benchpair.main(["--table", str(path)]) == 0
    assert capsys.readouterr().out.rstrip("\n") == benchpair.table(canned_doc())
