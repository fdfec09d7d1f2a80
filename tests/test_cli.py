import json
import os

import numpy as np
import pytest

from localtriplet.cli import main
from localtriplet.data import load_dataset
from localtriplet.knn import choose_k


BLOB_ARGS = ["--data", "blobs", "--classes", "3", "--per-class", "60",
             "--dim", "6", "--spacing", "30", "--std", "0.5",
             "--data-seed", "5", "--epochs", "2", "--convergence-eps", "0",
             "--seed", "6", "--lr", "0.001"]


def _train_run(tmp_path, extra=()):
    out = tmp_path / "run"
    code = main(["train", "--method", "lm", *BLOB_ARGS, "--out-dir", str(out), *extra])
    assert code == 0
    return out


def test_train_writes_artifacts(tmp_path, capsys):
    out = _train_run(tmp_path)
    for name in ("checkpoint.npz", "epochs.jsonl", "manifest.json",
                 "train.npz", "test.npz"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 6
    assert sorted(manifest["outputs"]) == manifest["outputs"]
    lines = (out / "epochs.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert "wall_time" not in lines[0]


def test_train_writes_phase_timings(tmp_path):
    out = _train_run(tmp_path)
    assert "timings.jsonl" in json.loads((out / "manifest.json").read_text())["outputs"]
    rows = [json.loads(line) for line in (out / "timings.jsonl").read_text().splitlines()]
    assert [row.pop("epoch") for row in rows] == [0, 1]
    for row in rows:
        assert row.pop("peak_rss_mb") > 0.0
        row.pop("snapshot_candidates")
        assert set(row) == {"wall_s", "embed_s", "snapshot_s", "mine_s", "optimize_s"}
        assert row["wall_s"] == pytest.approx(sum(row.values()) - row["wall_s"])
        assert min(row.values()) >= 0.0


def test_train_records_peak_memory_in_timings_only(tmp_path):
    out = _train_run(tmp_path)
    peaks = [json.loads(line)["peak_rss_mb"]
             for line in (out / "timings.jsonl").read_text().splitlines()]
    assert len(peaks) == 2 and 0.0 < peaks[0] <= peaks[1]   # a running maximum
    for line in (out / "epochs.jsonl").read_text().splitlines():
        assert "peak_rss_mb" not in json.loads(line)


def test_train_records_snapshot_candidates_in_timings_only(tmp_path):
    out = _train_run(tmp_path)
    counts = [json.loads(line)["snapshot_candidates"]
              for line in (out / "timings.jsonl").read_text().splitlines()]
    # each anchor recomputes at least its k nearest, and these well-separated
    # blobs keep the screen tight
    k = choose_k(load_dataset(out / "train.npz").n)
    assert len(counts) == 2 and all(k <= c < 2 * k for c in counts)
    for line in (out / "epochs.jsonl").read_text().splitlines():
        assert "snapshot_candidates" not in json.loads(line)
    # methods without a snapshot write no count
    out = tmp_path / "mm"
    assert main(["train", "--method", "mm", *BLOB_ARGS, "--out-dir", str(out)]) == 0
    for line in (out / "timings.jsonl").read_text().splitlines():
        assert "snapshot_candidates" not in json.loads(line)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method, cause", [
    ("mm", "non-finite batch loss"),
    ("lm_mining", "non-finite embedding at the start of epoch"),
])
def test_train_divergence_exit_4(tmp_path, capsys, method, cause):
    code = main(["train", "--method", method, "--data", "blobs", "--classes", "3",
                 "--per-class", "20", "--dim", "4", "--arch", "mlp:8,4", "--epochs", "3",
                 "--lr", "1e300", "--out-dir", str(tmp_path / "r")])
    assert code == 4
    assert cause in capsys.readouterr().err


def test_train_missing_data_path_exit_3(tmp_path, capsys):
    code = main(["train", "--data", "mnist", "--train-dir", str(tmp_path / "nope"),
                 "--out-dir", str(tmp_path / "r")])
    assert code == 3
    err = capsys.readouterr().err
    assert "nope" in err


def test_train_bad_config_exit_2(tmp_path, capsys):
    code = main(["train", "--method", "lm", *BLOB_ARGS,
                 "--c-b", "1.0", "--out-dir", str(tmp_path / "r")])
    assert code == 2
    assert "c_b" in capsys.readouterr().err


def test_eval_separable_blobs_high_accuracy(tmp_path, capsys):
    out = _train_run(tmp_path)
    code = main(["eval", "--run-dir", str(out)])
    assert code == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert report["accuracy"] >= 0.99
    assert "knn accuracy" in capsys.readouterr().out


def test_eval_k_override_reported(tmp_path, capsys):
    out = _train_run(tmp_path)
    code = main(["eval", "--run-dir", str(out), "--k", "1"])
    assert code == 0
    assert "(k=1)" in capsys.readouterr().out
    assert json.loads((out / "eval_report.json").read_text())["k"] == 1


def test_eval_reruns_byte_identical(tmp_path, capsys):
    out = _train_run(tmp_path)
    assert main(["eval", "--run-dir", str(out)]) == 0
    first = (out / "eval_report.json").read_bytes()
    assert main(["eval", "--run-dir", str(out)]) == 0
    assert (out / "eval_report.json").read_bytes() == first


def test_train_reruns_byte_identical(tmp_path):
    out1 = _train_run(tmp_path / "a")
    out2 = _train_run(tmp_path / "b")
    assert (out1 / "epochs.jsonl").read_bytes() == (out2 / "epochs.jsonl").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_verify_command_writes_reports(tmp_path, capsys):
    out = _train_run(tmp_path)
    code = main(["verify", "--run-dir", str(out)])
    assert code == 0
    assert (out / "verify_summary.json").exists()
    assert (out / "violations.csv").exists()
    assert (out / "purity.csv").exists()
    summary = json.loads((out / "verify_summary.json").read_text())
    assert {"purity", "n_violations", "outliers"} <= set(summary)


def test_verify_uses_trained_config_from_manifest(tmp_path, capsys):
    out = _train_run(tmp_path, extra=("--k", "5", "--c-b", "5"))
    assert main(["verify", "--run-dir", str(out)]) == 0
    summary = json.loads((out / "verify_summary.json").read_text())
    assert (summary["k"], summary["c_b"], summary["eps"]) == (5, 5.0, 1e-3)
    assert summary["sources"] == {"k": "manifest", "c_b": "manifest", "eps": "manifest"}
    assert main(["verify", "--run-dir", str(out), "--k", "3"]) == 0
    summary = json.loads((out / "verify_summary.json").read_text())
    assert (summary["k"], summary["sources"]["k"]) == (3, "flag")
    (out / "manifest.json").unlink()
    assert main(["eval", "--run-dir", str(out)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert report["sources"] == {"k": "default"}


def test_export_scatter(tmp_path):
    out = _train_run(tmp_path)
    code = main(["export-scatter", "--run-dir", str(out)])
    assert code == 0
    lines = (out / "scatter.csv").read_text().splitlines()
    assert lines[0] == "query_id,x,y,label,status"
    assert len(lines) == 1 + json.loads((out / "eval_report.json").read_text()
                                        if (out / "eval_report.json").exists()
                                        else '{"n_queries": 60}').get("n_queries", 60)


def test_compare_table(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", *BLOB_ARGS, "--epochs", "1", "--batch-size", "32",
                 "--out-dir", str(out)])
    assert code == 0
    table = (out / "compare.csv").read_text().splitlines()
    assert table[0] == "method,accuracy,epochs,stop_reason"
    methods = [row.split(",")[0] for row in table[1:]]
    assert methods == ["lm", "lm_mining", "mm", "mm_hardmin", "softmax"]
    for method in methods:
        assert (out / method / "checkpoint.npz").exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\nseed = 99\n# comment\nlr = 0.002\n")
    out = tmp_path / "run"
    code = main(["train", "--method", "lm", *BLOB_ARGS[:-8],
                 "--seed", "6", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 1      # from file
    assert manifest["config"]["seed"] == 6        # flag wins over file
    assert manifest["config"]["lr"] == 0.002      # from file


def test_config_file_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_option = 4\n")
    code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "r")])
    assert code == 2


def test_runs_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LOCALTRIPLET_RUNS_DIR", str(tmp_path / "custom"))
    monkeypatch.chdir(tmp_path)
    code = main(["train", "--method", "lm", *BLOB_ARGS])
    assert code == 0
    runs = list((tmp_path / "custom").iterdir())
    assert len(runs) == 1
    assert runs[0].name.endswith("-lm")


def test_fetch_mnist_offline_exit_3(tmp_path, capsys):
    code = main(["fetch-mnist", "--dest", str(tmp_path / "mnist")])
    assert code == 3
    assert "download failed" in capsys.readouterr().err


def test_blobs_packing_failure_exit_3(tmp_path, capsys):
    code = main(["train", "--data", "blobs", "--classes", "50", "--per-class", "2",
                 "--dim", "1", "--spacing", "10", "--std", "0.1",
                 "--out-dir", str(tmp_path / "r")])
    assert code == 3
    assert "packing_failed" in capsys.readouterr().err
