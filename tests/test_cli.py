import gzip
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

import localtriplet
from localtriplet import cli, network
from localtriplet.cli import COMMANDS, main
from localtriplet.data import Dataset, load_dataset, save_dataset
from localtriplet.knn import choose_k
from localtriplet.network import EmbeddingNet, save_checkpoint


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_non_finite_parameters_after_last_step_exit_4(tmp_path, capsys):
    # the run's only epoch ends on the step that overflows the parameters,
    # so no later loss or embedding shows it
    out = tmp_path / "r"
    code = main(["train", "--method", "mm", "--lr", "1e305", "--epochs", "1",
                 "--classes", "3", "--per-class", "20", "--convergence-eps", "0",
                 "--out-dir", str(out)])
    assert code == 4
    assert "non-finite parameters after epoch 0" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_records_environment(tmp_path):
    out = _train_run(tmp_path)
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["numpy"] == np.__version__
    assert env["python"].count(".") == 2
    assert env["cpus"] >= 1
    assert env["blas_threads"] == network.BLAS_THREADS
    assert env["stage_threads"] == network.STAGE_THREADS
    # numpy's OpenBLAS runs one thread whatever OPENBLAS_NUM_THREADS says,
    # and the image stage's pool one per CPU; with no setter, a pool of one
    assert env["blas_threads"] in (1, None)
    assert env["stage_threads"] == (env["cpus"] if env["blas_threads"] else 1)


@pytest.mark.parametrize("method", ["lm", "lm_mining", "mm", "mm_hardmin"])
def test_train_without_a_trainable_anchor_exit_3(tmp_path, capsys, method):
    # six classes of one sample each: no anchor has a positive, so no triplet
    out = tmp_path / "r"
    code = main(["train", "--data", "blobs", "--classes", "6", "--per-class", "1",
                 "--k", "1", "--epochs", "5", "--method", method, "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "no_positive: no class holds two samples" in err
    assert not (out / "epochs.jsonl").exists()


def _strict_json(text):
    """json.loads that rejects NaN and infinities, as strict parsers do."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_non_finite_report_value_is_a_numeric_failure(tmp_path):
    from localtriplet.cli import _write_json
    from localtriplet.training import DivergedError
    with pytest.raises(DivergedError, match="non-finite value for report.json"):
        _write_json(tmp_path / "report.json", {"worst_residual": float("inf")})
    assert not (tmp_path / "report.json").exists()


def test_every_json_artifact_is_strict_json(tmp_path, capsys):
    run = _train_run(tmp_path)
    assert main(["eval", "--run-dir", str(run)]) == 0
    assert main(["verify", "--run-dir", str(run)]) == 0
    compare = tmp_path / "compare"
    assert main(["compare", *BLOB_ARGS, "--epochs", "1", "--batch-size", "32",
                 "--out-dir", str(compare)]) == 0
    capsys.readouterr()
    paths = [*run.iterdir(), *compare.rglob("*")]
    names = {p.name for p in paths if p.suffix in (".json", ".jsonl")}
    assert {"manifest.json", "epochs.jsonl", "timings.jsonl", "eval_report.json",
            "verify_summary.json"} <= names
    for path in paths:
        if path.suffix == ".json":
            _strict_json(path.read_text())
        elif path.suffix == ".jsonl":
            for line in path.read_text().splitlines():
                _strict_json(line)
        elif path.suffix == ".npz":
            with np.load(path) as z:
                _strict_json(bytes(z["meta"]).decode())


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


def test_export_scatter_1d_embedding(tmp_path, capsys):
    out = _train_run(tmp_path, extra=("--arch", "mlp:4,1"))
    assert main(["export-scatter", "--run-dir", str(out)]) == 0
    rows = [line.split(",") for line in (out / "scatter.csv").read_text().splitlines()[1:]]
    assert len(rows) == 60 and all(float(row[2]) == 0.0 for row in rows)


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


def _offline(url, timeout):
    raise urllib.error.URLError("no network")


def test_fetch_mnist_offline_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(urllib.request, "urlopen", _offline)
    code = main(["fetch-mnist", "--dest", str(tmp_path / "mnist")])
    assert code == 3
    assert "download failed" in capsys.readouterr().err


def _serve_mnist(monkeypatch):
    """{file name: payload}: urlopen answers each MNIST_FILES download with
    a payload of its expected size."""
    payloads = {name + ".gz": bytes([i + 1]) * size
                for i, (name, size) in enumerate(cli.MNIST_FILES.values())}
    monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: io.BytesIO(
        payloads[url.removeprefix(cli.MNIST_MIRROR)]))
    return payloads


def test_fetch_mnist_writes_each_file_whole(tmp_path, monkeypatch):
    payloads = _serve_mnist(monkeypatch)
    dest = tmp_path / "mnist"
    assert main(["fetch-mnist", "--dest", str(dest)]) == 0
    assert {path.name: path.read_bytes() for path in dest.iterdir()} == payloads
    # a second fetch finds every file present
    monkeypatch.setattr(urllib.request, "urlopen", _offline)
    assert main(["fetch-mnist", "--dest", str(dest)]) == 0


def test_fetch_mnist_leaves_no_partial_file(tmp_path, monkeypatch):
    # a download whose write never reaches its rename, as in a fetch killed
    # mid-write, leaves nothing under a real name
    _serve_mnist(monkeypatch)

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    dest = tmp_path / "mnist"
    assert main(["fetch-mnist", "--dest", str(dest)]) == 3
    assert list(dest.iterdir()) == []


def test_fetch_mnist_help_shows_dest(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["fetch-mnist", "--help"])
    assert exit_.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--dest DEST directory for the IDX .gz files (default data/mnist)" in out


def test_train_on_a_cut_gz_idx_file_exit_3(tmp_path, capsys):
    # gzip reports a stream cut short as an EOFError: a truncated file,
    # named, and no run directory
    idx = Path(_idx_dir(tmp_path / "idx"))
    images = idx / "train-images-idx3-ubyte"
    packed = gzip.compress(images.read_bytes())
    images.unlink()
    cut = idx / "train-images-idx3-ubyte.gz"
    cut.write_bytes(packed[:len(packed) // 2])
    capsys.readouterr()
    code = main(["train", "--data", "mnist", "--train-dir", str(idx), "--epochs", "1",
                 "--out-dir", str(tmp_path / "r")])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"data error: truncated_file: {cut} ")
    assert not (tmp_path / "r").exists()


# one argv per command that sets some of its flags
PARSED = {
    "train": ["train", "--method", "mm", "--epochs", "3", "--lr", "0.01", "--arch", "mlp:4",
              "--config", "run.cfg"],
    "eval": ["eval", "--run-dir", "r", "--k", "5"],
    "verify": ["verify", "--run-dir", "r", "--c-b", "2.5", "--eps", "0.01"],
    "compare": ["compare", "--data", "mnist", "--train-dir", "d", "--subset", "40"],
    "export-scatter": ["export-scatter", "--run-dir", "r", "--which", "train"],
    "fetch-mnist": ["fetch-mnist", "--dest", "d"],
}


def _parse(parser, argv, capsys):
    """(exit code or None, stdout, stderr, Namespace or None) of parsing argv."""
    capsys.readouterr()
    try:
        ns, code = parser.parse_args(argv), None
    except SystemExit as exit_:
        ns, code = None, exit_.code
    return (code, *capsys.readouterr(), ns)


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_matches_the_full_parser(command, capsys):
    one, full = cli.build_parser(command), cli.build_parser()
    # help; a parse; errors of the top-level parser (unrecognized arguments)
    # and of the subparser (a flag without its value)
    for argv in ([command, "--help"], PARSED[command], [*PARSED[command], "--no-such-flag"],
                 [*PARSED[command], "extra"], PARSED[command][:2]):
        assert _parse(one, argv, capsys) == _parse(full, argv, capsys)
    code, out, _err, _ns = _parse(one, [command, "--help"], capsys)
    assert code == 0 and out.startswith("usage: localtriplet " + command)
    code, _out, err, _ns = _parse(one, PARSED[command][:2], capsys)
    assert code == 2 and err.startswith("usage: localtriplet " + command)


@pytest.mark.parametrize("command", COMMANDS)
def test_main_builds_only_the_named_commands_parser(command, monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *args: built.append(build(*args)) or built[-1])
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == _parse(build(), [command, "--help"], capsys)[1]
    [parser] = built
    for other in PARSED:
        if other != command:
            assert _parse(parser, PARSED[other], capsys)[0] == 2


USAGE = ("usage: localtriplet [-h]\n"
         "                    {train,eval,verify,compare,export-scatter,fetch-mnist} ...\n")


@pytest.mark.parametrize("argv, code", [([], 2), (["--help"], 0), (["-h"], 0),
                                        (["no-such-command"], 2), (["--k", "3"], 2)])
def test_top_level_help_and_errors_name_every_command(argv, code, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == code
    assert (out or err).startswith(USAGE)
    if code == 0:
        assert out == cli.build_parser().format_help()
        for command, (help_text, _names) in COMMANDS.items():
            assert f"    {command:20s}{help_text}\n" in out
        assert "    fetch-mnist         download the IDX files (needs network)\n" in out
    elif not argv:
        assert err == USAGE + "localtriplet: error: the following arguments are required: command\n"
    elif argv[0] == "no-such-command":
        assert "error: argument command: invalid choice: 'no-such-command'" in err
        assert all(command in err for command in PARSED)


def test_import_leaves_urllib_request_out():
    # only fetch-mnist needs urllib.request, which imports http, email and ssl
    src = str(Path(localtriplet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, localtriplet.cli; print('urllib.request' in sys.modules)"],
        check=True, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120)
    assert out.stdout == "False\n"


def test_blobs_packing_failure_exit_3(tmp_path, capsys):
    code = main(["train", "--data", "blobs", "--classes", "50", "--per-class", "2",
                 "--dim", "1", "--spacing", "10", "--std", "0.1",
                 "--out-dir", str(tmp_path / "r")])
    assert code == 3
    assert "packing_failed" in capsys.readouterr().err


# 2 classes x 30 blob points, a third held out: 40 training points
SMALL_ARGS = ["--classes", "2", "--per-class", "30", "--dim", "3", "--epochs", "1",
              "--arch", "mlp:4"]


def _write(path, text):
    path.write_text(text)
    return str(path)


def _idx_dir(root, n_train=20, n_test=8):
    """Synthetic 28x28 IDX files, two classes, under the standard names."""
    rng = np.random.default_rng(3)
    root.mkdir()
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        (root / f"{prefix}-images-idx3-ubyte").write_bytes(
            struct.pack(">iiii", 0x803, n, 28, 28) + images.tobytes())
        (root / f"{prefix}-labels-idx1-ubyte").write_bytes(
            struct.pack(">ii", 0x801, n) + (np.arange(n) % 2).astype(np.uint8).tobytes())
    return str(root)


def _run_with_manifest(tmp_path, **config):
    out = _train_run(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"].update(config)
    (out / "manifest.json").write_text(json.dumps(manifest))
    return str(out)


# _train_run trains on 120 points, so k = 120 leaves no point out
BAD_INPUT = {
    "config-int": lambda t: ["train", *SMALL_ARGS, "--config", _write(t / "c", "epochs = abc")],
    "config-float": lambda t: ["train", *SMALL_ARGS, "--config", _write(t / "c", "c-b = x")],
    "config-choice": lambda t: ["train", *SMALL_ARGS, "--config", _write(t / "c", "data = csv")],
    "val-fraction": lambda t: ["train", *SMALL_ARGS, "--val-fraction", "-0.2"],
    "mnist-val-fraction": lambda t: ["train", "--data", "mnist", "--train-dir",
                                     _idx_dir(t / "idx"), "--val-fraction", "-0.2",
                                     "--epochs", "1"],
    "config-config": lambda t: ["train", *SMALL_ARGS, "--config",
                                _write(t / "c", f"config = {t / 'other.cfg'}")],
    "test-fraction": lambda t: ["train", *SMALL_ARGS, "--test-fraction", "0"],
    "arch": lambda t: ["train", *SMALL_ARGS, "--arch", "mlp:0"],
    "subset": lambda t: ["train", "--data", "mnist", "--train-dir", _idx_dir(t / "idx"),
                         "--subset", "21", "--epochs", "1"],
    "train-k": lambda t: ["train", "--method", "mm", *SMALL_ARGS, "--k", "100"],
    "train-k-n": lambda t: ["train", "--method", "softmax", *SMALL_ARGS, "--k", "40"],
    "compare-k": lambda t: ["compare", *SMALL_ARGS, "--k", "100"],
    "eval-k": lambda t: ["eval", "--run-dir", str(_train_run(t)), "--k", "120"],
    "eval-k0": lambda t: ["eval", "--run-dir", str(_train_run(t)), "--k", "0"],
    "verify-k": lambda t: ["verify", "--run-dir", str(_train_run(t)), "--k", "120"],
    "eval-manifest-k": lambda t: ["eval", "--run-dir", _run_with_manifest(t, k=120)],
    "verify-manifest-k": lambda t: ["verify", "--run-dir", _run_with_manifest(t, k=500)],
    # a non-finite float option can give no run: each ends up in strict JSON
    "train-nan": lambda t: ["train", *SMALL_ARGS, "--convergence-eps", "nan"],
    "train-inf": lambda t: ["train", "--method", "mm", *SMALL_ARGS, "--margin-m", "inf"],
    "verify-nan": lambda t: ["verify", "--run-dir", str(_train_run(t)), "--c-b", "nan"],
    "verify-config-nan": lambda t: ["verify", "--run-dir", str(_train_run(t)),
                                    "--config", _write(t / "c", "eps = nan")],
    # the c_b and eps that train refuses, from a flag, a config file or the manifest
    "verify-c-b": lambda t: ["verify", "--run-dir", str(_train_run(t)), "--c-b", "1"],
    "verify-eps": lambda t: ["verify", "--run-dir", str(_train_run(t)), "--eps", "0"],
    "verify-config-c-b": lambda t: ["verify", "--run-dir", str(_train_run(t)),
                                    "--config", _write(t / "c", "c_b = 2.5")],
    "verify-config-eps": lambda t: ["verify", "--run-dir", str(_train_run(t)),
                                    "--config", _write(t / "c", "eps = -0.001")],
    "verify-manifest-c-b": lambda t: ["verify", "--run-dir", _run_with_manifest(t, c_b=0.5)],
    "verify-manifest-eps": lambda t: ["verify", "--run-dir", _run_with_manifest(t, eps=0.0)],
    # blob settings out of range
    "blobs-std": lambda t: ["train", *SMALL_ARGS, "--std", "-1"],
    "blobs-per-class": lambda t: ["train", *SMALL_ARGS, "--per-class", "0"],
    "blobs-dim": lambda t: ["train", *SMALL_ARGS, "--dim", "0"],
    "blobs-spacing": lambda t: ["train", *SMALL_ARGS, "--spacing", "0"],
    "blobs-classes": lambda t: ["train", *SMALL_ARGS, "--classes", "1"],
    "blobs-config-std": lambda t: ["train", *SMALL_ARGS, "--config", _write(t / "c", "std = -1")],
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_exit_2(tmp_path, capsys, case):
    argv = BAD_INPUT[case](tmp_path)
    if argv[0] in ("train", "compare"):
        argv += ["--out-dir", str(tmp_path / "r")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "r").exists()


def test_non_finite_option_leaves_the_run_as_it_was(tmp_path, capsys):
    out = _train_run(tmp_path)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main(["verify", "--run-dir", str(out), "--c-b", "nan"]) == 2
    assert capsys.readouterr().err == "config error: bad_float: c_b=nan from flag must be finite\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("argv, source, message", [
    (["--c-b", "1"], "flag", "c_b_too_small: 1.0 < 3 (c_b from flag)"),
    (["--eps", "0"], "flag", "bad_eps: 0.0 must be > 0 (eps from flag)"),
    ([], "manifest", "c_b_too_small: 2.0 < 3 (c_b from manifest)"),
])
def test_refused_loss_constant_leaves_the_run_as_it_was(tmp_path, capsys, argv, source, message):
    out = Path(_run_with_manifest(tmp_path, c_b=2.0) if source == "manifest"
               else _train_run(tmp_path))
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main(["verify", "--run-dir", str(out), *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("flag, message", [
    ("--std=-1", "bad_std: std=-1.0 must be >= 0"),
    ("--per-class=0", "bad_per_class: per_class=0 must be >= 1"),
    ("--dim=0", "bad_dim: dim=0 must be >= 1"),
    ("--spacing=0", "bad_spacing: spacing=0.0 must be > 0"),
    ("--classes=1", "bad_classes: classes=1 must be >= 2"),
])
def test_blob_setting_out_of_range_names_the_option(tmp_path, capsys, flag, message):
    capsys.readouterr()
    assert main(["train", *SMALL_ARGS, flag, "--out-dir", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command, options, config, message", [
    ("train", ["--lr", "-1"], "", "bad_lr: lr=-1.0 must be > 0 (lr from flag)"),
    ("train", [], "epochs = -1", "bad_epochs: epochs=-1 must be >= 0 (epochs from config)"),
    ("train", ["--method", "mm", "--margin-m", "-5"], "",
     "bad_weight: margin_m=-5.0 must be >= 0 (margin_m from flag)"),
    ("compare", ["--batch-size", "0"], "",
     "bad_batch_size: batch_size=0 must be >= 1 (batch_size from flag)"),
], ids=["flag", "config", "margin-m", "compare"])
def test_refused_training_option_names_the_option(tmp_path, capsys, command, options, config,
                                                  message):
    # refused before any epoch, so the default epoch count stays untrained
    out = tmp_path / "r"
    argv = [command, "--classes", "2", "--per-class", "30", "--dim", "3", "--arch", "mlp:4",
            *options, "--config", _write(tmp_path / "c", config), "--out-dir", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_refused_option_leaves_the_default_runs_dir_empty(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LOCALTRIPLET_RUNS_DIR", str(tmp_path))
    assert main(["train", *SMALL_ARGS, "--lr", "-1"]) == 2
    assert not any(tmp_path.iterdir())


def test_k_range_upper_bound_accepted(tmp_path, capsys):
    out = _train_run(tmp_path)
    assert main(["eval", "--run-dir", str(out), "--k", "119"]) == 0
    assert json.loads((out / "eval_report.json").read_text())["k"] == 119


# one non-default value per train option, each as the flag would spell it
TRAIN_VALUES = {
    "data": "blobs", "train_dir": "unused", "subset": "5", "test_subset": "4",
    "val_fraction": "0.1", "classes": "2", "per_class": "20", "dim": "3",
    "spacing": "9.5", "std": "0.5", "data_seed": "4", "test_fraction": "0.25",
    "method": "mm", "arch": "mlp:5,3", "k": "4", "batch_size": "16", "epochs": "1",
    "convergence_eps": "0.5", "lr": "0.002", "seed": "8", "w_lm": "500", "w_ms": "0.5",
    "w_md": "2", "w_ss": "0.25", "w_sd": "0.75", "c_b": "3.5", "eps": "0.01",
    "margin_m": "1000",
}


def test_config_file_matches_flags_for_every_train_option(tmp_path):
    # the manifest leaves out out_dir; config names the file itself
    assert set(TRAIN_VALUES) == set(COMMANDS["train"][1]) - {"out_dir", "config"}
    flags = [arg for name, value in TRAIN_VALUES.items()
             for arg in ("--" + name.replace("_", "-"), value)]
    assert main(["train", *flags, "--out-dir", str(tmp_path / "flags")]) == 0
    # config keys alternately spelled with dashes and underscores
    lines = [f"{name.replace('_', '-') if i % 2 else name} = {value}\n"
             for i, (name, value) in enumerate(TRAIN_VALUES.items())]
    cfg = _write(tmp_path / "run.cfg", "".join(lines))
    assert main(["train", "--config", cfg, "--out-dir", str(tmp_path / "file")]) == 0
    by_flags, by_file = (json.loads((tmp_path / d / "manifest.json").read_text())["config"]
                         for d in ("flags", "file"))
    assert (by_flags.pop("config"), by_file.pop("config")) == (None, cfg)
    assert by_flags == by_file
    assert by_file["k"] == 4 and by_file["w_lm"] == 500.0 and by_file["subset"] == 5
    for name in ("epochs.jsonl", "checkpoint.npz"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_eval_verify_report_config_file_source(tmp_path, capsys):
    out = _train_run(tmp_path)
    cfg = _write(tmp_path / "verify.cfg", "k = 3\nc-b = 4\neps = 0.002\n")
    assert main(["verify", "--run-dir", str(out), "--config", cfg]) == 0
    summary = json.loads((out / "verify_summary.json").read_text())
    assert (summary["k"], summary["c_b"], summary["eps"]) == (3, 4.0, 0.002)
    assert summary["sources"] == {"k": "config", "c_b": "config", "eps": "config"}
    assert main(["verify", "--run-dir", str(out), "--config", cfg, "--eps", "0.5"]) == 0
    summary = json.loads((out / "verify_summary.json").read_text())
    assert summary["sources"] == {"k": "config", "c_b": "config", "eps": "flag"}
    assert main(["eval", "--run-dir", str(out),
                 "--config", _write(tmp_path / "eval.cfg", "k = 3\n")]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert (report["k"], report["sources"]) == (3, {"k": "config"})


def _rewrite_npz(path, **arrays):
    """Save path again with arrays replaced; an array given as None is dropped."""
    with np.load(path) as z:
        kept = {name: z[name] for name in z.files}
    kept.update(arrays)
    with open(path, "wb") as f:
        np.savez(f, **{name: a for name, a in kept.items() if a is not None})


def _with_meta(path, **fields):
    with np.load(path) as z:
        meta = json.loads(bytes(z["meta"]).decode())
    return np.frombuffer(json.dumps({**meta, **fields}).encode(), dtype=np.uint8)


def _wider(path):
    with np.load(path) as z:
        samples = z["samples"]
    return np.column_stack([samples, samples[:, :1]])


CORRUPT_RUN = {
    "checkpoint-garbage": ("checkpoint.npz", lambda p: p.write_bytes(b"not a zip " * 50)),
    "train-garbage": ("train.npz", lambda p: p.write_bytes(b"not a zip " * 50)),
    "test-garbage": ("test.npz", lambda p: p.write_bytes(b"not a zip " * 50)),
    "checkpoint-cut": ("checkpoint.npz", lambda p: p.write_bytes(p.read_bytes()[:300])),
    "train-cut": ("train.npz", lambda p: p.write_bytes(p.read_bytes()[:300])),
    "checkpoint-empty": ("checkpoint.npz", lambda p: p.write_bytes(b"")),
    "train-no-labels": ("train.npz", lambda p: _rewrite_npz(p, labels=None)),
    "checkpoint-version": ("checkpoint.npz",
                           lambda p: _rewrite_npz(p, meta=_with_meta(p, format_version=99))),
    # the sample_shape no longer matches the samples
    "test-width": ("test.npz", lambda p: _rewrite_npz(p, samples=_wider(p))),
    # a consistent file whose samples the network cannot take
    "test-width-meta": ("test.npz", lambda p: _rewrite_npz(
        p, samples=_wider(p), meta=_with_meta(p, sample_shape=[7]))),
}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    return _train_run(tmp_path_factory.mktemp("finished"))


@pytest.mark.parametrize("case", list(CORRUPT_RUN))
@pytest.mark.parametrize("command", ["eval", "verify", "export-scatter"])
def test_corrupt_run_file_exit_3(tmp_path, capsys, finished_run, command, case):
    run = shutil.copytree(finished_run, tmp_path / "run")
    name, corrupt = CORRUPT_RUN[case]
    corrupt(run / name)
    capsys.readouterr()
    assert main([command, "--run-dir", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: unreadable run file: ") and name in err


def _edited_meta(path, edit):
    with np.load(path) as z:
        meta = json.loads(bytes(z["meta"]).decode())
    edit(meta)
    _rewrite_npz(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))


def _edited_manifest(path, edit):
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


# meta and manifest values of the wrong JSON type: (file, edit, what stderr
# names besides the file, the commands that read the file)
MALFORMED_RUN = {
    "checkpoint-layer-key": ("checkpoint.npz", lambda m: m["layers"][0].update(bogus=1),
                             "bogus", ("eval", "verify", "export-scatter")),
    "checkpoint-seed-null": ("checkpoint.npz", lambda m: m.update(seed=None),
                             "bad_checkpoint", ("eval", "verify", "export-scatter")),
    "checkpoint-layers-int": ("checkpoint.npz", lambda m: m.update(layers=5),
                              "bad_checkpoint", ("eval", "verify", "export-scatter")),
    # save_checkpoint writes every key; one that is missing is not defaulted
    "checkpoint-no-dtype": ("checkpoint.npz", lambda m: m.pop("dtype"),
                            "dtype", ("eval", "verify", "export-scatter")),
    "checkpoint-no-extra": ("checkpoint.npz", lambda m: m.pop("extra"),
                            "extra", ("eval", "verify", "export-scatter")),
    "train-sample-shape-int": ("train.npz", lambda m: m.update(sample_shape=3),
                               "bad_cache", ("eval", "verify", "export-scatter")),
    "manifest-k-str": ("manifest.json", lambda m: m["config"].update(k="5"),
                       "config k = '5'", ("eval", "verify")),
    "manifest-k-float": ("manifest.json", lambda m: m["config"].update(k=5.0),
                         "config k = 5.0", ("eval", "verify")),
    "manifest-k-bool": ("manifest.json", lambda m: m["config"].update(k=True),
                        "config k = True", ("eval", "verify")),
    "manifest-config-list": ("manifest.json", lambda m: m.update(config=[1]),
                             "config is not an object", ("eval", "verify")),
    "manifest-c-b-str": ("manifest.json", lambda m: m["config"].update(c_b="3"),
                         "config c_b = '3'", ("verify",)),
    "manifest-method-choice": ("manifest.json", lambda m: m["config"].update(method="lmm"),
                               "config method = 'lmm'", ("eval", "verify")),
}
REPORTS = ("eval_report.json", "verify_summary.json", "violations.csv", "purity.csv",
           "scatter.csv")


@pytest.mark.parametrize("command, case", [
    (command, case) for case, (*_, commands) in MALFORMED_RUN.items() for command in commands])
def test_malformed_run_file_exit_3(tmp_path, capsys, finished_run, command, case):
    run = shutil.copytree(finished_run, tmp_path / "run")
    name, edit, named, _ = MALFORMED_RUN[case]
    (_edited_manifest if name.endswith(".json") else _edited_meta)(run / name, edit)
    capsys.readouterr()
    assert main([command, "--run-dir", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: unreadable ") and str(run / name) in err and named in err
    assert not any((run / report).exists() for report in REPORTS)


def _nan_weight(path):
    with np.load(path) as z:
        w = z["param_000"].copy()
    w[0, 0] = np.nan
    _rewrite_npz(path, param_000=w)


@pytest.mark.parametrize("command, split", [
    ("eval", "test"), ("verify", "train"), ("export-scatter", "test")])
def test_non_finite_checkpoint_embedding_exit_4(tmp_path, capsys, finished_run, command, split):
    run = shutil.copytree(finished_run, tmp_path / "run")
    _nan_weight(run / "checkpoint.npz")
    capsys.readouterr()
    assert main([command, "--run-dir", str(run)]) == 4
    assert capsys.readouterr().err == (
        f"numeric failure: diverged: non-finite embedding of the {split} split\n")


@pytest.mark.parametrize("command", ["eval", "verify", "export-scatter"])
def test_checkpoint_unknown_activation_exit_3(tmp_path, capsys, finished_run, command):
    run = shutil.copytree(finished_run, tmp_path / "run")
    ckpt = run / "checkpoint.npz"
    with np.load(ckpt) as z:
        meta = json.loads(bytes(z["meta"]).decode())
    meta["layers"][0]["activation"] = "relu"
    _rewrite_npz(ckpt, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    capsys.readouterr()
    assert main([command, "--run-dir", str(run)]) == 3
    assert capsys.readouterr().err == (
        f"data error: unreadable run file: {ckpt} (bad_activation: relu)\n")


def test_verify_overflowing_distances_exit_4(tmp_path, capsys, finished_run):
    # the last layer's weights and bias times 1e200 scale every embedding by
    # 1e200 (leaky ReLU is positively homogeneous): each stays finite and
    # each squared distance overflows, where no violation and purity 1.0
    # would be read off NaN comparisons
    run = shutil.copytree(finished_run, tmp_path / "run")
    ckpt = run / "checkpoint.npz"
    with np.load(ckpt) as z:
        last = {name: z[name] * 1e200
                for name in sorted(n for n in z.files if n != "meta")[-2:]}
    _rewrite_npz(ckpt, **last)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--run-dir", str(run)]) == 4
    assert capsys.readouterr().err == (
        "numeric failure: diverged: distances of the train split's embeddings overflow\n")
    assert not (run / "violations.csv").exists()
    assert not (run / "verify_summary.json").exists()


def test_mm_hardmin_batches_of_one_sample_per_class_exit_3(tmp_path, capsys):
    # --batch-size 4 over 6 classes: one sample of each class per batch, so
    # no anchor would ever have an in-batch positive
    out = tmp_path / "r"
    code = main(["train", "--data", "blobs", "--classes", "6", "--per-class", "10",
                 "--batch-size", "4", "--epochs", "5", "--method", "mm_hardmin",
                 "--out-dir", str(out)])
    assert code == 3
    assert "no_positive: mm_hardmin batches of 4 samples" in capsys.readouterr().err
    assert not (out / "epochs.jsonl").exists()


def test_verify_overflowing_positive_distances_exit_4(tmp_path, capsys):
    # each anchor's only positive lies at an overflowing (infinite) distance
    # while every d_ak (k = 1, the nearest negative) stays finite: without
    # the check, max_pos reads -inf ("no positive") and no violation is found
    run = tmp_path / "run"
    run.mkdir()
    points = np.array([[0.0, 0.0], [1e155, 1e155], [1.0, 0.0], [1e155 + 1e140, 1e155]])
    save_dataset(run / "train.npz", Dataset(points, np.array([0, 0, 1, 1]), (2,)))
    # one dense layer with identity weights: the embedding is the point itself
    save_checkpoint(run / "checkpoint.npz",
                    EmbeddingNet((2,), [network.dense(2)], params=[np.eye(2), np.zeros(2)]))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--run-dir", str(run), "--k", "1"]) == 4
    assert capsys.readouterr().err == (
        "numeric failure: diverged: distances of the train split's embeddings overflow\n")
    assert not (run / "violations.csv").exists()
    assert not (run / "verify_summary.json").exists()


def _unwritable(command, tmp_path, finished_run):
    """(argv, path) of a command whose first run file cannot be written:
    a directory under a regular file, or a directory where a report goes."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    if command in ("train", "compare"):
        return [command, *SMALL_ARGS, "--out-dir", str(blocker / "run")], blocker / "run"
    if command == "fetch-mnist":
        return [command, "--dest", str(blocker / "m")], blocker / "m"
    run = shutil.copytree(finished_run, tmp_path / "run")
    report = {"eval": "eval_report.json", "verify": "violations.csv",
              "export-scatter": "scatter.csv"}[command]
    (run / report).mkdir()
    return [command, "--run-dir", str(run)], run / report


@pytest.mark.parametrize("command", COMMANDS)
def test_failed_run_file_write_exit_3(tmp_path, capsys, finished_run, command):
    # an OSError while creating or writing a file is a data error that names
    # the path, and no temporary file is left
    argv, path = _unwritable(command, tmp_path, finished_run)
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: [Errno ") and str(path) in err
    assert not list(tmp_path.rglob("*.tmp"))
