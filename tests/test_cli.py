import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from spiketrim.cli import cli_main

SRC = str(Path(__file__).resolve().parent.parent / "src")

SMALL = ["--train-samples", "48", "--test-samples", "24"]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def metrics(output):
    out = {}
    for line in output.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


class TestUsage:
    def test_unknown_flag_exits_1(self):
        code, _ = run_cli(["run", "--no-such-flag"])
        assert code == 1

    def test_unknown_strategy_exits_1(self):
        code, _ = run_cli(["run", "--strategy", "bogus"])
        assert code == 1

    def test_contract_error_exits_2(self):
        # keep ratio that floors to zero tokens
        code, _ = run_cli(["run", "--strategy", "uncert-prune",
                           "--keep-ratio", "0.01", "--seed", "1", *SMALL])
        assert code == 2


class TestSelftest:
    def test_exit_zero(self):
        code, out = run_cli(["selftest"])
        assert code == 0
        assert "FAIL" not in out


class TestGenTrainRun:
    def test_artifact_workflow(self, tmp_path):
        data = tmp_path / "data"
        model = tmp_path / "model"
        code, _ = run_cli(["gen", "--out", str(data), "--seed", "3", *SMALL])
        assert code == 0
        assert (data / "train" / "frames.spkt").exists()
        assert (data / "test" / "dataset.txt").exists()
        code, out = run_cli(["train-head", "--data", str(data), "--out",
                             str(model), "--seed", "3"])
        assert code == 0
        assert (model / "manifest.txt").exists()
        code, out = run_cli(["run", "--data", str(data), "--model", str(model),
                             "--seed", "3", "--strategy", "uncert-prune",
                             "--keep-ratio", "0.5"])
        assert code == 0
        assert "acc1=" in out and "logits_sha256=" in out

    def test_identity_none_vs_full_keep(self):
        base_args = ["run", "--seed", "7", *SMALL]
        code1, out1 = run_cli(base_args + ["--strategy", "none"])
        code2, out2 = run_cli(base_args + ["--strategy", "uncert-prune",
                                           "--keep-ratio", "1.0"])
        assert code1 == code2 == 0
        m1, m2 = metrics(out1), metrics(out2)
        assert m1["acc1"] == m2["acc1"]
        assert m1["logits_sha256"] == m2["logits_sha256"]

    @pytest.fixture
    def artifacts(self, tmp_path):
        data, model = tmp_path / "data", tmp_path / "model"
        assert run_cli(["gen", "--out", str(data), "--seed", "3", *SMALL])[0] == 0
        assert run_cli(["train-head", "--data", str(data), "--out", str(model),
                        "--seed", "3"])[0] == 0
        return data, model

    @staticmethod
    def _drop_key(manifest: Path, key: str):
        lines = manifest.read_text().splitlines()
        manifest.write_text("".join(f"{ln}\n" for ln in lines
                                    if not ln.startswith(f"{key}=")))

    def test_model_manifest_missing_key_exits_2(self, artifacts, capsys):
        data, model = artifacts
        self._drop_key(model / "manifest.txt", "n_stages")
        code, _ = run_cli(["run", "--data", str(data), "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "n_stages" in err

    def test_dataset_manifest_missing_key_exits_2(self, artifacts, capsys):
        data, model = artifacts
        self._drop_key(data / "test" / "dataset.txt", "grid")
        code, _ = run_cli(["run", "--data", str(data), "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "grid" in err

    @pytest.mark.parametrize("strategy", ["none", "uncert-prune"])
    def test_model_insert_block_used_throughout(self, tmp_path, strategy):
        # the plan, the ledger prefix and both dumps use one block: the
        # --insert-block flag when given, otherwise the model's own
        data = tmp_path / "data"
        assert run_cli(["gen", "--out", str(data), "--seed", "3", *SMALL])[0] == 0
        for block in ("2.0", "3.1"):
            assert run_cli(["train-head", "--data", str(data), "--out",
                            str(tmp_path / block), "--seed", "3",
                            "--insert-block", block])[0] == 0

        def run(name, model, *flags):
            u, m = tmp_path / f"u_{name}.csv", tmp_path / f"m_{name}.csv"
            code, out = run_cli(["run", "--data", str(data), "--model",
                                 str(tmp_path / model), "--strategy", strategy,
                                 "--keep-ratio", "0.5", "--dump-uncertainty", str(u),
                                 "--dump-mask", str(m), *flags])
            assert code == 0
            lines = [ln for ln in out.splitlines() if not ln.startswith("wrote")]
            return lines, u.read_bytes(), m.read_bytes()

        own = run("own", "2.0")
        assert own == run("flag", "2.0", "--insert-block", "2.0")
        own31 = run("own31", "3.1")
        assert run("other", "2.0", "--insert-block", "3.1") == own31
        # the two blocks are told apart by their ledger prefix
        assert own[0] != own31[0]

    def test_merge_dump_mask_names_anchor(self, tmp_path):
        mask = tmp_path / "m.csv"
        code, _ = run_cli(["run", "--seed", "2", "--strategy", "uncert-merge",
                           "--keep-ratio", "0.5", "--dump-mask", str(mask), *SMALL])
        assert code == 0
        rows = np.array([[int(v) for v in ln.split(",")]
                         for ln in mask.read_text().splitlines()[1:]])
        sample, token, kept, anchor = rows.T
        assert len(rows) == 24 * 64
        assert ((kept == 1) == (anchor == token)).all()
        assert (np.bincount(sample, weights=kept) == 32).all()
        merged = kept == 0
        assert merged.any() and (anchor[merged] >= 0).all()
        # each merge target is one of its sample's anchors
        anchors = set(zip(sample[~merged].tolist(), token[~merged].tolist()))
        assert all((m, a) in anchors for m, a in zip(sample[merged].tolist(),
                                                     anchor[merged].tolist()))

    def test_dumps(self, tmp_path):
        unc = tmp_path / "u.csv"
        mask = tmp_path / "m.csv"
        code, _ = run_cli(["run", "--seed", "2", "--strategy", "uncert-prune",
                           "--keep-ratio", "0.5", "--dump-uncertainty", str(unc),
                           "--dump-mask", str(mask), *SMALL])
        assert code == 0
        assert unc.read_text().splitlines()[0] == "sample,token,t,U"
        assert mask.read_text().splitlines()[0] == "sample,token,kept,anchor"


class TestSweepSop:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code, _ = run_cli(["sweep", "--out", str(out),
                           "--strategies", "uncert-prune,none",
                           "--ratios", "1.0,0.5", "--seeds", "1",
                           *SMALL])
        assert code == 0
        csv = (out / "results.csv").read_text()
        assert len(csv.strip().splitlines()) == 1 + 2 * 2
        assert (out / "results.svg").read_text().startswith("<svg")

    def test_sweep_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("strategies=none\nkeep_ratios=1.0\nseeds=1\n# comment\n")
        out = tmp_path / "o"
        code, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(out), *SMALL])
        assert code == 0
        assert len((out / "results.csv").read_text().strip().splitlines()) == 2

    def test_sweep_l2_reaches_ridge(self, tmp_path, monkeypatch):
        from spiketrim import sweep
        seen = []

        def recording(model, frames, labels, cfg):
            seen.append(cfg.l2)
            return train_head(model, frames, labels, cfg)

        train_head = sweep.train_head
        monkeypatch.setattr(sweep, "train_head", recording)
        code, _ = run_cli(["sweep", "--out", str(tmp_path / "o"), "--strategies",
                           "none", "--ratios", "1.0", "--seeds", "1",
                           "--l2", "1000", *SMALL])
        assert code == 0
        assert seen == [1000.0]

    def test_sweep_config_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("strategies=none\nkeep_ratio=0.5\nseeds=1\n")
        code, _ = run_cli(["sweep", "--config", str(cfg), "--out",
                           str(tmp_path / "o"), *SMALL])
        assert code == 2
        assert "keep_ratio" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_config_insert_block_beats_flag(self, tmp_path):
        # a config file's insert_block wins over --insert-block
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("insert_block=2.0\n")
        grid = ["--strategies", "uncert-prune,none", "--ratios", "1.0,0.5",
                "--seeds", "1", *SMALL]

        def csv(name, *flags):
            out = tmp_path / name
            assert run_cli(["sweep", "--out", str(out), *grid, *flags])[0] == 0
            return (out / "results.csv").read_bytes()

        both = csv("both", "--config", str(cfg), "--insert-block", "3.1")
        assert both == csv("flag20", "--insert-block", "2.0")
        assert both != csv("flag31", "--insert-block", "3.1")

    @pytest.mark.parametrize("config, flags, message", [
        ("score_mode=bogus\nstrategies=none,random-prune\nseeds=1\n", [], "bogus"),
        ("score_mode=bogus\nstrategies=uncert-prune\nseeds=1\n", [], "bogus"),
        ("seeds=1\n", ["--strategies", ","], "strategy"),
    ], ids=["unscored-mode", "scored-mode", "empty-strategies"])
    def test_sweep_bad_grid_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                    config, flags, message):
        from spiketrim import sweep
        monkeypatch.setattr(sweep, "train_head", lambda *a, **k: pytest.fail("trained"))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config)
        code, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                           *flags, *SMALL])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "o").exists()

    def test_sweep_cross_process_determinism(self, tmp_path):
        # separate interpreter processes (fresh hash seeds) must agree byte-wise
        import subprocess
        import sys
        args = ["sweep", "--strategies", "uncert-prune,none", "--ratios",
                "1.0,0.5", "--seeds", "1", "--train-samples", "48",
                "--test-samples", "24"]
        outputs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "spiketrim.cli", *args, "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(((out / "results.csv").read_bytes(),
                            (out / "results.svg").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_sop_report_monotone(self, tmp_path):
        out = tmp_path / "sop.csv"
        code, _ = run_cli(["sop", "--seed", "1", "--keep-ratios", "1.0,0.6,0.2",
                           "--out", str(out), *SMALL])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("keep_ratio,block_sops")
        sops = [int(line.split(",")[1]) for line in lines[1:]]
        assert sops[0] > sops[1] > sops[2]
        reductions = [float(line.split(",")[4]) for line in lines[1:]]
        assert reductions[0] == 0.0 and reductions[1] < reductions[2]


def _blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("strategy, ratio", [("none", "1.0"), ("uncert-prune", "0.6"),
                                             ("uncert-merge", "0.6")])
def test_logits_independent_of_blas_kernel_and_threads(strategy, ratio):
    """README: results are bit-reproducible regardless of BLAS. The kernel and
    thread settings go to the child processes only."""
    hashes = set()
    for coretype in (None, "Haswell", "Sandybridge"):
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [SRC, os.environ.get("PYTHONPATH")])))
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            proc = subprocess.run(
                [sys.executable, "-m", "spiketrim.cli", "run", "--seed", "3",
                 "--strategy", strategy, "--keep-ratio", ratio, *SMALL],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            hashes.add(metrics(proc.stdout)["logits_sha256"])
    assert len(hashes) == 1, hashes
