"""Command-line interface: exit codes, overrides, artifact layout."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zo_meshopt.cli as cli
import zo_meshopt.solver as solver_mod
import zo_meshopt.train as train_mod
from zo_meshopt.errors import SolverError
from zo_meshopt.grid import read_field_csv


def write_config(path, **overrides):
    data = dict(
        fine_n=9,
        coarse_n=5,
        train_alphas=[0.9, 1.1],
        test_alphas=[1.0],
        mesh_mode="frozen",
        epochs=2,
        warm_start_epochs=1,
        lr=1e-2,
        seed=0,
        out_dir=str(path.parent / "out"),
    )
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def test_train_happy_path(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    code = cli.main(["train", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "train_loss=" in out
    base = tmp_path / "out"
    assert (base / "metrics.csv").exists()
    assert (base / "checkpoint.json").exists()
    assert (base / "pred_alpha_1.csv").exists()
    assert (base / "truth_alpha_1.csv").exists()


def test_train_counts_every_solve(tmp_path, monkeypatch):
    """The train command solves nothing beyond the final n_solver_evals, and
    its prediction CSVs are the final epoch's test evaluation."""
    calls = []
    inner = solver_mod._solve

    def counted(*args):
        calls.append(args[0].shape)
        return inner(*args)

    monkeypatch.setattr(solver_mod, "_solve", counted)
    cfg = write_config(tmp_path / "c.json", mesh_mode="gaussian", test_alphas=[1.0, 1.2],
                       estimator={"kind": "gaussian", "b": 2})
    assert cli.main(["train", "--config", str(cfg)]) == 0
    config = cli.load_config(str(cfg))
    last = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert len(calls) == int(last[3]) == train_mod.declared_evals(config)
    per = []
    for alpha in config.test_alphas:
        pred = read_field_csv(tmp_path / "out" / f"pred_alpha_{alpha:g}.csv")
        truth = read_field_csv(tmp_path / "out" / f"truth_alpha_{alpha:g}.csv")
        per.append(train_mod.rmse(pred, truth))
    assert float(np.mean(per)) == float(last[2])


def test_train_does_not_import_scipy(tmp_path):
    """The package is numpy only: a training run loads no scipy module, also
    with a truth mesh of more than 4096 unknowns."""
    cfg = write_config(tmp_path / "c.json", fine_n=67)
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from zo_meshopt import cli\n"
        f"assert cli.main(['train', '--config', {str(cfg)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = cli.main(["train", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["train", "--config", str(p)]) == 2


def test_unknown_key_is_usage_error(tmp_path):
    p = tmp_path / "c.json"
    write_config(p)
    data = json.loads(p.read_text())
    data["learning_rate"] = 0.1
    p.write_text(json.dumps(data))
    assert cli.main(["train", "--config", str(p)]) == 2


def test_unknown_estimator_key_is_usage_error(tmp_path):
    p = write_config(tmp_path / "c.json", estimator={"kind": "gaussian", "sigma": 2.0})
    assert cli.main(["train", "--config", str(p)]) == 2


def test_non_finite_mu_exits_two_before_training(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", mesh_mode="gaussian", warm_start_epochs=1)
    assert cli.main(["train", "--config", str(cfg), "--mu", "nan"]) == 2
    assert "mu" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("field,bad", [("lr", float("nan")), ("mesh_lr", float("inf"))])
def test_non_finite_learning_rate_exits_two_before_training(tmp_path, capsys, field, bad):
    cfg = write_config(tmp_path / "c.json", mesh_mode="gaussian", **{field: bad})
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("overrides,key", [
    ({"train_alphas": 0.9}, "train_alphas"),
    ({"train_alphas": ["x"]}, "train_alphas"),
    ({"test_alphas": [1.0, True]}, "test_alphas"),
    ({"coarse_n": 4.5}, "coarse_n"),
    ({"epochs": "2"}, "epochs"),
    ({"mesh_lr": [1e-3]}, "mesh_lr"),
    ({"mesh_mode": "gaussian", "estimator": {"b": "8"}}, "b"),
    ({"mesh_mode": "gaussian", "estimator": {"mu": None}}, "mu"),
])
def test_config_value_of_wrong_type_exits_two(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path / "c.json", **overrides)
    assert cli.main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_estimator_kind_contradicting_mesh_mode_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", mesh_mode="gaussian",
                       estimator={"kind": "gauss_coord", "d": 1})
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "contradicts" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode,kind,loaded", [
    ("gaussian", "gaussian", "gaussian"),
    ("gaussian", None, "gaussian"),
    ("exact", "coordinate", "coordinate"),
    ("frozen", "gauss_coord", "gauss_coord"),
])
def test_matching_or_unused_estimator_kind_loads(tmp_path, mode, kind, loaded):
    est = {"b": 2} if kind is None else {"kind": kind, "b": 2}
    config = cli.load_config(str(write_config(tmp_path / "c.json", mesh_mode=mode, estimator=est)))
    config.validate()
    assert (config.mesh_mode, config.estimator.kind) == (mode, loaded)


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_missing_required_flag_exits_two():
    assert cli.main(["train"]) == 2


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.json")

    def boom(config, **kw):
        raise SolverError("synthetic")

    monkeypatch.setattr(cli, "train_run", boom)
    assert cli.main(["train", "--config", str(cfg)]) == 3


def test_cli_overrides_take_precedence(tmp_path):
    cfg = write_config(tmp_path / "c.json", out_dir=str(tmp_path / "o1"))
    assert cli.main(["train", "--config", str(cfg), "--seed", "7",
                     "--out", str(tmp_path / "o2"), "--epochs", "3"]) == 0
    data = json.loads((tmp_path / "o2" / "checkpoint.json").read_text())
    assert data["config"]["seed"] == 7
    assert data["config"]["epochs"] == 3
    assert not (tmp_path / "o1").exists()


def test_estimator_flags_reach_config(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       estimator={"kind": "gauss_coord", "b": 1, "d": 2},
                       mesh_mode="gauss_coord")
    assert cli.main(["train", "--config", str(cfg), "--b", "2", "--mu", "5e-3",
                     "--out", str(tmp_path / "o")]) == 0
    data = json.loads((tmp_path / "o" / "checkpoint.json").read_text())
    est = data["config"]["estimator"]
    assert est["b"] == 2 and est["mu"] == 5e-3 and est["kind"] == "gauss_coord"


def test_rerun_metrics_identical_except_wall_time(tmp_path):
    cfg = write_config(tmp_path / "c.json", mesh_mode="coordinate",
                       estimator={"kind": "coordinate", "b": 1},
                       warm_start_epochs=0)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0

    def stable(p):
        lines = (p / "metrics.csv").read_text().splitlines()
        return [",".join(l.split(",")[:-1]) for l in lines]

    assert stable(tmp_path / "r1") == stable(tmp_path / "r2")


def test_sweep_scales_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", fine_n=17, epochs=2, warm_start_epochs=2,
                       out_dir=str(tmp_path / "sw"))
    assert cli.main(["sweep", "scales", "--config", str(cfg)]) == 0
    lines = (tmp_path / "sw" / "scales.csv").read_text().splitlines()
    assert lines[0].startswith("coarse_n,fine_n,")
    # three coarse resolutions, two epochs each
    assert len(lines) == 1 + 3 * 2


def test_sweep_bd_trains_each_distinct_cell_once(tmp_path):
    """Coarse 5 has 6 mesh parameters, so d = 8 and d = 16 both run d = 6:
    each b trains d = 4 and d = 6 once, labelled with the d that ran."""
    cfg = write_config(tmp_path / "c.json", mesh_mode="gauss_coord",
                       estimator={"kind": "gauss_coord", "b": 1, "d": 2},
                       epochs=1, warm_start_epochs=0, out_dir=str(tmp_path / "bd"))
    assert cli.main(["sweep", "bd", "--config", str(cfg)]) == 0
    lines = (tmp_path / "bd" / "bd_sweep.csv").read_text().splitlines()
    assert lines[0] == "b,d,epoch,train_loss,test_rmse,n_solver_evals"
    cells = [tuple(int(v) for v in l.split(",")[:2]) for l in lines[1:]]
    want = [(b, d) for b in (1, 2, 4, 8) for d in (4, 6)]
    assert cells == want
    runs = sorted(p.name for p in (tmp_path / "bd").iterdir() if p.is_dir())
    assert runs == sorted(f"bd_b{b}_d{d}" for b, d in want)
    for b, d in want:
        ckpt = json.loads((tmp_path / "bd" / f"bd_b{b}_d{d}" / "checkpoint.json").read_text())
        assert (ckpt["config"]["estimator"]["b"], ckpt["config"]["estimator"]["d"]) == (b, d)


def test_sweep_scales_checks_every_cell_before_training(tmp_path, capsys, monkeypatch):
    """At fine 9 the coarse-9 cell is invalid: the sweep exits 2 before the
    coarse-5 and coarse-7 cells train."""
    trained = []
    monkeypatch.setattr(train_mod, "train_run", lambda cfg: trained.append(cfg) or ([], None))
    cfg = write_config(tmp_path / "c.json", fine_n=9, out_dir=str(tmp_path / "sw"))
    assert cli.main(["sweep", "scales", "--config", str(cfg)]) == 2
    assert "coarse_n=9 must be smaller than fine_n=9" in capsys.readouterr().err
    assert trained == []
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("what,csv,header", [
    ("scales", "scales.csv", "coarse_n,fine_n," + train_mod.METRICS_HEADER),
    ("bd", "bd_sweep.csv", "b,d,epoch,train_loss,test_rmse,n_solver_evals"),
], ids=["scales", "bd"])
def test_sweep_of_zero_epochs_writes_only_the_header(tmp_path, capsys, what, csv, header):
    cfg = write_config(tmp_path / "c.json", fine_n=17, epochs=0, warm_start_epochs=0,
                       out_dir=str(tmp_path / "sw"))
    assert cli.main(["sweep", what, "--config", str(cfg)]) == 0
    assert (tmp_path / "sw" / csv).read_text().splitlines() == [header]
    assert "no epochs run" in capsys.readouterr().out


@pytest.mark.parametrize("alphas", [[0.9123451, 0.9123452], [1.0, 1.0]])
def test_test_alphas_sharing_a_file_name_exit_two(tmp_path, capsys, alphas):
    cfg = write_config(tmp_path / "c.json", test_alphas=alphas)
    assert cli.main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert all(repr(a) in err for a in alphas) and "pred_alpha_" in err
    assert not (tmp_path / "out").exists()


def test_entry_point_installed():
    import subprocess
    proc = subprocess.run(["zo-meshopt", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "sweep" in proc.stdout


@pytest.mark.parametrize("module", ["zo_meshopt", "zo_meshopt.cli"])
def test_python_dash_m_cli_module_trains(tmp_path, module):
    """``python -m <module> train`` runs training, not just an import."""
    cfg = write_config(tmp_path / "c.json")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", module, "train", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "metrics.csv").is_file()
