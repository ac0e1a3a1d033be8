"""zo-meshopt training benchmark.

    python3 bench/run.py --workload desk --seed 0 --seconds 35 --trace 0

Each round runs ``zo-meshopt train`` (``zo_meshopt.cli.main``) once in a
fresh interpreter, checks every output file, and repeats while the next
round still fits in ``--seconds``.  ``--trace 1`` alternates an untraced
round with a traced one; the traced rounds give the per-layer metrics.
Every metric is printed by name and unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the full result record goes to ``--record``.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_runs"

# Set-up-only interpreters started before the rounds; each round adds one
# more set-up sample.
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 150
# The seed scales every scenario coefficient alpha of the config by one
# factor drawn from [1 - ALPHA_SPREAD, 1 + ALPHA_SPREAD].
ALPHA_SPREAD = 0.005


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the repository root
    epochs: int
    warm_start: int


WORKLOADS = {
    "desk": Workload("configs/desk.json", 60, 30),
    "exact-17x65": Workload("bench/workloads/exact-17x65.json", 20, 14),
    "gauss-17x129": Workload("bench/workloads/gauss-17x129.json", 12, 6),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_epoch_s": "s",
    "warm_epoch_s": "s",
    "joint_epoch_s": "s",
    "train_s": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_rmse": "1",
}


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict[str, dict]:
    """Median of each metric's samples, with the sample count and, from 40
    samples on, the 90th percentile."""
    out = {}
    for name, unit in units.items():
        values = samples.get(name, [])
        if not values:
            continue
        entry = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
        if len(values) >= 40:
            entry["p90"] = statistics.quantiles(values, n=10)[-1]
        out[name] = entry
    return out


def cpu_ticks() -> tuple[int, int] | None:
    """(stolen, total) CPU ticks of the machine so far, from /proc/stat."""
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
    except OSError:
        return None
    ticks = [int(v) for v in line.split()[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before, after) -> float | None:
    """Share of the machine's CPU time the hypervisor took between two
    cpu_ticks() readings; a high share explains a slow run."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def workload_config(wl: Workload, seed: int) -> dict:
    """The workload's config with its alphas scaled by the seed's factor."""
    data = json.loads((ROOT / wl.config).read_text())
    scale = float(np.random.default_rng(seed).uniform(1 - ALPHA_SPREAD, 1 + ALPHA_SPREAD))
    for key in ("train_alphas", "test_alphas"):
        data[key] = [round(a * scale, 5) for a in data[key]]
    return data


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
                 threads: int) -> dict:
    from zo_meshopt.cli import load_config
    from zo_meshopt.solver import RESIDUAL_TOL
    from zo_meshopt.train import declared_evals

    from checks import check_outputs

    env = dict(os.environ, ZO_MESHOPT_THREADS=str(threads))
    samples: dict[str, list[float]] = {"setup_s": []}
    layer_samples: dict[str, list[float]] = {}
    layer_units: dict[str, str] = {}
    traced_train_s: list[float] = []
    failures: list[str] = []  # outputs that failed a check
    errors: list[str] = []  # rounds that did not finish
    attempted = failed = 0
    blas = None
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix=f"{name}-") as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(workload_config(wl, seed), indent=1))
        config = replace(load_config(str(config_path)), epochs=wl.epochs,
                         warm_start_epochs=wl.warm_start)

        def spawn(mode: str, out: Path) -> dict:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), str(config_path),
                   str(out), str(wl.epochs), str(wl.warm_start), mode]
            spawned = time.monotonic()
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"{mode} round exited with {proc.returncode}:\n"
                                   f"{proc.stderr[-2000:]}")
            report = json.loads(proc.stdout.splitlines()[-1])
            samples["setup_s"].append(report["setup_done"] - spawned)
            return report

        for _ in range(SETUP_SPAWNS):
            spawn("setup", Path(tmp))

        modes = ("train", "trace") if trace else ("train",)
        deadline = time.monotonic() + seconds
        ticks_before = cpu_ticks()
        round_no = 0
        round_steal = []
        while True:
            began = time.monotonic()
            round_ticks = cpu_ticks()
            for mode in modes:
                out = Path(tmp) / f"round{round_no}-{mode}"
                attempted += 1
                try:
                    report = spawn(mode, out)
                    if report["rc"] != 0:
                        raise RuntimeError(f"train returned exit code {report['rc']}")
                except (RuntimeError, subprocess.TimeoutExpired) as err:
                    failed += 1
                    errors.append(f"round {round_no} {mode}: {err}")
                    continue
                blas = report["blas_threads"]
                layers = report.get("layers")
                try:
                    bad, rows = check_outputs(out, config, declared_evals, layers, RESIDUAL_TOL)
                except (OSError, ValueError, KeyError) as err:
                    bad, rows = [f"unreadable output: {err!r}"], None
                if report.get("left_installed"):
                    bad.append(f"tracer left wrappers: {report['left_installed']}")
                failures += [f"round {round_no} {mode}: {msg}" for msg in bad]
                shutil.rmtree(out)
                if bad:
                    continue
                if mode == "trace":
                    traced_train_s.append(report["train_s"])
                    for key, (value, unit) in layers.items():
                        layer_samples.setdefault(key, []).append(value)
                        layer_units[key] = unit
                    continue
                walls = [row["wall_time_s"] for row in rows]
                epochs = np.diff(walls, prepend=0.0)
                samples.setdefault("first_epoch_s", []).append(float(epochs[0]))
                samples.setdefault("warm_epoch_s", []).extend(epochs[1:wl.warm_start].tolist())
                samples.setdefault("joint_epoch_s", []).extend(epochs[wl.warm_start:].tolist())
                samples.setdefault("train_s", []).append(report["train_s"])
                samples.setdefault("solves_per_s", []).append(
                    rows[-1]["n_solver_evals"] / walls[-1])
                samples.setdefault("peak_rss_mb", []).append(report["peak_rss_mb"])
                samples.setdefault("test_rmse", []).append(rows[-1]["test_rmse"])
            round_steal.append(steal_share(round_ticks, cpu_ticks()))
            round_no += 1
            now = time.monotonic()
            if now + (now - began) > deadline:  # the next round would overrun
                break
        ticks_after = cpu_ticks()

    result = {
        "config": {"file": wl.config, "epochs": wl.epochs, "warm_start_epochs": wl.warm_start,
                   "train_alphas": list(config.train_alphas),
                   "test_alphas": list(config.test_alphas)},
        "rounds": round_no,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "errors": errors,
        "blas_threads": blas,
        "cpu_steal_share": steal_share(ticks_before, ticks_after),
        "round_steal_share": round_steal,
        "end_to_end": summarize(samples, END_TO_END_UNITS),
        "samples": samples,
    }
    if trace:
        per_layer = summarize(layer_samples, layer_units)
        untraced = samples.get("train_s")
        if traced_train_s and untraced:
            per_layer["trace.overhead_s"] = {
                "value": statistics.median(traced_train_s) - statistics.median(untraced),
                "unit": "s", "samples": len(traced_train_s)}
        result["per_layer"] = per_layer
    return result


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(threads: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": {"platform": platform.platform(), "arch": platform.machine(),
                    "cpu_count": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0))},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "ZO_MESHOPT_THREADS": threads,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--record", help="result record path "
                        "(default .bench_runs/BENCH_<workload>_seed<seed>_trace<trace>.json)")
    args = parser.parse_args(argv)

    if not (SRC / "zo_meshopt" / "__init__.py").is_file():
        print(f"error: the zo_meshopt sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    threads = len(os.sched_getaffinity(0))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), threads)
               for name in names}
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **environment(threads), "workloads": results}
    path = Path(args.record) if args.record else (
        WORK_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")

    correct = True
    metrics = {}
    key = "per_layer" if args.trace else "end_to_end"
    for name, res in results.items():
        steal = res["cpu_steal_share"]
        print(f"== {name}: {res['rounds']} rounds, {res['attempted']} attempted, "
              f"{res['failed']} failed, cpu steal share "
              f"{'n/a' if steal is None else f'{steal:.3f}'}")
        for section in ("end_to_end", "per_layer"):
            for metric, entry in res.get(section, {}).items():
                extra = f"  p90={entry['p90']:.6g}" if "p90" in entry else ""
                print(f"  {metric:22s} {entry['value']:14.6g} {entry['unit']:6s}"
                      f" n={entry['samples']}{extra}")
        for msg in res["errors"]:
            print(f"  ERROR {msg}")
        for msg in res["failures"]:
            print(f"  FAIL {msg}")
        correct &= res["attempted"] > res["failed"] and not res["failures"]
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, entry in res.get(key, {}).items():
            metrics[prefix + metric] = {"value": entry["value"], "unit": entry["unit"]}
    print(f"record: {path}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
