"""Check that two source trees train to the same outputs.

    python3 scripts/same_outputs.py TREE_A TREE_B

Trains every workload of the benchmark's table (``WORKLOADS`` in
``bench/run.py``: its config, epochs and warm-start epochs) once with
``python -m zo_meshopt train`` on each tree's ``src``, then compares the two
run directories of each workload file by file, byte for byte, apart from:

- the ``wall_time_s`` column of ``metrics.csv``;
- the ``out_dir`` line of ``checkpoint.json``.

Prints one line per file that differs and per run that fails, then a count
of the files that are the same, and exits 1 on any difference or failed
run, else 0.  The configs and the table come from the repository that holds
this script, so both trees train on the same inputs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _metrics_rows(path: Path) -> list[list[bytes]]:
    """metrics.csv's cells, byte for byte, with the wall_time_s column
    dropped."""
    rows = [line.split(b",") for line in path.read_bytes().split(b"\n")]
    col = rows[0].index(b"wall_time_s")
    return [row[:col] + row[col + 1 :] for row in rows]


def _checkpoint_lines(path: Path) -> list[bytes]:
    """checkpoint.json's lines, byte for byte, without the config's out_dir
    line."""
    return [line for line in path.read_bytes().splitlines(keepends=True)
            if not line.lstrip().startswith(b'"out_dir": ')]


_COMPARE = {"metrics.csv": _metrics_rows, "checkpoint.json": _checkpoint_lines}


def compare_dirs(a: Path, b: Path) -> dict[str, str | None]:
    """Each file name found in either run directory, mapped to why the two
    differ, or to None where they are the same."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    result: dict[str, str | None] = {}
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            result[name] = f"only in {a if fa.is_file() else b}"
            continue
        read = _COMPARE.get(name, Path.read_bytes)
        try:
            same = read(fa) == read(fb)
        except ValueError as err:
            result[name] = f"unreadable: {err!r}"
            continue
        result[name] = None if same else "differs"
    return result


def train(tree: Path, config: Path, epochs: int, warm_start: int, out: Path) -> str | None:
    """Run one training with tree's sources; None on success, else why not."""
    path = os.pathsep.join(p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "zo_meshopt", "train", "--config", str(config),
           "--epochs", str(epochs), "--warm-start", str(warm_start), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=out.parent, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    last = proc.stderr.strip().splitlines()[-1:] or ["no error output"]
    return f"exited {proc.returncode}: {last[0]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    args = parser.parse_args(argv)
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    for tree in trees:
        if not (tree / "src" / "zo_meshopt" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/zo_meshopt")
    sys.path.insert(0, str(ROOT / "bench"))
    from run import WORKLOADS

    same = differ = failed = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for name, wl in WORKLOADS.items():
            outs = [Path(tmp) / f"{name}-{side}" for side in ("a", "b")]
            errors = [train(tree, ROOT / wl.config, wl.epochs, wl.warm_start, out)
                      for tree, out in zip(trees, outs)]
            for tree, err in zip(trees, errors):
                if err is not None:
                    print(f"{name}: run failed in {tree}: {err}")
                    failed += 1
            if any(errors):
                continue
            for file, why in compare_dirs(*outs).items():
                if why is None:
                    same += 1
                else:
                    print(f"{name}/{file}: {why}")
                    differ += 1
    print(f"{same} of {same + differ} files the same, {failed} runs failed")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
