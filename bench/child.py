"""One benchmark round in a fresh interpreter.

    python3 bench/child.py SRC CONFIG OUT EPOCHS WARM MODE

MODE is ``setup`` (import the package, load and validate the config, stop),
``train`` (then run ``zo-meshopt train`` as a user would) or ``trace`` (the
same under the layer tracer).  The last line of standard output is a JSON
object; ``setup_done`` is a ``time.monotonic()`` stamp the parent subtracts
its own spawn stamp from, so set-up time counts interpreter start.
"""

import time  # noqa: I001  (first, so nothing delays the interpreter's start)
import ctypes
import json
import resource
import sys


def blas_threads() -> dict[str, int]:
    """Threads in effect for each OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[path.rsplit("/", 1)[-1]] = int(getattr(lib, symbol)())
                break
    return found


def main(argv: list[str]) -> int:
    src, config_path, out, epochs, warm, mode = argv
    sys.path.insert(0, src)
    from zo_meshopt.cli import load_config, main as cli_main

    config = load_config(config_path)
    config.validate()
    report = {"setup_done": time.monotonic()}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    args = ["train", "--config", config_path, "--epochs", epochs, "--warm-start", warm,
            "--out", out]
    start = time.perf_counter()
    if mode == "trace":
        from layertrace import Tracer, installed_wrappers, layer_metrics

        with Tracer() as tracer:
            rc = cli_main(args)
        report["train_s"] = time.perf_counter() - start
        report["layers"] = layer_metrics(tracer.spans, (config.fine_n, config.fine_n))
        report["left_installed"] = installed_wrappers()
    else:
        rc = cli_main(args)
        report["train_s"] = time.perf_counter() - start
    report["rc"] = rc
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["blas_threads"] = blas_threads()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
