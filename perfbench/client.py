"""One single-process client: runs `repocat.cli.main(argv)` commands in order.

    python3 perfbench/client.py PHASE --workload W --seed N --work DIR
                                [--seconds S] [--trace]

PHASE is `fixture` (build the invocation's fixtures), `timed` (repeat the
workload's pass until --seconds have elapsed, at least once) or `post` (check
commands).  The client runs in DIR and writes PHASE.json there; a traced
`timed` run also writes trace.jsonl.  run.py starts it with the checkout's
`src` on PYTHONPATH.
"""

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import sys
import time

import numpy as np

import inputs
import tracing
import workloads


def _run(cli, argv, tracer=None):
    """(exit code, stdout text, seconds) of one cli.main call."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span(tracing.ROOT, cli.main, argv)
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code if isinstance(exc.code, int) else 1
    seconds = time.perf_counter() - start
    return rc, buf.getvalue(), seconds


def _missing(paths):
    return [p for p in paths if not os.path.isfile(p) or os.path.getsize(p) == 0]


def _digest(paths):
    out = {}
    for path in paths:
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _run_list(cli, specs, tracer=None, pass_no=0):
    results = []
    for i, (argv, writes) in enumerate(specs):
        if tracer is not None:
            tracer.request = f"{pass_no}.{i}"  # one request per CLI command
        rc, stdout, seconds = _run(cli, argv, tracer)
        results.append({
            "argv": argv, "rc": rc, "stdout": stdout, "seconds": seconds,
            "missing": _missing(writes),
        })
    return results


def _blas_provenance():
    """BLAS library name/version and its thread count, as far as visible."""
    info = {"library": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    path = None
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line.lower() and ".so" in line:
                path = line.split()[-1]
                break
    if path:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def fixture(cli, workload, seed):
    specs = workloads.commands(workload, seed)["fixture"]
    results = _run_list(cli, specs)
    out = {"commands": results}
    if workload == "categorize" and all(r["rc"] == 0 for r in results):
        out["inputs"] = inputs.make_categorize_tree(
            "tree", workloads.categorize_tree_seed(seed)
        )
    return out


def timed(cli, workload, seed, seconds, trace):
    specs = workloads.commands(workload, seed)["timed"]
    writes = [path for _, paths in specs for path in paths]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        modules = {}
        for layer in tracing.TARGETS:
            try:
                modules[layer] = importlib.import_module(f"repocat.{layer}")
            except ImportError:
                tracer.unmeasured[layer] = f"module repocat.{layer} not found"
        tracer.install(modules)
    passes = []
    begin = time.perf_counter()
    while True:
        for path in writes:
            if os.path.exists(path):
                os.remove(path)
        start = time.perf_counter()
        results = _run_list(cli, specs, tracer, len(passes))
        wall = time.perf_counter() - start
        passes.append({"wall_s": wall, "commands": results, "digests": _digest(writes)})
        if time.perf_counter() - begin >= seconds:
            break
    if tracer is not None:
        tracer.dump("trace.jsonl")
    return {
        "passes": passes,
        "numpy": np.__version__,
        "blas": _blas_provenance(),
    }


def post(cli, workload, seed):
    return {"commands": _run_list(cli, workloads.commands(workload, seed)["post"])}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="client.py")
    parser.add_argument("phase", choices=("fixture", "timed", "post"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(args.work)
    from repocat import cli

    if args.phase == "fixture":
        result = fixture(cli, args.workload, args.seed)
    elif args.phase == "timed":
        result = timed(cli, args.workload, args.seed, args.seconds, args.trace)
    else:
        result = post(cli, args.workload, args.seed)
    result["repocat_file"] = os.path.abspath(sys.modules["repocat"].__file__)
    name = "traced" if args.trace else args.phase
    with open(f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
