"""repocat benchmark: build and categorize workloads.

    python3 perfbench/run.py --workload {build,categorize} --seed N
                             --seconds S --trace {0,1}

Run from the root of a repocat checkout.  Each workload is one closed-loop,
single-process client (client.py) that calls `repocat.cli.main(argv)` the way
a user would, pass after pass, for S seconds.  Inputs and fixture artifacts
are made from the seed by the code under test before timing starts.  With
--trace 1 a second, traced client runs one more pass to give per-layer
numbers.

Prints a metric table, one line holding the full record (provenance, samples,
input audit, output checks), and as the last line the result object
{"correct", "attempted", "failed", "metrics"}.  Exits nonzero without a
result when the checkout holds no repocat sources or a client fails.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import inputs
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
# deadline of one invocation: set-up spawns, fixtures and post commands, the
# timed client's --seconds, and one pass allowance for the timed client (the
# pass it may start just before --seconds end) and one for the traced client
# (one pass)
FIXED_ALLOWANCE_S = 50
PASS_ALLOWANCE_S = 35
# set-up is sampled at three points of the run, so that a slow spell of the
# machine moves fewer of the samples the median is taken from
SETUP_SPAWNS_PER_POINT = 3
SETUP_ARGV = [sys.executable, "-c", "import repocat.cli"]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "functions_per_s": "1/s",
}
QUALITY = {
    "glove_final_loss": "loss",
    "val_accuracy": "ratio",
    "lr_final_loss": "loss",
    "project_f1": "ratio",
    "fn_accuracy_nn": "ratio",
    "fn_accuracy_lr": "ratio",
}
PER_LAYER = {**tracing.UNITS, "trace.overhead_s": "s", **QUALITY}


def tail_percentile(samples):
    """(percentile, value) of the highest order statistic with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def run_budget(seconds, trace):
    """Seconds an invocation may take before its children are killed."""
    clients = 2 if trace else 1
    return FIXED_ALLOWANCE_S + seconds + clients * PASS_ALLOWANCE_S


class Invocation:
    """One benchmark run: its checkout, work directory, clients and deadline."""

    def __init__(self, args, checkout):
        self.args = args
        self.checkout = checkout
        self.src = os.path.join(checkout, "src")
        self.work = os.path.join(checkout, WORK_ROOT,
                                 f"{args.workload}-{args.seed}-{os.getpid()}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p
        )
        self.budget = run_budget(args.seconds, args.trace)
        self.deadline = time.monotonic() + self.budget

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError(f"run exceeded its {self.budget:.0f} s budget")
        return left

    def spawn(self, argv):
        """Run a child to completion; returns (exit code, max RSS in KiB).

        A blocking wait4 returns as soon as the child ends, where a
        subprocess timeout would poll in steps of up to 50 ms.
        """
        proc = subprocess.Popen(argv, env=self.env, stdout=sys.stderr)
        timer = threading.Timer(self.remaining(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def setup_samples(self, spawns=SETUP_SPAWNS_PER_POINT):
        """Seconds from a fresh interpreter to a finished import of the CLI."""
        times = []
        for _ in range(spawns):
            start = time.perf_counter()
            rc, _ = self.spawn(SETUP_ARGV)
            times.append(time.perf_counter() - start)
            if rc != 0:
                raise RuntimeError(f"`import repocat.cli` exited with code {rc}")
        return times

    def client(self, phase, trace=False):
        """Run one client phase; returns (its result file, max RSS in KiB).

        The traced client runs a single pass: per-layer figures are per pass.
        """
        a = self.args
        seconds = 0.0 if trace else a.seconds
        argv = [sys.executable, os.path.join(HERE, "client.py"), phase,
                "--workload", a.workload, "--seed", str(a.seed), "--work", self.work,
                "--seconds", str(seconds)] + (["--trace"] if trace else [])
        rc, maxrss_kib = self.spawn(argv)
        name = "traced" if trace else phase
        if rc != 0:
            raise RuntimeError(f"{name} client exited with code {rc}")
        with open(os.path.join(self.work, f"{name}.json"), "r", encoding="utf-8") as fh:
            result = json.load(fh)
        if not result["repocat_file"].startswith(os.path.join(self.src, "")):
            raise RuntimeError(f"{name} client imported repocat from {result['repocat_file']}")
        return result, maxrss_kib


def provenance(checkout, timed, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(checkout, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src", "repocat")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": timed["numpy"],
        "blas": timed["blas"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "runs": len(timed["passes"]),
    }


def json_output(command):
    """The `--json` result a command printed, or {} when it printed none."""
    try:
        return json.loads(command["stdout"])
    except json.JSONDecodeError:
        return {}


class Checks:
    """Output checks; each one counts as attempted, and failed when false."""

    def __init__(self):
        self.items = []

    def add(self, name, ok):
        self.items.append((name, bool(ok)))

    def commands(self, phase, results):
        for r in results:
            missing = f" missing {r['missing']}" if r["missing"] else ""
            self.add(f"{phase}: {' '.join(r['argv'][:4])} rc={r['rc']}{missing}",
                     r["rc"] == 0 and not r["missing"])

    @property
    def failed(self):
        return [name for name, ok in self.items if not ok]


def _check_embed(work, out, checks):
    initial, final = out.get("initial_loss"), out.get("final_loss")
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in (initial, final))
    checks.add("glove losses finite and falling", finite and final < initial)
    vectors = os.path.join(work, "out", "emb.txt")
    checks.add("embedding values finite",
               os.path.isfile(vectors) and workloads.finite_embedding(vectors))
    return {"glove_final_loss": final} if finite else {}


def _check_models(work, nn_out, lr_out, evals, projects, functions, checks):
    """Quality of a trained nn/lr pair and the verdicts of their evals."""
    quality = {}
    if nn_out.get("val_accuracy"):
        quality["val_accuracy"] = max(nn_out["val_accuracy"])
    if "final_loss" in lr_out:
        quality["lr_final_loss"] = lr_out["final_loss"]
    # chance level for three balanced categories is ln 3 > 1
    checks.add("lr final loss below 1", lr_out.get("final_loss", math.inf) < 1.0)
    for prefix, key in zip(evals, ("fn_accuracy_nn", "fn_accuracy_lr")):
        path = os.path.join(work, f"{prefix}.verdicts.jsonl")
        if not os.path.isfile(path):
            checks.add(f"{prefix} verdicts written", False)
            continue
        rows = workloads.read_jsonl_rows(path)
        counted = sum(row["functions"] for row in rows)
        checks.add(f"{prefix}: {len(rows)} verdict rows == {projects} projects",
                   len(rows) == projects)
        checks.add(f"{prefix}: {counted} verdict functions == {functions} extracted",
                   counted == functions)
        quality[key] = workloads.tally_accuracy(rows)
    report = os.path.join(work, f"{evals[0]}.report.json")
    if os.path.isfile(report):
        with open(report, "r", encoding="utf-8") as fh:
            quality["project_f1"] = json.load(fh)["weighted"]["f1"]
    for key, floor in workloads.FLOORS.items():
        checks.add(f"{key} >= {floor}", quality.get(key, 0.0) >= floor)
    return quality


def check_and_score(workload, work, fixture, timed, traced, post, checks):
    """Record every output check; returns the quality numbers of the workload."""
    for p in timed["passes"]:
        checks.commands("timed", p["commands"])
    first = timed["passes"][0]["digests"]
    for i, p in enumerate(timed["passes"][1:], 2):
        checks.add(f"pass {i} artifacts byte-identical to pass 1", p["digests"] == first)
    if traced is not None:
        for p in traced["passes"]:
            checks.commands("traced", p["commands"])
        checks.add("traced artifacts byte-identical to untraced",
                   all(p["digests"] == first for p in traced["passes"]))
    checks.commands("post", post["commands"])

    last = [json_output(c) for c in timed["passes"][-1]["commands"]]
    made = [json_output(c) for c in fixture["commands"]]
    if workload == "build":
        split = made[2]
        quality = _check_embed(work, last[0], checks)
        quality.update(_check_models(
            work, last[1], last[2], ("post/nn", "post/lr"),
            split.get("holdout_projects"), split.get("holdout_functions"), checks,
        ))
        return quality
    return _check_models(work, made[-2], made[-1], ("out/nn", "out/lr"),
                         fixture["inputs"]["projects"], last[0].get("functions"), checks)


def extracted_profile(work):
    """Realised co lengths of the functions the program extracted from the
    categorize tree: {"co_len_median", "co_len_ge59_share"}."""
    path = os.path.join(work, "out", "holdout.jsonl")
    if not os.path.isfile(path):
        return {}
    rows = workloads.read_jsonl_rows(path)
    median, long_share = inputs.length_profile([len(row["tokens"]) for row in rows])
    return {"co_len_median": median, "co_len_ge59_share": long_share}


def functions_processed(workload, fixture, timed):
    """Functions one pass consumes: training functions, or extracted holdout."""
    if workload == "categorize":
        return json_output(timed["passes"][-1]["commands"][0]).get("functions", 0)
    return json_output(fixture["commands"][2]).get("train_functions", 0)


def bench(inv):
    args = inv.args
    try:
        inv.setup_samples(1)  # compile and cache bytecode
        setup = inv.setup_samples()
        fixture, _ = inv.client("fixture")
        broken = [r for r in fixture["commands"] if r["rc"] != 0 or r["missing"]]
        if broken:
            raise RuntimeError(f"fixture command failed: {broken[0]['argv']}")
        setup += inv.setup_samples()
        timed, maxrss_kib = inv.client("timed")
        setup += inv.setup_samples()
        traced = inv.client("timed", trace=True)[0] if args.trace else None
        post = {"commands": []}
        if workloads.commands(args.workload, args.seed)["post"]:
            post, _ = inv.client("post")
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = Checks()
    quality = check_and_score(args.workload, inv.work, fixture, timed, traced, post, checks)
    walls = [p["wall_s"] for p in timed["passes"]]
    wall_s = statistics.median(walls)
    attempted = len(checks.items)
    failed = len(checks.failed)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "peak_rss_mb": maxrss_kib / 1024.0,
        "ok_rate": 1.0 - failed / attempted,
        "functions_per_s": functions_processed(args.workload, fixture, timed) / wall_s,
    }
    per_layer = None
    unmeasured = {}
    if traced is not None:
        spans, counts, unmeasured = tracing.load(os.path.join(inv.work, "trace.jsonl"))
        per_layer = tracing.zero_unmeasured(
            tracing.layer_metrics(spans, counts, len(traced["passes"])), unmeasured
        )
        per_layer["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced["passes"]) - wall_s
        )
        per_layer.update({name: quality.get(name, 0.0) for name in QUALITY})

    record = {
        "workload": args.workload,
        "provenance": provenance(inv.checkout, timed, args.seed),
        "wall_s_samples": walls,
        "wall_s_tail": tail_percentile(walls),
        "setup_s_samples": setup,
        "quality": quality,
        "inputs": (
            {**fixture["inputs"], **extracted_profile(inv.work)}
            if args.workload == "categorize" else None
        ),
        "artifacts_sha256": timed["passes"][0]["digests"],
        "checks_failed": checks.failed,
        "unmeasured_layers": unmeasured,
    }
    table = {**e2e, **quality, **(per_layer or {})}
    units = {**END_TO_END, **PER_LAYER}
    for name, value in table.items():
        print(f"{name:<34} {value:>14.6g} {units[name]}")
    for name in checks.failed:
        print(f"FAILED check: {name}")
    print(json.dumps({"record": record}, sort_keys=True))

    reported = e2e if per_layer is None else per_layer
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "repocat", "cli.py")):
        print("error: run from the root of a repocat checkout (src/repocat/cli.py "
              "not found)", file=sys.stderr)
        return 2
    inv = Invocation(args, checkout)
    os.makedirs(os.path.join(inv.work, "out"))
    os.makedirs(os.path.join(inv.work, "post"))
    try:
        return bench(inv)
    finally:
        shutil.rmtree(inv.work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(checkout, WORK_ROOT))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
