"""The two workloads as CLI command lists, and the helpers that check them.

Every command is an argv for `repocat.cli.main`, run with the work directory
as the current directory, paired with the artifacts it must write.  Each
workload has three phases:

* fixture: built once per invocation by the code under test, untimed;
* timed: the commands one pass of the workload runs, repeated for the run;
* post: untimed commands that check what the timed pass produced.
"""

import json
import math

# `build` is what a user runs to get vectors and models from a corpus,
# `categorize` what they run on projects the models were not trained on.
WORKLOADS = ("build", "categorize")

# GloVe iterations per `build` pass: with two, a 40 s run holds two passes
# of about 28 s, and co-occurrence plus GloVe is about a fifth of a pass.
EMBED_ITERATIONS = 2
QUICK_START_PER_CAT = 600
CATEGORIZE_SEED_OFFSET = 1000
# eval time does not depend on the weights: the `categorize` fixture models
# train one epoch on half the quick start's split, a sixth of its nn training
CATEGORIZE_FIXTURE_PER_CAT = 300
CATEGORIZE_FIXTURE_EPOCHS = 1

# Quality floors: outputs below these count as failed output checks.
FLOORS = {
    "val_accuracy": 0.6,
    "project_f1": 0.6,
    "fn_accuracy_nn": 0.6,
    "fn_accuracy_lr": 0.6,
}


def base_seed(seed):
    """The benchmark seed folded into the range numpy generators accept."""
    return seed % 2**31


def _quick_start(s, per_cat):
    return [
        (["--json", "dataset", "synth", "-o", "corpus", "--seed", str(s)],
         ["corpus/labels.jsonl"]),
        (["--json", "extract", "corpus", "--labels", "corpus/labels.jsonl",
          "-o", "data.jsonl"], ["data.jsonl"]),
        (["--json", "dataset", "split", "data.jsonl", "--holdout-per-cat", "5",
          "--per-cat", str(per_cat), "--seed", str(s + 1), "-o", "split"],
         ["split.train.jsonl", "split.holdout.jsonl"]),
    ]


def _train_nn(s, embedding, out, epochs=None):
    argv = ["--json", "train", "nn", "split.train.jsonl", "--embedding", embedding,
            "--seed", str(s + 4), "-o", out]
    if epochs is not None:
        argv += ["--epochs", str(epochs)]
    return argv, [out]


def _train_lr(s, out):
    return (["--json", "train", "lr", "split.train.jsonl", "--seed", str(s + 5),
             "-o", out], [out])


def _eval(model, holdout, variant, prefix, report):
    argv = ["eval", model, holdout, "--variant", variant,
            "--verdicts", f"{prefix}.verdicts.jsonl"]
    writes = [f"{prefix}.verdicts.jsonl"]
    if report:
        argv += ["--report", f"{prefix}.report.json"]
        writes.append(f"{prefix}.report.json")
    return argv, writes


def commands(workload, seed):
    """{"fixture", "timed", "post"}: lists of (argv, artifacts written)."""
    s = base_seed(seed)
    per_cat = CATEGORIZE_FIXTURE_PER_CAT if workload == "categorize" else QUICK_START_PER_CAT
    # train nn reads these random vectors as its frozen embedding: two GloVe
    # iterations in a `build` pass leave vectors it cannot learn from
    fixture = _quick_start(s, per_cat) + [
        (["--json", "embed", "random", "--train", "split.train.jsonl",
          "--seed", str(s + 2), "-o", "emb.txt"], ["emb.txt"]),
    ]
    if workload == "build":
        timed = [
            (["--json", "embed", "train", "split.train.jsonl",
              "--strategy", "code-description", "--x-max", "10",
              "--iterations", str(EMBED_ITERATIONS), "--seed", str(s + 2),
              "-o", "out/emb.txt"], ["out/emb.txt"]),
            _train_nn(s, "emb.txt", "out/nn.ckpt"),
            _train_lr(s, "out/lr.ckpt"),
        ]
        post = [
            _eval("out/nn.ckpt", "split.holdout.jsonl", "cd", "post/nn", True),
            _eval("out/lr.ckpt", "split.holdout.jsonl", "co", "post/lr", False),
        ]
    elif workload == "categorize":
        fixture += [
            _train_nn(s, "emb.txt", "nn.ckpt", epochs=CATEGORIZE_FIXTURE_EPOCHS),
            _train_lr(s, "lr.ckpt"),
        ]
        timed = [
            (["--json", "extract", "tree", "--labels", "tree/labels.jsonl",
              "-o", "out/holdout.jsonl"], ["out/holdout.jsonl"]),
            _eval("nn.ckpt", "out/holdout.jsonl", "cd", "out/nn", True),
            _eval("lr.ckpt", "out/holdout.jsonl", "co", "out/lr", False),
        ]
        post = []
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"fixture": fixture, "timed": timed, "post": post}


def categorize_tree_seed(seed):
    return base_seed(seed) + CATEGORIZE_SEED_OFFSET


def read_jsonl_rows(path):
    """Rows of a JSONL artifact, without its leading {"_meta": ...} line."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [row for row in rows if set(row) != {"_meta"}]


def tally_accuracy(verdicts):
    """Function-level accuracy from verdict rows: gold votes over all votes.

    Each row's tally maps a category to the number of the project's functions
    predicted as that category, so the gold category's count is the number of
    correctly classified functions.
    """
    total = sum(row["functions"] for row in verdicts)
    correct = sum(row["tally"].get(row["gold"], 0) for row in verdicts)
    return correct / total if total else 0.0


def finite_embedding(path):
    """True when every vector value in an embedding text artifact is finite."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            values = line.split()[1:]
            if not values or not all(math.isfinite(float(v)) for v in values):
                return False
    return True
