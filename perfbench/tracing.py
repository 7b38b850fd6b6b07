"""Per-layer tracing from outside the program.

The traced run replaces named public functions of repocat's modules with
wrappers that record one span per call: name, start, end, parent span and a
request id (the CLI command the call belongs to).  This works because the
program reaches these functions as module attributes (`corpus.read_...`,
`model.train_step` from `model.fit`, `checkpoint.load_checkpoint` from
`model.load_model`), so replacing the attribute reroutes every such call.
Spans stay in memory and are written out once, when the run ends.  The span
stack assumes one thread, which holds while the client leaves extraction at
its default of one thread.

A function's self time is its span's duration minus the part of that interval
covered by its child spans.  A target that no longer exists, or a counter
that fails on a changed return type, marks its layer unmeasured; the run goes
on and the layer's metrics read 0.
"""

import functools
import json
import os
import statistics
import time

# layer -> public functions wrapped in the traced run
TARGETS = {
    "corpus": (
        "load_repository", "iter_source_files", "extract_file", "extract_functions",
        "project_token_records", "read_token_dataset", "write_token_dataset",
    ),
    "tokens": ("build_vocabulary", "encode"),
    "embedding": (
        "build_cooccurrence", "train_glove", "save_embedding_text",
        "load_embedding_text", "vocab_from_embedding_text",
    ),
    "model": ("fit", "train_step", "predict_proba", "load_model", "save_model"),
    "baseline": ("train_logreg", "features_matrix", "bow_features", "predict_logreg"),
    "evaluation": (
        "evaluate_project_level", "vote", "classification_report", "write_verdicts",
    ),
    "checkpoint": ("load_checkpoint", "save_checkpoint"),
    "fileio": ("atomic_write_text", "atomic_write_bytes", "write_jsonl", "read_jsonl"),
}

# unit of every per-layer metric, in the order layer_metrics reports them
UNITS = {
    "corpus.extract_s": "s", "corpus.extract_mb_per_s": "MB/s",
    "corpus.files": "count", "corpus.functions": "count",
    "corpus.diagnostics": "count", "corpus.tokenize_s": "s",
    "corpus.read_dataset_s": "s", "corpus.write_dataset_s": "s",
    "tokens.vocab_s": "s", "tokens.encode_s": "s", "tokens.encode_calls": "count",
    "tokens.oov_rate": "ratio", "tokens.cd_descr_cut_share": "ratio",
    "embedding.cooccur_s": "s", "embedding.cooccur_pairs": "count",
    "embedding.glove_s": "s", "embedding.glove_iter_s": "s",
    "embedding.glove_bytes_per_iter": "B-computed",
    "embedding.glove_loss_ratio": "ratio", "embedding.save_text_s": "s",
    "embedding.load_text_s": "s",
    "model.train_step_ms": "ms", "model.train_steps": "count",
    "model.fit_self_s": "s", "model.predict_calls": "count",
    "model.predict_rows": "count", "model.rows_per_predict_call": "rows/call",
    "model.predict_ms_per_row": "ms/row", "model.load_s": "s", "model.save_s": "s",
    "baseline.train_s": "s", "baseline.features_s": "s", "baseline.predict_s": "s",
    "baseline.predict_calls": "count",
    "evaluation.self_s": "s", "evaluation.projects": "count",
    "checkpoint.loads": "count", "checkpoint.load_s": "s", "checkpoint.save_s": "s",
    "fileio.write_s": "s", "fileio.bytes_written": "B", "fileio.read_jsonl_s": "s",
    "cli.self_s": "s",
}

ROOT = "cli.main"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_extract_file(counts, module, args, kwargs, result):
    counts["corpus.files"] += 1
    counts["corpus.functions"] += len(result.functions)
    counts["corpus.diagnostics"] += len(result.diagnostics)
    counts["corpus.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_encode(counts, module, args, kwargs, result):
    # the program's own constants, read from repocat.tokens
    toks = _arg(args, kwargs, 0, "tokens")
    seq_len = _arg(args, kwargs, 2, "seq_len", module.DEFAULT_SEQ_LEN)
    counts["tokens.nonpad"] += int((result != module.PAD_ID).sum())
    counts["tokens.unk"] += int((result == module.UNK_ID).sum())
    if module.DESCR_DELIM in toks:
        counts["tokens.cd_inputs"] += 1
        if toks.index(module.DESCR_DELIM) + 1 >= seq_len:
            counts["tokens.cd_cut"] += 1


def _count_cooccurrence(counts, module, args, kwargs, result):
    counts["embedding.pairs"] += len(result)


def _count_glove(counts, module, args, kwargs, result):
    table = _arg(args, kwargs, 0, "table")
    config = _arg(args, kwargs, 2, "config")
    losses = result[1]
    counts["embedding.iterations"] += config.iterations
    # per iteration each pair gathers and scatters 4 rows of `dims` float64
    # (w, w~ and their AdaGrad sums) plus 12 scalars: an array-size figure,
    # not a measured memory traffic
    counts["embedding.bytes"] += config.iterations * len(table) * 8 * (8 * config.dims + 12)
    counts["embedding.loss_ratio_sum"] += losses[-1] / losses[0] if losses[0] else 0.0
    counts["embedding.glove_calls"] += 1


def _count_predict_proba(counts, module, args, kwargs, result):
    counts["model.predict_rows"] += len(result)


def _count_write_text(counts, module, args, kwargs, result):
    counts["fileio.bytes"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


def _count_write_bytes(counts, module, args, kwargs, result):
    counts["fileio.bytes"] += len(_arg(args, kwargs, 1, "data"))


COUNTERS = {
    "corpus.extract_file": _count_extract_file,
    "tokens.encode": _count_encode,
    "embedding.build_cooccurrence": _count_cooccurrence,
    "embedding.train_glove": _count_glove,
    "model.predict_proba": _count_predict_proba,
    "fileio.atomic_write_text": _count_write_text,
    "fileio.atomic_write_bytes": _count_write_bytes,
}


COUNTER_KEYS = (
    "corpus.files", "corpus.functions", "corpus.diagnostics", "corpus.bytes",
    "tokens.nonpad", "tokens.unk", "tokens.cd_inputs", "tokens.cd_cut",
    "embedding.pairs", "embedding.iterations", "embedding.bytes",
    "embedding.loss_ratio_sum", "embedding.glove_calls",
    "model.predict_rows", "fileio.bytes",
)


class Tracer:
    """In-memory span recorder; spans are (name, parent, start, end, request).

    parent is the index of the enclosing span (-1 at the top); request names
    the CLI command, as "<pass>.<command>".
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTER_KEYS, 0)
        self.request = None
        self.unmeasured = {}  # layer -> reason

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name; returns fn's result."""
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, parent, start, end, self.request)

    def wrap(self, layer, module, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if counter is not None and layer not in tracer.unmeasured:
                try:
                    counter(tracer.counts, module, args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    tracer.unmeasured[layer] = f"counter for {name} failed: {exc!r}"
            return result

        return wrapper

    def install(self, modules):
        """Wrap every TARGETS function found in modules ({layer: module})."""
        for layer, functions in TARGETS.items():
            module = modules.get(layer)
            for fn_name in functions:
                full = f"{layer}.{fn_name}"
                target = getattr(module, fn_name, None)
                if not callable(target):
                    self.unmeasured[layer] = f"{full} not found"
                    continue
                setattr(module, fn_name,
                        self.wrap(layer, module, full, target, COUNTERS.get(full)))

    def dump(self, path):
        """Write spans as JSONL and the counters as a final line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, request in self.spans:
                fh.write(json.dumps([name, parent, start, end, request]) + "\n")
            fh.write(json.dumps({"counts": self.counts, "unmeasured": self.unmeasured}) + "\n")


def load(path):
    """(spans, counts, unmeasured) from a file written by Tracer.dump."""
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines[:-1]:
        spans.append(tuple(json.loads(line)))
    tail = json.loads(lines[-1])
    return spans, tail["counts"], tail["unmeasured"]


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Per-span self time: duration minus the union of its children's spans."""
    children = [[] for _ in spans]
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, parent, start, end, _), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
        out.append(end - start - _covered(clipped))
    return out


def summarize(spans):
    """{name: {"calls", "total_s", "self_s", "durations"}} over all spans."""
    out = {}
    for (name, _, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        entry["durations"].append(end - start)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, passes):
    """Per-layer metrics per workload pass, as {name: value}."""
    s = summarize(spans)

    def self_s(*names):
        return sum(s[n]["self_s"] for n in names if n in s) / passes

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def total(name):
        return s[name]["total_s"] if name in s else 0.0

    extract_s = self_s(
        "corpus.load_repository", "corpus.iter_source_files",
        "corpus.extract_file", "corpus.extract_functions",
    )
    glove_s = self_s("embedding.train_glove")
    steps = s.get("model.train_step", {}).get("durations", [])
    rows = counts["model.predict_rows"]
    return {
        "corpus.extract_s": extract_s,
        "corpus.extract_mb_per_s": _ratio(counts["corpus.bytes"] / 1e6, extract_s * passes),
        "corpus.files": counts["corpus.files"] / passes,
        "corpus.functions": counts["corpus.functions"] / passes,
        "corpus.diagnostics": counts["corpus.diagnostics"] / passes,
        "corpus.tokenize_s": self_s("corpus.project_token_records"),
        "corpus.read_dataset_s": self_s("corpus.read_token_dataset"),
        "corpus.write_dataset_s": self_s("corpus.write_token_dataset"),
        "tokens.vocab_s": self_s("tokens.build_vocabulary"),
        "tokens.encode_s": self_s("tokens.encode"),
        "tokens.encode_calls": calls("tokens.encode") / passes,
        "tokens.oov_rate": _ratio(counts["tokens.unk"], counts["tokens.nonpad"]),
        "tokens.cd_descr_cut_share": _ratio(counts["tokens.cd_cut"], counts["tokens.cd_inputs"]),
        "embedding.cooccur_s": self_s("embedding.build_cooccurrence"),
        "embedding.cooccur_pairs": counts["embedding.pairs"] / passes,
        "embedding.glove_s": glove_s,
        "embedding.glove_iter_s": _ratio(glove_s * passes, counts["embedding.iterations"]),
        "embedding.glove_bytes_per_iter": _ratio(counts["embedding.bytes"], counts["embedding.iterations"]),
        "embedding.glove_loss_ratio": _ratio(counts["embedding.loss_ratio_sum"], counts["embedding.glove_calls"]),
        "embedding.save_text_s": self_s("embedding.save_embedding_text"),
        "embedding.load_text_s": self_s("embedding.load_embedding_text", "embedding.vocab_from_embedding_text"),
        "model.train_step_ms": 1000.0 * statistics.median(steps) if steps else 0.0,
        "model.train_steps": len(steps) / passes,
        "model.fit_self_s": self_s("model.fit"),
        "model.predict_calls": calls("model.predict_proba") / passes,
        "model.predict_rows": rows / passes,
        "model.rows_per_predict_call": _ratio(rows, calls("model.predict_proba")),
        "model.predict_ms_per_row": _ratio(1000.0 * total("model.predict_proba"), rows),
        "model.load_s": self_s("model.load_model"),
        "model.save_s": self_s("model.save_model"),
        "baseline.train_s": self_s("baseline.train_logreg"),
        "baseline.features_s": self_s("baseline.bow_features", "baseline.features_matrix"),
        "baseline.predict_s": self_s("baseline.predict_logreg"),
        "baseline.predict_calls": calls("baseline.predict_logreg") / passes,
        "evaluation.self_s": self_s(
            "evaluation.evaluate_project_level", "evaluation.vote",
            "evaluation.classification_report", "evaluation.write_verdicts",
        ),
        "evaluation.projects": calls("evaluation.vote") / passes,
        "checkpoint.loads": calls("checkpoint.load_checkpoint") / passes,
        "checkpoint.load_s": self_s("checkpoint.load_checkpoint"),
        "checkpoint.save_s": self_s("checkpoint.save_checkpoint"),
        "fileio.write_s": self_s("fileio.atomic_write_text", "fileio.atomic_write_bytes", "fileio.write_jsonl"),
        "fileio.bytes_written": counts["fileio.bytes"] / passes,
        "fileio.read_jsonl_s": self_s("fileio.read_jsonl"),
        "cli.self_s": self_s(ROOT),
    }


def zero_unmeasured(metrics, unmeasured):
    """Set every metric of an unmeasured layer to 0."""
    return {
        name: 0.0 if name.split(".", 1)[0] in unmeasured else value
        for name, value in metrics.items()
    }
