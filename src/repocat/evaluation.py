"""Project-level evaluation: plurality voting and precision/recall/F1.

A classifier labels every function of a held-out project; the project takes
the plurality category.  Ties break by the highest summed predicted
probability across the tied categories, then by the lowest category index.
Reports are function-agnostic: they score one (gold, predicted) label pair
per project, with per-category precision/recall/F1 and support-weighted
averages.  Weighted recall equals accuracy by construction.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import fileio, model, tokens


@dataclass
class Prediction:
    """Per-function category distribution."""

    probabilities: np.ndarray

    @property
    def predicted(self):
        """Index of the most probable category (first max on ties)."""
        return int(np.argmax(self.probabilities))


@dataclass
class ProjectVerdict:
    """Outcome of voting over one project's function predictions."""

    project: str
    winner: int
    tally: dict
    gold: int = -1
    n_functions: int = 0


def vote(predictions, project=""):
    """Plurality vote over per-function Predictions.

    Ties break by highest summed probability over the tied categories,
    then by lowest category index.  Raises ValueError on empty input.
    """
    if not predictions:
        raise ValueError(f"cannot vote on zero predictions (project {project!r})")
    tally = {}
    for pred in predictions:
        cat = pred.predicted
        tally[cat] = tally.get(cat, 0) + 1
    top = max(tally.values())
    tied = sorted(cat for cat, n in tally.items() if n == top)
    if len(tied) > 1:
        sums = {
            cat: float(sum(p.probabilities[cat] for p in predictions)) for cat in tied
        }
        best = max(sums.values())
        tied = sorted(cat for cat in tied if sums[cat] == best)
    return ProjectVerdict(
        project=project,
        winner=tied[0],
        tally={int(k): int(v) for k, v in sorted(tally.items())},
        n_functions=len(predictions),
    )


@dataclass
class CategoryMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    per_category: dict  # category name -> CategoryMetrics
    weighted: CategoryMetrics  # support-weighted averages; support = total
    accuracy: float

    def to_dict(self):
        return asdict(self)

    def format_text(self):
        """Aligned text table: one row per category plus the weighted row."""
        rows = [*self.per_category.items(), ("weighted", self.weighted)]
        width = max(len(name) for name, _ in rows)
        lines = [
            f"{'category':<{width}}  {'precision':>9}  {'recall':>9}  {'f1':>9}  {'support':>7}"
        ]
        lines.extend(
            f"{name:<{width}}  {m.precision:>9.3f}  {m.recall:>9.3f}  "
            f"{m.f1:>9.3f}  {m.support:>7d}"
            for name, m in rows
        )
        return "\n".join(lines)


def classification_report(gold, predicted, categories):
    """Precision/recall/F1 per category plus support-weighted averages.

    gold/predicted are equal-length label lists drawn from categories.
    Zero-denominator precision/recall/F1 are defined as 0.  Weighted
    averages weight by gold support, so weighted recall == accuracy.
    """
    if len(gold) != len(predicted):
        raise ValueError(
            f"gold and predicted lengths differ: {len(gold)} vs {len(predicted)}"
        )
    if not gold:
        raise ValueError("cannot report on zero verdicts")
    known = set(categories)
    for label in gold:
        if label not in known:
            raise ValueError(f"gold label outside category set: {label!r}")
    for label in predicted:
        if label not in known:
            raise ValueError(f"predicted label outside category set: {label!r}")

    per_category = {}
    total = len(gold)
    weighted_p = weighted_r = weighted_f1 = 0.0
    correct = sum(1 for g, p in zip(gold, predicted) if g == p)
    for cat in categories:
        tp = sum(1 for g, p in zip(gold, predicted) if g == cat and p == cat)
        fp = sum(1 for g, p in zip(gold, predicted) if g != cat and p == cat)
        fn = sum(1 for g, p in zip(gold, predicted) if g == cat and p != cat)
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_category[cat] = CategoryMetrics(precision, recall, f1, support)
        weighted_p += support * precision
        weighted_r += support * recall
        weighted_f1 += support * f1
    weighted = CategoryMetrics(
        weighted_p / total, weighted_r / total, weighted_f1 / total, total
    )
    return MetricsReport(
        per_category=per_category, weighted=weighted, accuracy=correct / total
    )


def evaluate_project_level(predict_batch, holdout_projects, variant, categories):
    """Score held-out projects with a batch predictor.

    predict_batch maps a list of N token lists to an (N, C) array of
    probabilities over category indices (aligned with `categories`).
    `holdout_projects` is any iterable of Projects, read once.  Each
    project's functions are represented under `variant` ("co" or "cd"), and
    consecutive projects are predicted together, as many whole projects as
    fit in model.PREDICT_ROWS rows (a larger project alone), so a call fills
    a prediction pass of the network however small the projects are.  Each
    project is voted on its own rows of the call's result before the next
    projects are taken, so a stream of projects is held a call at a time.
    The verdicts, sorted by project name (ties keep their order), are
    scored against the gold categories.

    Returns (MetricsReport, [ProjectVerdict]), both in project-name order.
    """
    if variant not in ("co", "cd"):
        raise ValueError(f"unknown representation variant: {variant!r}")
    index_of = {cat: i for i, cat in enumerate(categories)}
    verdicts = []
    waiting = []  # (project name, gold index, token streams) for the next call

    def predict_waiting():
        streams = [s for _, _, project_streams in waiting for s in project_streams]
        probs = predict_batch(streams) if streams else np.empty((0, len(categories)))
        if probs.shape != (len(streams), len(categories)):
            raise ValueError(
                f"predictor returned shape {probs.shape} for {len(streams)} "
                f"functions over {len(categories)} categories"
            )
        lo = 0
        for name, gold, project_streams in waiting:
            hi = lo + len(project_streams)
            verdict = vote([Prediction(row) for row in probs[lo:hi]], project=name)
            verdict.gold = gold
            verdicts.append(verdict)
            lo = hi
        waiting.clear()

    rows = 0
    for project in holdout_projects:
        if project.category not in index_of:
            raise ValueError(
                f"project {project.name!r} has unknown category {project.category!r}"
            )
        streams = [
            tokens.variant_tokens(func.tokens, func.descr_tokens, variant)
            for func in project.functions
        ]
        if waiting and rows + len(streams) > model.PREDICT_ROWS:
            predict_waiting()
            rows = 0
        waiting.append((project.name, index_of[project.category], streams))
        rows += len(streams)
    if waiting:
        predict_waiting()
    if not verdicts:
        raise ValueError("no held-out projects to evaluate")
    verdicts.sort(key=lambda v: v.project)
    report = classification_report(
        [categories[v.gold] for v in verdicts],
        [categories[v.winner] for v in verdicts],
        categories,
    )
    return report, verdicts


def write_verdicts(path, verdicts, categories, meta=None):
    """Verdicts as JSONL: project, winner/gold category names, tally."""
    rows = []
    for v in verdicts:
        rows.append({
            "project": v.project,
            "predicted": categories[v.winner],
            "gold": categories[v.gold] if 0 <= v.gold < len(categories) else None,
            "tally": {categories[int(c)]: n for c, n in v.tally.items()},
            "functions": v.n_functions,
        })
    fileio.write_jsonl(path, rows, meta=meta)
