"""Voting, metrics, and project-level evaluation contracts."""

import numpy as np
import pytest

from repocat import evaluation as E
from repocat import model as M
from repocat import tokens as T
from repocat.corpus import FunctionTokens, Project
from repocat.evaluation import Prediction


def pred(probs):
    return Prediction(np.asarray(probs, dtype=np.float64))


class TestPrediction:
    def test_argmax_first_on_tie(self):
        assert pred([0.2, 0.6, 0.2]).predicted == 1
        assert pred([0.4, 0.4, 0.2]).predicted == 0


class TestVote:
    def test_plurality(self):
        verdict = E.vote([pred([0.9, 0.1]), pred([0.8, 0.2]), pred([0.1, 0.9])])
        assert verdict.winner == 0
        assert verdict.tally == {0: 2, 1: 1}
        assert verdict.n_functions == 3

    def test_tie_broken_by_summed_probability(self):
        # one vote each; category 1 has the larger probability mass
        verdict = E.vote([pred([0.6, 0.4]), pred([0.05, 0.95])])
        assert verdict.winner == 1

    def test_tie_then_lowest_index(self):
        # perfectly symmetric: equal votes, equal mass -> lowest index
        verdict = E.vote([pred([0.7, 0.3]), pred([0.3, 0.7])])
        assert verdict.winner == 0

    def test_summed_mass_counts_all_predictions(self):
        # votes tie 1-1 between 0 and 1, but a third prediction that voted 2
        # contributes its mass to the tied categories as well
        verdict = E.vote([
            pred([0.5, 0.3, 0.2]),
            pred([0.3, 0.5, 0.2]),
            pred([0.05, 0.35, 0.6]),
        ])
        # summed mass: cat0 = 0.85, cat1 = 1.15 -> cat1 wins despite the tie
        assert verdict.winner == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            E.vote([])


class TestClassificationReport:
    def test_frozen_two_class_example(self):
        # gold [a,a,b,b], predicted [a,b,b,b]
        #   a: P=1, R=1/2, F1=2/3 ; b: P=2/3, R=1, F1=4/5
        #   weighted: P=5/6, R=3/4 (=accuracy), F1=11/15
        report = E.classification_report(
            ["a", "a", "b", "b"], ["a", "b", "b", "b"], ["a", "b"]
        )
        a, b = report.per_category["a"], report.per_category["b"]
        assert abs(a.precision - 1.0) <= 1e-12
        assert abs(a.recall - 0.5) <= 1e-12
        assert abs(a.f1 - 2 / 3) <= 1e-12
        assert abs(b.precision - 2 / 3) <= 1e-12
        assert abs(b.recall - 1.0) <= 1e-12
        assert abs(b.f1 - 4 / 5) <= 1e-12
        assert abs(report.weighted.precision - 5 / 6) <= 1e-12
        assert abs(report.weighted.recall - 3 / 4) <= 1e-12
        assert abs(report.weighted.f1 - 11 / 15) <= 1e-12
        assert report.accuracy == 0.75
        assert report.weighted.support == 4

    def test_zero_denominators_are_zero(self):
        # category c never predicted and never gold-labeled
        report = E.classification_report(["a", "b"], ["b", "a"], ["a", "b", "c"])
        c = report.per_category["c"]
        assert (c.precision, c.recall, c.f1, c.support) == (0.0, 0.0, 0.0, 0)
        # a predicted but never right: P=0, R=0 -> F1 0 without dividing by 0
        assert report.per_category["a"].f1 == 0.0

    def test_weighted_recall_equals_accuracy_randomized(self):
        rng = np.random.default_rng(123)
        cats = ["w", "x", "y", "z"]
        for _ in range(50):
            n = int(rng.integers(1, 40))
            gold = [cats[int(i)] for i in rng.integers(0, 4, n)]
            predicted = [cats[int(i)] for i in rng.integers(0, 4, n)]
            report = E.classification_report(gold, predicted, cats)
            accuracy = sum(g == p for g, p in zip(gold, predicted)) / n
            assert abs(report.weighted.recall - accuracy) <= 1e-12
            assert abs(report.accuracy - accuracy) <= 1e-12

    def test_perfect_prediction(self):
        report = E.classification_report(["a", "b"], ["a", "b"], ["a", "b"])
        assert report.weighted.f1 == 1.0
        assert report.accuracy == 1.0

    def test_label_outside_categories_rejected(self):
        with pytest.raises(ValueError):
            E.classification_report(["a"], ["q"], ["a", "b"])
        with pytest.raises(ValueError):
            E.classification_report(["q"], ["a"], ["a", "b"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            E.classification_report(["a"], ["a", "b"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            E.classification_report([], [], ["a"])

    def test_text_table_alignment(self):
        report = E.classification_report(
            ["sound", "games"], ["sound", "sound"], ["games", "sound"]
        )
        text = report.format_text()
        lines = text.splitlines()
        assert len(lines) == 4  # header + 2 categories + weighted
        assert lines[0].split() == ["category", "precision", "recall", "f1", "support"]
        assert all(len(line) == len(lines[0]) for line in lines[1:])
        assert lines[-1].startswith("weighted")

    def test_to_dict_shape(self):
        report = E.classification_report(["a"], ["a"], ["a", "b"])
        d = report.to_dict()
        assert set(d) == {"per_category", "weighted", "accuracy"}
        assert set(d["per_category"]) == {"a", "b"}
        assert set(d["weighted"]) == {"precision", "recall", "f1", "support"}


def _holdout():
    """Two projects whose functions carry their category in a token."""

    def funcs(project, cat, n):
        return [
            FunctionTokens(
                project=project,
                function=f"fn{i}",
                category=cat,
                tokens=[project.lower(), f"fn{i}", f"{cat}_marker"],
                descr_tokens=[f"{cat}_described"],
            )
            for i in range(n)
        ]

    return [
        Project(name="alsa", category="sound", functions=funcs("alsa", "sound", 3)),
        Project(name="nethack", category="games", functions=funcs("nethack", "games", 2)),
    ]


def _marker_predictor(categories, use_descr=False):
    """Batch predictor looking for '<cat>_marker' / '<cat>_described' tokens."""

    def predict(streams):
        probs = np.full((len(streams), len(categories)), 0.1)
        for row, tokens in enumerate(streams):
            for i, cat in enumerate(categories):
                marker = f"{cat}_described" if use_descr else f"{cat}_marker"
                if marker in tokens:
                    probs[row, i] = 1.0
        return probs / probs.sum(axis=1, keepdims=True)

    return predict


def _noisy_predictor(n_categories, seed):
    """Batch predictor whose rows depend only on each stream's tokens."""

    def predict(streams):
        rows = []
        for tokens in streams:
            key = sum(ord(ch) * (i + 1) for i, ch in enumerate("|".join(tokens)))
            rows.append(np.random.default_rng([seed, key]).dirichlet(np.ones(n_categories)))
        return np.array(rows)

    return predict


def _per_function_reference(predict_batch, projects, variant, categories):
    """The per-function loop evaluate_project_level used to run."""
    verdicts = []
    for project in projects:
        predictions = [
            Prediction(predict_batch([T.variant_tokens(f.tokens, f.descr_tokens, variant)])[0])
            for f in project.functions
        ]
        verdict = E.vote(predictions, project=project.name)
        verdict.gold = categories.index(project.category)
        verdicts.append(verdict)
    return verdicts


def _mixed_holdout(seed, n_projects=12, sizes=None):
    """Projects of 1-9 functions (or of the given sizes) over random tokens
    from three categories."""
    rng = np.random.default_rng(seed)
    categories = ["games", "sound", "science"]
    projects = []
    for p, size in enumerate(sizes or [None] * n_projects):
        cat = categories[p % 3]
        functions = [
            FunctionTokens(
                project=f"p{p}", function=f"fn{i}", category=cat,
                tokens=[f"t{int(t)}" for t in rng.integers(0, 40, int(rng.integers(1, 8)))],
                descr_tokens=[f"d{int(t)}" for t in rng.integers(0, 5, 2)],
            )
            for i in range(size or int(rng.integers(1, 10)))
        ]
        projects.append(Project(name=f"p{p}", category=cat, functions=functions))
    return projects, categories


class TestEvaluateProjectLevel:
    categories = ["games", "sound"]

    def test_perfect_marker_predictor(self):
        report, verdicts = E.evaluate_project_level(
            self._predict(), _holdout(), "co", self.categories
        )
        assert report.accuracy == 1.0
        assert [v.project for v in verdicts] == ["alsa", "nethack"]
        assert [v.winner for v in verdicts] == [1, 0]
        assert [v.gold for v in verdicts] == [1, 0]
        assert verdicts[0].n_functions == 3

    def _predict(self):
        return _marker_predictor(self.categories)

    def test_cd_variant_appends_description_tokens(self):
        # the description-based predictor only works on the cd variant
        predict = _marker_predictor(self.categories, use_descr=True)
        report_cd, _ = E.evaluate_project_level(predict, _holdout(), "cd", self.categories)
        assert report_cd.accuracy == 1.0
        report_co, _ = E.evaluate_project_level(predict, _holdout(), "co", self.categories)
        assert report_co.accuracy < 1.0  # markers absent from co tokens

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            E.evaluate_project_level(self._predict(), _holdout(), "xx", self.categories)

    def test_empty_holdout_rejected(self):
        with pytest.raises(ValueError):
            E.evaluate_project_level(self._predict(), [], "co", self.categories)

    def test_unknown_category_rejected(self):
        bad = _holdout()
        bad[0].category = "surprise"
        with pytest.raises(ValueError, match="surprise"):
            E.evaluate_project_level(self._predict(), bad, "co", self.categories)

    @pytest.mark.parametrize("variant", ["co", "cd"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_matches_per_function_reference(self, variant, seed):
        projects, categories = _mixed_holdout(seed)
        predict = _noisy_predictor(len(categories), seed)
        report, verdicts = E.evaluate_project_level(
            predict, iter(projects), variant, categories
        )
        # in project-name order: p0, p1, p10, p11, p2, ...
        projects.sort(key=lambda p: p.name)
        want = _per_function_reference(predict, projects, variant, categories)
        assert verdicts == want
        gold = [p.category for p in projects]
        assert report == E.classification_report(
            gold, [categories[v.winner] for v in want], categories
        )

    def test_calls_fill_passes_with_whole_projects(self, monkeypatch):
        # project sizes around PREDICT_ROWS rows, one of them larger
        rows = M.PREDICT_ROWS
        q = rows // 64
        sizes = [30 * q, 30 * q, 5 * q, 71 * q, q, 20 * q, 40 * q, 3 * q, 64 * q, 2 * q]
        projects, categories = _mixed_holdout(3, sizes=sizes)
        predict = _noisy_predictor(len(categories), 3)
        calls = []

        def recording(streams):
            calls.append(list(streams))
            return predict(streams)

        _, verdicts = E.evaluate_project_level(recording, iter(projects), "co", categories)
        # the calls hold every function once, in file order ...
        assert [s for call in calls for s in call] == [
            T.variant_tokens(f.tokens, f.descr_tokens, "co")
            for p in projects for f in p.functions
        ]
        # ... and end only where a project ends
        bounds = np.cumsum([0] + sizes).tolist()
        ends = np.cumsum([len(call) for call in calls]).tolist()
        assert set(ends) <= set(bounds)
        for lo, hi in zip([0] + ends, ends):
            # at most PREDICT_ROWS rows, unless one project is larger
            assert hi - lo <= rows or bounds.index(hi) - bounds.index(lo) == 1
            # and the next project did not fit
            if hi < bounds[-1]:
                assert bounds[bounds.index(hi) + 1] - lo > rows
        assert [len(call) for call in calls] == [60 * q, 5 * q, 71 * q, rows, rows, 2 * q]

        # one call per project gives the same verdicts
        monkeypatch.setattr(M, "PREDICT_ROWS", 1)
        per_project = []

        def counting(streams):
            per_project.append(len(streams))
            return predict(streams)

        _, want = E.evaluate_project_level(counting, iter(projects), "co", categories)
        assert per_project == sizes
        assert verdicts == want

    def test_wrong_predictor_shape_rejected(self):
        def predict(streams):
            return np.full((len(streams), 3), 1.0 / 3)

        with pytest.raises(ValueError, match="shape"):
            E.evaluate_project_level(predict, _holdout(), "co", self.categories)


def test_write_verdicts(tmp_path):
    from repocat import fileio

    verdicts = [
        E.ProjectVerdict(project="alsa", winner=1, tally={0: 1, 1: 4},
                         gold=1, n_functions=5),
    ]
    path = tmp_path / "verdicts.jsonl"
    E.write_verdicts(path, verdicts, ["games", "sound"], meta={"variant": "co"})
    rows, meta = fileio.read_jsonl(path)
    assert meta == {"variant": "co"}
    assert rows == [{
        "project": "alsa", "predicted": "sound", "gold": "sound",
        "tally": {"games": 1, "sound": 4}, "functions": 5,
    }]
