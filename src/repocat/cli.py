"""Command-line front end orchestrating the categorization pipeline.

Stages: ``extract`` a labeled project tree into a token dataset, ``dataset
split`` it into project-disjoint train/holdout files, ``embed`` vectors on
the training text, ``train`` the sequence classifier or the bag-of-words
baseline, ``eval`` held-out projects by majority vote, and ``explain`` a
single prediction as a convolution-activation heatmap.

Global flags come before the subcommand: ``--config FILE`` loads run
settings (see runconfig), ``--seed`` points every stage seed at one value,
``--json`` switches reports to machine-readable output.  Every subcommand
exits nonzero with a one-line ``error: ...`` diagnostic on failure.  Every
artifact written embeds the full run configuration, so identical inputs and
settings reproduce byte-identical outputs.
"""

import argparse
import json
import logging
import sys

import numpy as np

from . import __version__, baseline, checkpoint, corpus, embedding, evaluation
from . import fileio, model, runconfig, synth, tokens


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repocat",
        description="categorize software projects from their C/C++ functions",
    )
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override every stage seed with one value")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key = value settings file")
    parser.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text")
    parser.add_argument("--verbose", action="store_true",
                        help="log per-stage progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("extract",
                       help="tokenize a labeled project tree into a dataset")
    p.add_argument("root", help="directory of project subdirectories")
    p.add_argument("--labels", required=True, metavar="FILE",
                   help="JSONL with name/category/description per project")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_extract)

    ds = sub.add_parser("dataset", help="split datasets or generate a synthetic one")
    dsub = ds.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = dsub.add_parser("split",
                        help="project-disjoint, category-balanced train/holdout")
    p.add_argument("dataset", help="token dataset from extract")
    p.add_argument("--holdout-per-cat", type=int, default=None, metavar="N",
                   dest="split.holdout_per_category",
                   help="projects held out per category")
    p.add_argument("--per-cat", type=int, default=None, metavar="M",
                   dest="split.per_category_count",
                   help="training functions sampled per category")
    p.add_argument("--seed", type=int, default=None, metavar="S", dest="split.seed")
    p.add_argument("-o", "--output", required=True, metavar="PREFIX",
                   help="writes PREFIX.train.jsonl and PREFIX.holdout.jsonl")
    p.set_defaults(func=cmd_dataset_split)

    p = dsub.add_parser("synth",
                        help="generate the bundled synthetic labeled corpus")
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.add_argument("--categories", type=int, default=None, metavar="N",
                   dest="synth.categories")
    p.add_argument("--projects-per-cat", type=int, default=None, metavar="N",
                   dest="synth.projects_per_category")
    p.add_argument("--functions-per-project", type=int, default=None, metavar="N",
                   dest="synth.functions_per_project")
    p.add_argument("--noise", type=float, default=None, metavar="F",
                   dest="synth.noise",
                   help="cross-category word replacement probability")
    p.add_argument("--phrase-rate", type=float, default=None, metavar="F",
                   dest="synth.phrase_rate",
                   help="fraction of functions with the planted call")
    p.add_argument("--seed", type=int, default=None, metavar="S", dest="synth.seed")
    p.set_defaults(func=cmd_dataset_synth)

    em = sub.add_parser("embed", help="train, import, or query word vectors")
    esub = em.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = esub.add_parser("train", help="train vectors on a token dataset")
    p.add_argument("train", help="training dataset from dataset split")
    p.add_argument("--strategy", required=True, choices=embedding.STRATEGIES,
                   help="text fed to the vector model")
    p.add_argument("--window", type=int, default=None, metavar="N",
                   dest="glove.window")
    p.add_argument("--dims", type=int, default=None, metavar="N", dest="glove.dims")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   dest="glove.iterations")
    p.add_argument("--x-max", type=float, default=None, metavar="F",
                   dest="glove.x_max")
    p.add_argument("--alpha", type=float, default=None, metavar="F",
                   dest="glove.alpha")
    p.add_argument("--lr", type=float, default=None, metavar="F",
                   dest="glove.learning_rate")
    p.add_argument("--seed", type=int, default=None, metavar="S", dest="glove.seed")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_embed_train)

    p = esub.add_parser("load",
                        help="align external 'token v1..vD' vectors to a dataset")
    p.add_argument("vectors", help="text file of token and vector values per line")
    p.add_argument("--train", required=True, metavar="FILE",
                   help="dataset whose vocabulary the vectors are aligned to")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_embed_load)

    p = esub.add_parser("random",
                        help="seeded random vectors over a dataset vocabulary")
    p.add_argument("--train", required=True, metavar="FILE")
    p.add_argument("--dims", type=int, default=None, metavar="N", dest="glove.dims")
    p.add_argument("--seed", type=int, default=None, metavar="S", dest="glove.seed")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_embed_random)

    p = esub.add_parser("neighbors", help="nearest tokens by cosine similarity")
    p.add_argument("embedding", help="embedding artifact")
    p.add_argument("token")
    p.add_argument("-k", type=int, default=10, help="neighbors to list (default 10)")
    p.set_defaults(func=cmd_embed_neighbors)

    tr = sub.add_parser("train", help="train a classifier on a token dataset")
    tsub = tr.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = tsub.add_parser("nn", help="conv + LSTM sequence classifier")
    p.add_argument("train")
    p.add_argument("--embedding", required=True, metavar="FILE",
                   help="frozen vectors; also carries the vocabulary")
    p.add_argument("--epochs", type=int, default=None, metavar="N", dest="nn.epochs")
    p.add_argument("--batch-size", type=int, default=None, metavar="N",
                   dest="nn.batch_size")
    p.add_argument("--lr", type=float, default=None, metavar="F",
                   dest="nn.learning_rate")
    p.add_argument("--seed", type=int, default=None, metavar="S", dest="nn.seed")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_train_nn)

    p = tsub.add_parser("lr", help="bag-of-words logistic-regression baseline")
    p.add_argument("train")
    p.add_argument("--vocab-size", type=int, default=None, metavar="N",
                   dest="lr.vocab_size")
    p.add_argument("--epochs", type=int, default=None, metavar="N", dest="lr.epochs")
    p.add_argument("--lr", type=float, default=None, metavar="F",
                   dest="lr.learning_rate")
    p.add_argument("--seed", type=int, default=None, metavar="S", dest="lr.seed")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_train_lr)

    p = sub.add_parser("eval", help="project-level scores on held-out projects")
    p.add_argument("model", help="checkpoint from train nn or train lr")
    p.add_argument("holdout", help="holdout dataset from dataset split")
    p.add_argument("--variant", required=True, choices=("co", "cd"),
                   help="function representation fed to the classifier")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="also write the report as JSON")
    p.add_argument("--verdicts", default=None, metavar="FILE",
                   help="also write per-project verdicts as JSONL")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain",
                       help="convolution-activation heatmap for one function")
    p.add_argument("model", help="checkpoint from train nn")
    p.add_argument("dataset", help="token dataset holding the function")
    p.add_argument("target", help="<project>/<function>")
    p.add_argument("-o", "--output", required=True, metavar="FILE",
                   help="CSV of per-window activations")
    p.set_defaults(func=cmd_explain)

    return parser


def _load_config(args):
    """Settings, each later source winning: the defaults, the global --seed,
    the --config file, then the per-command flags given (a flag's dest is
    the dotted key it sets)."""
    cfg = runconfig.RunConfig()
    if args.seed is not None:
        cfg.override_seeds(args.seed)
    if args.config:
        cfg.from_file(args.config)
    for key, value in vars(args).items():
        if "." in key and value is not None:
            cfg.set(key, value)
    return cfg


def _artifact_meta(cfg, command, **extra):
    meta = {"tool": f"repocat {__version__}", "command": command}
    meta.update(extra)
    meta.update(cfg.meta())
    return meta


def _dataset_vocab(records):
    """The shared vocabulary: first-seen order over cd token streams."""
    return tokens.build_vocabulary(
        tokens.variant_tokens(r.tokens, r.descr_tokens, "cd") for r in records
    )


def _train_examples(records):
    """(examples, categories): every function contributes a co and then a cd
    (project, token stream, category index) example, in record order."""
    categories = sorted({r.category for r in records})
    if len(categories) < 2:
        raise ValueError(
            f"training data has {len(categories)} categories; need at least 2"
        )
    index = {cat: i for i, cat in enumerate(categories)}
    examples = [
        (rec.project, tokens.variant_tokens(rec.tokens, rec.descr_tokens, variant),
         index[rec.category])
        for rec in records
        for variant in ("co", "cd")
    ]
    return examples, categories


def cmd_extract(args, cfg):
    labels, descriptions = corpus.read_labels(args.labels)
    projects = corpus.load_repository(args.root, labels, descriptions)
    if not projects:
        raise ValueError(f"no projects with extractable functions under {args.root}")
    # one project's token lists at a time: each is written as it is made
    records = (rec for proj in projects for rec in corpus.project_token_records(proj))
    meta = _artifact_meta(cfg, "extract", root=args.root, labels=args.labels)
    corpus.write_token_dataset(args.output, records, meta=meta)
    n_functions = sum(len(proj.functions) for proj in projects)
    result = {
        "written": args.output,
        "projects": len(projects),
        "functions": n_functions,
    }
    return result, [
        f"wrote {args.output}: {n_functions} functions from {len(projects)} projects"
    ]


def cmd_dataset_split(args, cfg):
    records, _ = corpus.read_token_dataset(args.dataset)
    projects = corpus.group_by_project(records)
    split = corpus.make_splits(
        projects,
        holdout_per_category=cfg["split.holdout_per_category"],
        per_category_count=cfg["split.per_category_count"],
        seed=cfg["split.seed"],
    )
    train_records = [fn for fn, _ in split.train]
    holdout_records = [fn for proj in split.holdout_projects for fn in proj.functions]
    train_path = f"{args.output}.train.jsonl"
    holdout_path = f"{args.output}.holdout.jsonl"
    meta = _artifact_meta(cfg, "dataset split", source=args.dataset)
    corpus.write_token_dataset(train_path, train_records, meta={**meta, "role": "train"})
    corpus.write_token_dataset(
        holdout_path, holdout_records, meta={**meta, "role": "holdout"}
    )
    result = {
        "train": train_path,
        "holdout": holdout_path,
        "train_functions": len(train_records),
        "holdout_projects": len(split.holdout_projects),
        "holdout_functions": len(holdout_records),
    }
    return result, [
        f"wrote {train_path}: {len(train_records)} functions",
        f"wrote {holdout_path}: {len(holdout_records)} functions "
        f"from {len(split.holdout_projects)} held-out projects",
    ]


def cmd_dataset_synth(args, cfg):
    scfg = cfg.synth_config()
    manifest = synth.generate_corpus(args.output, scfg)
    n_projects = scfg.categories * scfg.projects_per_category
    result = {
        "written": args.output,
        "categories": manifest["categories"],
        "projects": n_projects,
        "functions": n_projects * scfg.functions_per_project,
        "planted_functions": len(manifest["planted"]),
    }
    return result, [
        f"wrote {args.output}: {n_projects} projects "
        f"({', '.join(manifest['categories'])}), "
        f"{result['functions']} functions, "
        f"{result['planted_functions']} with the planted call"
    ]


def cmd_embed_train(args, cfg):
    records, _ = corpus.read_token_dataset(args.train)
    vocab = _dataset_vocab(records)
    gcfg = cfg.glove_config()
    sentences = [
        [vocab.id_of(tok) for tok in sent]
        for sent in embedding.embedding_sentences(records, args.strategy)
    ]
    table = embedding.build_cooccurrence(sentences, gcfg)
    matrix, losses = embedding.train_glove(table, len(vocab), gcfg)
    meta = _artifact_meta(
        cfg, "embed train",
        train=args.train, strategy=args.strategy, vocab_sha256=vocab.sha256(),
        initial_loss=losses[0], final_loss=losses[-1],
    )
    embedding.save_embedding_text(args.output, matrix, vocab, meta=meta)
    result = {
        "written": args.output,
        "strategy": args.strategy,
        "vocab": len(vocab),
        "pairs": len(table),
        "initial_loss": losses[0],
        "final_loss": losses[-1],
    }
    return result, [
        f"wrote {args.output}: {len(vocab)} tokens x {gcfg.dims} dims, "
        f"loss {losses[0]:.4f} -> {losses[-1]:.4f} over {gcfg.iterations} iterations"
    ]


def cmd_embed_load(args, cfg):
    records, _ = corpus.read_token_dataset(args.train)
    vocab = _dataset_vocab(records)
    matrix = embedding.load_embedding_text(args.vectors, vocab)
    covered = int(np.count_nonzero(np.any(matrix[2:] != 0.0, axis=1)))
    meta = _artifact_meta(
        cfg, "embed load",
        vectors=args.vectors, train=args.train, vocab_sha256=vocab.sha256(),
    )
    embedding.save_embedding_text(args.output, matrix, vocab, meta=meta)
    result = {
        "written": args.output,
        "vocab": len(vocab),
        "covered": covered,
        "dims": int(matrix.shape[1]),
    }
    return result, [
        f"wrote {args.output}: vectors for {covered}/{len(vocab) - 2} vocabulary "
        f"tokens ({matrix.shape[1]} dims); the rest stay zero"
    ]


def cmd_embed_random(args, cfg):
    records, _ = corpus.read_token_dataset(args.train)
    vocab = _dataset_vocab(records)
    matrix = embedding.random_embedding(
        len(vocab), cfg["glove.dims"], seed=cfg["glove.seed"]
    )
    meta = _artifact_meta(
        cfg, "embed random", train=args.train, vocab_sha256=vocab.sha256(),
    )
    embedding.save_embedding_text(args.output, matrix, vocab, meta=meta)
    result = {"written": args.output, "vocab": len(vocab), "dims": cfg["glove.dims"]}
    return result, [
        f"wrote {args.output}: random {len(vocab)} x {cfg['glove.dims']} vectors "
        f"(seed {cfg['glove.seed']})"
    ]


def cmd_embed_neighbors(args, cfg):
    vocab = embedding.vocab_from_embedding_text(args.embedding)
    matrix = embedding.load_embedding_text(args.embedding, vocab)
    neighbors = embedding.nearest_neighbors(matrix, vocab, args.token, k=args.k)
    result = {
        "token": args.token,
        "neighbors": [
            {"token": tok, "similarity": sim} for tok, sim in neighbors
        ],
    }
    width = max((len(tok) for tok, _ in neighbors), default=0)
    lines = [f"{tok:<{width}}  {sim: .6f}" for tok, sim in neighbors]
    return result, lines or [f"no neighbors with nonzero vectors for {args.token!r}"]


def cmd_train_nn(args, cfg):
    records, _ = corpus.read_token_dataset(args.train)
    vocab = embedding.vocab_from_embedding_text(args.embedding)
    matrix = embedding.load_embedding_text(args.embedding, vocab)
    labeled, categories = _train_examples(records)
    seq_len = cfg["data.seq_len"]
    examples = [
        model.TrainExample(project, tokens.encode(toks, vocab, seq_len), label)
        for project, toks, label in labeled
    ]
    ccfg = cfg.classifier_config(len(categories), int(matrix.shape[1]))
    net = model.fit(model.init_model(ccfg, matrix), examples)
    meta = _artifact_meta(
        cfg, "train nn", train=args.train, embedding=args.embedding,
    )
    model.save_model(args.output, net, vocab, categories, extra_meta=meta)
    history = net.history
    result = {
        "written": args.output,
        "categories": categories,
        "examples": len(examples),
        "val_accuracy": history["val_accuracy"],
        "best_epoch": history["best_epoch"],
    }
    accs = ", ".join(f"{v:.3f}" for v in history["val_accuracy"])
    return result, [
        f"wrote {args.output}: {len(categories)} categories, "
        f"{len(examples)} examples, validation accuracy per epoch [{accs}], "
        f"kept epoch {history['best_epoch'] + 1}"
    ]


def cmd_train_lr(args, cfg):
    lcfg = cfg.logreg_config().validate()
    records, _ = corpus.read_token_dataset(args.train)
    labeled, categories = _train_examples(records)
    streams = [toks for _, toks, _ in labeled]
    bow = baseline.BowVocabulary.build(streams, lcfg.vocab_size)
    features = baseline.features_matrix(streams, bow)
    lin = baseline.train_logreg(
        features, [label for _, _, label in labeled], len(categories), lcfg
    )
    meta = _artifact_meta(cfg, "train lr", train=args.train)
    baseline.save_baseline(args.output, lin, bow, categories, extra_meta=meta)
    result = {
        "written": args.output,
        "categories": categories,
        "examples": len(streams),
        "features": len(bow),
        "final_loss": lin.epoch_losses[-1],
    }
    return result, [
        f"wrote {args.output}: {len(categories)} categories, {len(streams)} examples, "
        f"{len(bow)} count features, final loss {lin.epoch_losses[-1]:.4f}"
    ]


def _load_predictor(path):
    """(predict_batch, categories, kind) from either checkpoint flavor, read
    once; predict_batch maps N token lists to (N, C) probabilities.  The
    network comes from `model.from_checkpoint`, so it predicts in
    model.TRAIN_DTYPE, the precision `fit` trains it in and picks its
    epoch by, and runs every call's forward passes in one workspace
    (`model._buf`), so calls must not overlap."""
    meta, arrays = checkpoint.load_checkpoint(path)
    kind = meta.get("kind")
    if kind == "nn":
        net, vocab, categories = model.from_checkpoint(meta, arrays, path)
        ws = {}  # every call's forward passes reuse these activations

        def predict(streams):
            seq_len = net.config.seq_len
            ids = np.stack([tokens.encode(toks, vocab, seq_len) for toks in streams])
            return model.predict_proba(net, ids, ws=ws)

        return predict, categories, kind
    if kind == "lr":
        lin, bow, categories = baseline.from_checkpoint(meta, arrays, path)

        def predict(streams):
            return baseline.predict_logreg(lin, baseline.features_matrix(streams, bow))

        return predict, categories, kind
    raise ValueError(f"{path}: unknown checkpoint kind {kind!r}")


def cmd_eval(args, cfg):
    predict, categories, kind = _load_predictor(args.model)
    records, _ = corpus.read_token_dataset(args.holdout)
    projects = corpus.group_by_project(records)
    report, verdicts = evaluation.evaluate_project_level(
        predict, projects, args.variant, categories
    )
    meta = _artifact_meta(
        cfg, "eval",
        model=args.model, holdout=args.holdout, variant=args.variant, model_kind=kind,
    )
    if args.report:
        payload = report.to_dict()
        payload["_meta"] = meta
        fileio.atomic_write_text(args.report, fileio.dumps(payload) + "\n")
    if args.verdicts:
        evaluation.write_verdicts(args.verdicts, verdicts, categories, meta=meta)
    result = report.to_dict()
    result["model"] = args.model
    result["variant"] = args.variant
    lines = report.format_text().splitlines()
    if args.report:
        lines.append(f"wrote {args.report}")
    if args.verdicts:
        lines.append(f"wrote {args.verdicts}")
    return result, lines


def cmd_explain(args, cfg):
    project, sep, function = args.target.partition("/")
    if not sep or not project or not function:
        raise ValueError(
            f"target must look like <project>/<function>, got {args.target!r}"
        )
    net, vocab, _, _ = model.load_model(args.model)
    records, _ = corpus.read_token_dataset(args.dataset)
    record = next(
        (r for r in records if r.project == project and r.function == function), None
    )
    if record is None:
        raise ValueError(f"function {args.target!r} not found in {args.dataset}")
    toks = tokens.variant_tokens(record.tokens, record.descr_tokens, "co")
    ids = tokens.encode(toks, vocab, net.config.seq_len)
    activations = model.conv_activations(net, ids)
    # one value per window, the heatmap; a float64 mean, so each printed
    # mean is the mean of the printed per-filter values
    heat = activations.mean(axis=1, dtype=np.float64)
    t_star = int(np.argmax(heat))
    K = net.config.kernel_size
    # window t covers tokens t .. t+K-1; past the function's end they are padding
    padded = toks + ["<pad>"] * net.config.seq_len
    window = padded[t_star : t_star + K]

    meta = _artifact_meta(
        cfg, "explain",
        model=args.model, dataset=args.dataset, target=args.target,
        peak_position=t_star, peak_activation=float(heat[t_star]),
    )
    lines = fileio.comment_header(meta)
    n_filters = activations.shape[1]
    lines.append(
        "position,window,activation,"
        + ",".join(f"f{j:03d}" for j in range(n_filters))
    )
    for pos in range(activations.shape[0]):
        row = ",".join(repr(float(v)) for v in activations[pos])
        lines.append(f"{pos},{' '.join(padded[pos : pos + K])},{repr(float(heat[pos]))},{row}")
    fileio.atomic_write_text(args.output, "\n".join(lines) + "\n")

    result = {
        "written": args.output,
        "target": args.target,
        "peak_position": t_star,
        "peak_activation": float(heat[t_star]),
        "peak_window": window,
    }
    return result, [
        f"wrote {args.output}: {activations.shape[0]} windows x "
        f"{n_filters} filters; peak {heat[t_star]:.4f} at "
        f"positions {t_star}..{t_star + K - 1} ({' '.join(window)})"
    ]


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = _load_config(args)
        result, lines = args.func(args, cfg)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
