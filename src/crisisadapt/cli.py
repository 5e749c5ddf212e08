"""Command-line interface.

Subcommands cover the full pipeline: `synth` writes a synthetic corpus,
`build-vocab` derives a vocabulary from augmented training text, `train`
runs one adaptation plan end to end, `evaluate` re-scores a checkpoint,
`matrix` fills a source x target transfer matrix, and `loo` runs
leave-one-out over events. Every run directory gets a manifest.json with
input digests and the exact configuration.

Flags that several subcommands take are declared once, in `FLAGS`. A
relative input path that does not exist here is retried under
$CRISISADAPT_DATA_DIR when it is set, and messages name the path read.

Exit codes, from `EXIT_CODES`: 0 success, 2 configuration or usage
problems, 3 data or checkpoint problems, 5 a training run whose loss or
gradient norm stopped being finite.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from . import checkpoint as ckpt
from .corpus import (
    RELEVANCE_MAP,
    TOPIC_MAP,
    compose_plan,
    load_dataset,
    load_registry,
    splits_by_event,
    unify_labels,
    write_dataset,
    write_registry,
)
from .errors import (
    CheckpointError, ConfigError, DataError, LabelError, NonFiniteError, PlanError, SplitError,
    UnknownEventError,
)
from .evaluation import (
    DIAGONAL_MODES,
    evaluate,
    pearson_row_correlation,
    write_grid_csv,
    write_matrix_provenance,
)
from .experiment import augmented_texts, encode_eval_inputs, run_loo, run_matrix, run_plan
from .files import write_json
from .model import ModelConfig, ParameterStore, named_config
from .prompt import SCENARIOS
from .synth import DEFAULT_EVENTS, generate_corpus
from .tensor import Tensor
from .tokenizer import (
    DEFAULT_MAX_SIZE, DEFAULT_MIN_FREQ, Vocabulary, build_vocab, load_vocab, save_vocab
)
from .train import TrainConfig, write_history

ENV_DATA_DIR = "CRISISADAPT_DATA_DIR"
LABEL_SCHEMES = {"relevance": RELEVANCE_MAP, "topic": TOPIC_MAP}
# error class -> exit code; an error takes the code of the first class it is
EXIT_CODES = {ConfigError: 2, NonFiniteError: 5, DataError: 3, CheckpointError: 3, OSError: 3,
              ValueError: 2}


def _resolve(path: str) -> Path:
    """`path`, or the same relative path under $CRISISADAPT_DATA_DIR if
    it does not exist here and that variable is set."""
    p = Path(path)
    base = os.environ.get(ENV_DATA_DIR)
    if not p.is_absolute() and base and not p.exists():
        return Path(base) / p
    return p


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _out_dir(raw: str) -> Path:
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config_file(p: Path | None) -> dict:
    if p is None:
        return {}
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read config file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: malformed UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: malformed config JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    unknown = set(cfg) - {"model", "train", "seed"}
    if unknown:
        raise ConfigError(f"{p}: unknown config sections {sorted(unknown)}")
    for name in ("model", "train"):
        if not isinstance(cfg.get(name, {}), dict):
            raise ConfigError(f"{p}: config section {name!r} must be a JSON object")
    return cfg


@contextmanager
def _naming(prefix, *types: type[Exception], into: type[Exception] | None = None):
    """Re-raise an error of one of `types` as `into` (default: its own
    class), its message prefixed with `prefix`."""
    try:
        yield
    except types as exc:
        raise (into or type(exc))(f"{prefix}: {exc}") from None


def _configs(path: Path | None, cfg: dict, vocab_size: int) -> tuple[TrainConfig, ModelConfig]:
    """The train and model configs that `cfg`, read from the config file
    `path`, asks for; an error names the file (no file, no error)."""
    train = dict(cfg.get("train", {}))
    if "seed" not in train and "seed" in cfg:
        train["seed"] = cfg["seed"]
    model = dict(cfg.get("model", {}))
    with _naming(path, ConfigError, TypeError, ValueError, into=ConfigError):
        return TrainConfig(**train), named_config(model.pop("size", "tiny"), vocab_size, **model)


def _load_records(args, registry, path: Path):
    """The records of the data file `path`, labels unified; an error names
    the file, and an unknown event the registry too."""
    try:
        with _naming(path, LabelError):
            return unify_labels(load_dataset(path, registry), LABEL_SCHEMES[args.label_scheme])
    except UnknownEventError as exc:
        raise UnknownEventError(f"{exc} {args.registry}") from None


def _write_manifest(out: Path, command: str, payload: dict) -> None:
    core = {"command": command, "version": __version__, **payload}
    run_id = hashlib.sha256(json.dumps(core, sort_keys=True).encode("utf-8")).hexdigest()[:12]
    created = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    write_json(out / "manifest.json", {"run_id": run_id, "created_utc": created, **core})


def _input_digests(args, names) -> dict[str, str]:
    return {str(p): _sha256_file(p) for p in (getattr(args, name) for name in names)}


@dataclass
class _Setup:
    """What `train`, `matrix` and `loo` share: data, vocabulary, configs,
    the output directory and the manifest fields common to all three."""

    registry: dict
    splits: dict
    vocab: Vocabulary
    tcfg: TrainConfig
    mcfg: ModelConfig
    out: Path
    manifest: dict
    data_files: str  # as a message names them


def _setup(args) -> _Setup:
    """Load config, registry, records and vocabulary."""
    cfg = _load_config_file(args.config)
    registry = load_registry(args.registry)
    train_records = _load_records(args, registry, args.train_file)
    test_records = _load_records(args, registry, args.test_file)
    out = _out_dir(args.out)
    vocab = load_vocab(args.vocab)
    tcfg, mcfg = _configs(args.config, cfg, vocab.size)
    if args.seed is not None:
        tcfg = replace(tcfg, seed=args.seed)
    manifest = {
        "scenario": args.scenario,
        "seed": tcfg.seed,
        "config": {"model": asdict(mcfg), "train": asdict(tcfg)},
        "inputs": _input_digests(args, ("train_file", "test_file", "registry", "vocab")),
        "vocab_hash": vocab.content_hash,
    }
    return _Setup(registry, splits_by_event(train_records, test_records), vocab, tcfg, mcfg,
                  out, manifest, f"{args.train_file}, {args.test_file}")


def _event_names(flag: str, value: str | None) -> list[str] | None:
    """The names in a comma-separated event list given as `flag`, or None
    if the flag was not given. An empty list, an empty name or a repeated
    name is refused before any file is read."""
    if value is None:
        return None
    noun = flag[2:].replace("-", " ")[:-1]  # "--source-events" -> "source event"
    names = value.split(",")
    if not any(names):
        raise ConfigError(f"{flag} {value!r}: {noun} set is empty")
    seen = set()
    for name in names:
        if not name or name in seen:
            raise ConfigError(f"{flag} {value!r}: "
                              f"{'repeated' if name else 'empty'} {noun} name {name!r}")
        seen.add(name)
    return names


def _check_grid(args) -> list[str] | None:
    """Refuse `matrix`/`loo` flags that no run can honour, before any
    file is read or written; return the `--events` names, if given."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    return _event_names("--events", args.events)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> None:
    splits, registry = generate_corpus(
        DEFAULT_EVENTS, n_train=args.n_train, n_test=args.n_test, seed=args.seed
    )
    out = _out_dir(args.out)
    train_records = [r for ev in sorted(splits) for r in splits[ev].train]
    test_records = [r for ev in sorted(splits) for r in splits[ev].test]
    write_dataset(train_records, out / "train.tsv")
    write_dataset(test_records, out / "test.tsv")
    write_registry(registry, out / "registry.json")
    print(
        f"wrote {len(train_records)} train / {len(test_records)} test records "
        f"for {len(splits)} events to {out}"
    )


def cmd_build_vocab(args) -> None:
    registry = load_registry(args.registry)
    records = _load_records(args, registry, args.train_file)
    texts = augmented_texts(records, args.scenario, registry)
    vocab = build_vocab(texts, min_freq=args.min_freq, max_size=args.max_size)
    save_vocab(vocab, args.out)
    print(f"vocabulary: {vocab.size} tokens, hash {vocab.content_hash} -> {args.out}")


def cmd_train(args) -> None:
    names = _event_names("--source-events", args.source_events)
    sources = {args.target_event} if names is None else set(names)
    run = _setup(args)
    # a PlanError: the flags ask for a plan that cannot exist
    with (_naming(f"--source-events {args.source_events!r} with --target-event "
                  f"{args.target_event!r}", PlanError, into=ConfigError),
          _naming(run.data_files, SplitError)):
        plan = compose_plan(sources, args.target_event, args.scenario, run.splits, run.tcfg.seed)
    resume = (
        ckpt.load_checkpoint(args.resume, expected_vocab_hash=run.vocab.content_hash)
        if args.resume else None
    )
    # a resumed run's config and checkpoint errors name the checkpoint
    resuming = (ConfigError, CheckpointError) if resume else ()
    with _naming(f"{args.resume} cannot resume under {args.config or 'the default config'}",
                 *resuming):
        outcome = run_plan(plan, run.registry, run.vocab, run.mcfg, run.tcfg, resume=resume)
    result, report = outcome.train_result, outcome.report

    write_history(run.out / "history.csv", result.history)
    ckpt.save_checkpoint(
        run.out / "checkpoint.castckpt",
        outcome.params,
        run.mcfg,
        run.vocab.content_hash,
        step=result.final_step,
        seed=plan.seed,
        optimizer=result.optimizer,
        extra={
            "train": asdict(run.tcfg),
            "task_id": plan.task_id,
            "total_steps": result.total_steps,
        },
    )
    write_json(run.out / "report.json", {"task_id": plan.task_id, **report.to_dict()})
    _write_manifest(
        run.out,
        "train",
        {
            **run.manifest,
            "task_id": plan.task_id,
            "source_events": sorted(plan.source_events),
            "target_event": plan.target_event,
            "steps": {"start": resume.step if resume else 0, "final": result.final_step,
                      "total": result.total_steps},
            "artifacts": {
                "checkpoint": "checkpoint.castckpt",
                "history": "history.csv",
                "report": "report.json",
            },
        },
    )
    last = result.history[-1] if result.history else None
    print(f"task {plan.task_id}: step {result.final_step}/{result.total_steps}")
    if last is not None:
        print(f"final step loss {last.loss:.4f} at lr {last.lr:.3g}")
    print(
        f"target accuracy {report.accuracy:.4f}, weighted F1 {report.weighted_f1:.4f}, "
        f"fallback rate {report.fallback_rate:.4f}"
    )


def cmd_evaluate(args) -> None:
    vocab = load_vocab(args.vocab)
    loaded = ckpt.load_checkpoint(args.checkpoint, expected_vocab_hash=vocab.content_hash)
    mcfg = loaded.config
    # the store keeps the checkpoint's dtype
    params = ParameterStore({n: Tensor(a, name=n) for n, a in loaded.arrays.items()})

    registry = load_registry(args.registry)
    records = _load_records(args, registry, args.test_file)
    records = [r for r in records if r.event_id == args.target_event]
    if not records:
        raise DataError(f"{args.test_file}: no test records for event {args.target_event!r}")
    encoded, gold = encode_eval_inputs(
        records, args.scenario, registry[args.target_event], vocab, mcfg
    )
    report = evaluate(params, encoded, gold, vocab, mcfg)

    out = _out_dir(args.out)
    write_json(
        out / "report.json",
        {"target_event": args.target_event, "scenario": args.scenario, **report.to_dict()},
    )
    _write_manifest(
        out,
        "evaluate",
        {
            "scenario": args.scenario,
            "target_event": args.target_event,
            "inputs": _input_digests(args, ("test_file", "registry", "vocab", "checkpoint")),
            "vocab_hash": vocab.content_hash,
            "checkpoint_step": loaded.step,
            "artifacts": {"report": "report.json"},
        },
    )
    print(
        f"{args.target_event}/{args.scenario}: accuracy {report.accuracy:.4f}, "
        f"weighted F1 {report.weighted_f1:.4f}, fallback rate {report.fallback_rate:.4f} "
        f"({report.n} examples)"
    )


def cmd_matrix(args) -> None:
    folds = args.diagonal == "five_fold_mean"
    if args.k is not None:
        if args.k < 2:
            raise ConfigError(f"--k must be at least 2, got {args.k}")
        if not folds:
            raise ConfigError(f"--k sets the folds of --diagonal five_fold_mean; "
                              f"--diagonal {args.diagonal} uses none")
    k = 5 if args.k is None else args.k
    events = _check_grid(args)
    run = _setup(args)
    with _naming(run.data_files, SplitError):
        matrix = run_matrix(
            run.splits,
            run.registry,
            sorted(run.splits if events is None else events),
            args.scenario,
            run.vocab,
            run.mcfg,
            run.tcfg,
            diagonal_mode=args.diagonal,
            k=k,
            seed=run.tcfg.seed,
            jobs=args.jobs,
        )
    write_grid_csv(run.out / "matrix.csv", "source\\target", matrix.events, matrix.to_array())
    write_matrix_provenance(run.out / "provenance.json", matrix)
    # Pearson needs at least 3 paired columns per row pair
    points = len(matrix.events) - (2 if args.exclude_self else 0)
    artifacts = {"matrix": "matrix.csv", "provenance": "provenance.json"}
    if points >= 3:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corr = pearson_row_correlation(matrix, exclude_self=args.exclude_self)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        write_grid_csv(run.out / "correlation.csv", "row\\row", matrix.events, corr)
        artifacts["correlation"] = "correlation.csv"
    else:
        print(f"skipping row correlations: only {points} paired points per row pair")
    _write_manifest(
        run.out,
        "matrix",
        {
            **run.manifest,
            "events": list(matrix.events),
            "diagonal_mode": matrix.diagonal_mode,
            **({"k": k} if folds else {}),
            "exclude_self": args.exclude_self,
            "artifacts": artifacts,
        },
    )
    print("accuracy matrix (rows = source, columns = target):")
    width = max(len(e) for e in matrix.events)
    print(" " * (width + 2) + "  ".join(f"{e:>8}" for e in matrix.events))
    for s in matrix.events:
        cells = "  ".join(f"{matrix.cells[(s, t)]:8.4f}" for t in matrix.events)
        print(f"{s:>{width}}  {cells}")


def cmd_loo(args) -> None:
    events = _check_grid(args)
    run = _setup(args)
    events = sorted(run.splits if events is None else events)
    with _naming(run.data_files, SplitError):
        plans, results, table = run_loo(
            run.splits, run.registry, events, args.scenario, run.vocab, run.mcfg, run.tcfg,
            seed=run.tcfg.seed, jobs=args.jobs,
        )
    doc = {
        "scenario": args.scenario,
        "plans": [
            {
                "task_id": p.task_id,
                "target_event": p.target_event,
                "source_events": sorted(p.source_events),
                "seed": p.seed,
            }
            for p in plans
        ],
        **table,
    }
    write_json(run.out / "loo.json", doc)
    _write_manifest(
        run.out, "loo", {**run.manifest, "events": events, "artifacts": {"table": "loo.json"}}
    )
    for target, row in table["per_target"].items():
        print(
            f"{target}: accuracy {row['accuracy']:.4f}, weighted F1 "
            f"{row['weighted_f1']:.4f} ({row['n']} examples)"
        )
    mean = table["mean"]
    print(
        f"mean over {mean['targets']} targets: accuracy {mean['accuracy']:.4f}, "
        f"weighted F1 {mean['weighted_f1']:.4f}"
    )


# ---------------------------------------------------------------------------
# Parser


# Each flag that more than one subcommand takes: name -> add_argument
# keywords. An input file's flag resolves its path as it is parsed.
FLAGS = {
    "--train-file": dict(type=_resolve, required=True, help="training TSV"),
    "--test-file": dict(type=_resolve, required=True, help="test TSV"),
    "--registry": dict(type=_resolve, required=True, help="event registry JSON"),
    "--label-scheme": dict(choices=sorted(LABEL_SCHEMES), default="relevance",
                           help="raw label unification map (default: relevance)"),
    "--scenario": dict(choices=SCENARIOS, required=True),
    "--vocab": dict(type=_resolve, required=True, help="vocabulary file"),
    "--config": dict(type=_resolve, help="JSON config with model/train sections"),
    "--seed": dict(type=int, default=None, help="override the run seed"),
    "--out": dict(required=True, help="output directory"),
    "--target-event": dict(required=True),
    "--events": dict(help="comma-separated subset (default: all in the data)"),
    "--jobs": dict(type=int, default=1, help="worker processes"),
}
DATA = ("--train-file", "--test-file", "--registry", "--label-scheme")
RUN = ("--scenario", "--vocab", "--config", "--seed", "--out")
GRID = ("--events", "--jobs")  # matrix and loo


def _subcommand(sub, name: str, func, *flags: str, help: str) -> argparse.ArgumentParser:
    """A subcommand that runs `func`, taking `flags` from `FLAGS`."""
    p = sub.add_parser(name, help=help)
    for flag in flags:
        p.add_argument(flag, **FLAGS[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisisadapt",
        description="Event-aware crisis message classification experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "synth", cmd_synth, "--out",
                    help="write a synthetic multi-event corpus")
    p.add_argument("--n-train", type=int, default=48, help="train records per event")
    p.add_argument("--n-test", type=int, default=24, help="test records per event")
    p.add_argument("--seed", type=int, default=0)

    p = _subcommand(sub, "build-vocab", cmd_build_vocab,
                    "--train-file", "--registry", "--label-scheme", "--scenario",
                    help="build a vocabulary from augmented text")
    p.add_argument("--min-freq", type=int, default=DEFAULT_MIN_FREQ)
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE)
    p.add_argument("--out", required=True, help="vocabulary file to write")

    p = _subcommand(sub, "train", cmd_train, *DATA, *RUN, "--target-event",
                    help="train one adaptation plan")
    p.add_argument(
        "--source-events",
        help="comma-separated source events (default: the target event)",
    )
    p.add_argument("--resume", type=_resolve, help="checkpoint to continue from")

    p = _subcommand(sub, "evaluate", cmd_evaluate, "--vocab", "--test-file", "--registry",
                    "--label-scheme", "--scenario", "--target-event", "--out",
                    help="score a checkpoint on a test set")
    p.add_argument("--checkpoint", type=_resolve, required=True)

    p = _subcommand(sub, "matrix", cmd_matrix, *DATA, *RUN, *GRID,
                    help="fill a transfer matrix")
    p.add_argument("--diagonal", choices=DIAGONAL_MODES, default="standard_split")
    p.add_argument("--k", type=int, help="folds for --diagonal five_fold_mean (default 5)")
    p.add_argument("--exclude-self", action="store_true",
                   help="drop self-transfer columns from row correlations")

    _subcommand(sub, "loo", cmd_loo, *DATA, *RUN, *GRID, help="leave-one-out over events")

    return parser


def _message(exc: Exception) -> str:
    if isinstance(exc, FileNotFoundError):
        return f"file not found: {exc.filename}"
    if isinstance(exc, OSError):  # a directory where a file belongs, an --out that is a file
        where = f"{exc.filename}: " if exc.filename else ""
        return f"{where}{exc.strerror or exc}"
    return str(exc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
