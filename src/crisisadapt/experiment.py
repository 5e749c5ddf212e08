"""End-to-end adaptation experiments.

A plan's source records are augmented with their own event's description
at training time; the target's description is used at test time. One
vocabulary (built over augmented source text) is shared across the runs
of an experiment so checkpoints stay comparable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

from .corpus import (
    AdaptationPlan,
    CrisisRecord,
    EventDescriptor,
    EventSplits,
    compose_plan,
    fold_split,
    make_folds,
)
from .checkpoint import CheckpointData
from .errors import CompatibilityError, ConfigError, LabelError, UnknownEventError, VocabError
from .evaluation import (
    AdaptationMatrix,
    EvalReport,
    evaluate,
    loo_table,
    plan_leave_one_out,
)
from .model import ModelConfig, ParameterStore, init_params
from .prompt import construct, target_text
from .rng import mix_seed
from .tokenizer import EOS, UNK, Vocabulary, encode_augmented
from .train import TrainConfig, TrainResult, train


def _augmented(record: CrisisRecord, scenario: str, registry: dict[str, EventDescriptor]):
    if record.event_id not in registry:
        raise UnknownEventError(f"record {record.id!r} names unknown event {record.event_id!r}")
    return construct(record, scenario, registry[record.event_id])


def _unified_label(record: CrisisRecord) -> str:
    if record.unified_label is None:
        raise LabelError(
            f"record {record.id!r} has no unified label; run label unification first"
        )
    return record.unified_label


def _target_ids(record: CrisisRecord, vocab: Vocabulary) -> np.ndarray:
    word = target_text(_unified_label(record))
    tid = vocab.lookup(word)
    if tid == UNK:
        raise VocabError(f"label word {word!r} missing from vocabulary")
    return np.array([tid, EOS], dtype=np.int64)


def augmented_texts(
    records: list[CrisisRecord], scenario: str, registry: dict[str, EventDescriptor]
) -> list[str]:
    """Augmented input strings, e.g. as a corpus for vocabulary building."""
    return [_augmented(rec, scenario, registry).text for rec in records]


def encode_training_examples(
    records: list[CrisisRecord],
    scenario: str,
    registry: dict[str, EventDescriptor],
    vocab: Vocabulary,
    model_config: ModelConfig,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(src_ids, target_ids) pairs of 1-D id arrays; each record is
    augmented with the description of its own event."""
    return [
        (encode_augmented(_augmented(rec, scenario, registry), vocab, model_config.max_src_len),
         _target_ids(rec, vocab))
        for rec in records
    ]


def encode_eval_inputs(
    records: list[CrisisRecord],
    scenario: str,
    descriptor: EventDescriptor,
    vocab: Vocabulary,
    model_config: ModelConfig,
) -> tuple[list[np.ndarray], list[str]]:
    """Encoded test inputs, 1-D id arrays augmented with the target event's
    description, plus the gold label list."""
    encoded, gold = [], []
    for rec in records:
        gold.append(_unified_label(rec))
        encoded.append(encode_augmented(construct(rec, scenario, descriptor), vocab,
                                        model_config.max_src_len))
    return encoded, gold


@dataclass
class PlanOutcome:
    plan: AdaptationPlan
    params: ParameterStore
    train_result: TrainResult
    report: EvalReport


def run_plan(
    plan: AdaptationPlan,
    registry: dict[str, EventDescriptor],
    vocab: Vocabulary,
    model_config: ModelConfig,
    train_config: TrainConfig,
    resume: CheckpointData | None = None,
) -> PlanOutcome:
    """Train on the plan's source dataset, evaluate on its target test set.

    The plan seed drives initialization, epoch shuffles, and dropout, so a
    plan re-run is bit-for-bit reproducible. With `resume`, a checkpoint
    of the same plan, training continues from its weights, Adam state and
    step count instead of a fresh initialization.
    """
    tcfg = replace(train_config, seed=plan.seed)
    params = init_params(model_config, mix_seed(plan.seed, "init"))
    resumed = {} if resume is None else _resume(plan, model_config, train_config, resume, params)
    examples = encode_training_examples(
        plan.source_dataset, plan.scenario, registry, vocab, model_config
    )
    result = train(params, examples, model_config, tcfg, **resumed)
    report = _score(params, plan, registry, vocab, model_config)
    return PlanOutcome(plan=plan, params=params, train_result=result, report=report)


def _score(params, plan: AdaptationPlan, registry, vocab, model_config) -> EvalReport:
    """Evaluate `params` on the plan's target test set, each input augmented
    with the target event's description."""
    encoded, gold = encode_eval_inputs(
        plan.target_test_set, plan.scenario, registry[plan.target_event], vocab, model_config
    )
    return evaluate(params, encoded, gold, vocab, model_config)


def _resume(plan, model_config, train_config, resume: CheckpointData, params) -> dict:
    """Load `resume` into `params` and return the `train` keywords that
    continue it. Refuses a checkpoint of another model, task, seed or
    training config; only `epochs` may differ."""
    if resume.config != model_config:
        raise CompatibilityError(
            f"checkpoint model config {resume.config} differs from requested {model_config}"
        )
    task_id = resume.extra.get("task_id")
    if task_id != plan.task_id:
        raise ConfigError(f"checkpoint is of task {task_id!r}, not {plan.task_id!r}")
    if resume.seed != plan.seed:
        raise ConfigError(f"checkpoint seed {resume.seed} differs from run seed {plan.seed}")
    trained = resume.extra.get("train", {})
    for name, value in asdict(train_config).items():
        if name != "epochs" and isinstance(trained, dict) and trained.get(name, value) != value:
            raise ConfigError(f"checkpoint was trained with {name} {trained[name]!r}, "
                              f"not the requested {value!r}")
    params.load_arrays(resume.arrays)
    optimizer = resume.restore_optimizer(params)
    if optimizer is None:
        raise CompatibilityError("checkpoint has no optimizer state; cannot resume")
    return {"start_step": resume.step, "optimizer": optimizer}


def _fold_plans(
    event: str, splits: dict[str, EventSplits], scenario: str, k: int, seed: int
) -> list[AdaptationPlan]:
    """The k cross-validation plans over all of `event`'s records, pooled."""
    ev = splits[event]
    pooled = list(ev.train) + list(ev.test)
    assignments = make_folds(pooled, k, mix_seed(seed, "folds", event))
    return [
        compose_plan({event}, event, scenario,
                     {event: EventSplits(*fold_split(pooled, assignments, fold))},
                     mix_seed(seed, "cell", event, fold))
        for fold in range(k)
    ]


def _train_and_score(plans, *, registry, vocab, model_config, train_config) -> list[EvalReport]:
    """One report per plan of a job. The plans share their source events
    and seed, so one model, trained on the first plan, serves them all."""
    outcome = run_plan(plans[0], registry, vocab, model_config, train_config)
    return [outcome.report] + [
        _score(outcome.params, plan, registry, vocab, model_config) for plan in plans[1:]
    ]


def _run_jobs(jobs: list[list[AdaptationPlan]], workers: int, **context) -> list[list[EvalReport]]:
    """`_train_and_score` over `jobs` in order, in up to `workers` worker
    processes; never more processes than jobs, and none for a single one."""
    fn = partial(_train_and_score, **context)
    workers = min(workers, len(jobs))
    if workers > 1:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def run_matrix(
    splits: dict[str, EventSplits],
    registry: dict[str, EventDescriptor],
    events,
    scenario: str,
    vocab: Vocabulary,
    model_config: ModelConfig,
    train_config: TrainConfig,
    diagonal_mode: str = "standard_split",
    k: int = 5,
    seed: int = 0,
    jobs: int = 1,
) -> AdaptationMatrix:
    """Fill the full source x target accuracy matrix.

    All plans are composed before any training, so a bad event or fold
    count fails at once. Each row is one job: a model trained on its source
    event's train split, seeded with mix_seed(seed, "cell", source), and
    scored on the test set of every target in the row, so N events cost N
    trainings. Diagonal cells either reuse that row model on the event's
    own test split (standard_split) or average k cross-validation folds
    over all of the event's records, one job per fold (five_fold_mean).
    Seeds derive from (seed, row) and (seed, event, fold), never from
    execution order, so worker processes change wall time only.
    """
    names = tuple(sorted(events))
    matrix = AdaptationMatrix(events=names, diagonal_mode=diagonal_mode)
    folds = diagonal_mode != "standard_split"
    plans = [
        [compose_plan({s}, t, scenario, splits, mix_seed(seed, "cell", s))
         for t in names if t != s or not folds]
        for s in names
    ]
    if folds:
        plans.extend([plan] for t in names for plan in _fold_plans(t, splits, scenario, k, seed))
    reports = _run_jobs(plans, jobs, registry=registry, vocab=vocab,
                        model_config=model_config, train_config=train_config)

    fold_accs: dict[str, list[float]] = {}
    for plan, report in zip(chain(*plans), chain(*reports)):
        (s,), t = plan.source_events, plan.target_event
        if folds and s == t:
            fold_accs.setdefault(t, []).append(report.accuracy)
            continue
        matrix.set_cell(
            s,
            t,
            report.accuracy,
            info={
                "task_id": plan.task_id,
                "n_test": report.n,
                "weighted_f1": report.weighted_f1,
                "fallback_rate": report.fallback_rate,
                "seed": plan.seed,
            },
        )
    for t, accs in fold_accs.items():
        matrix.set_cell(
            t, t, float(np.mean(accs)), info={"k": k, "fold_accuracies": accs, "seed": seed}
        )
    return matrix


def run_loo(
    splits: dict[str, EventSplits],
    registry: dict[str, EventDescriptor],
    events,
    scenario: str,
    vocab: Vocabulary,
    model_config: ModelConfig,
    train_config: TrainConfig,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[list[AdaptationPlan], dict[str, EvalReport], dict]:
    """Leave-one-out over events: train on all others, test on the one.
    Every plan is composed before any training, and each is its own job."""
    plans = plan_leave_one_out(events, scenario, splits, seed)
    reports = _run_jobs([[plan] for plan in plans], jobs, registry=registry, vocab=vocab,
                        model_config=model_config, train_config=train_config)
    results = {plan.target_event: report for plan, (report,) in zip(plans, reports)}
    return plans, results, loo_table(results)
