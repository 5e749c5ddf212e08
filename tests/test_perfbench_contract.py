"""The benchmark under perfbench/ wraps program functions by name. Each
name it wraps must still resolve, or a benchmark run stops at set-up."""

import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from crisisadapt import evaluation, experiment, model
from crisisadapt.checkpoint import load_checkpoint, save_checkpoint
from crisisadapt.corpus import RELEVANCE_MAP, EventSplits, compose_plan, unify_labels
from crisisadapt.model import ModelConfig, init_params
from crisisadapt.synth import DEFAULT_EVENTS, generate_corpus
from crisisadapt.tokenizer import EOS, build_vocab
from crisisadapt.train import TrainConfig

from conftest import encode_text, scripted_decoder

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class RecordingPatcher:
    """Stands in for spans.Patcher: records what would be wrapped."""

    def __init__(self):
        self.targets = []

    def wrap(self, owner, attr, make):
        self.targets.append((owner, attr))


def target_id(target):
    owner, attr = target
    return f"{getattr(owner, '__name__', owner)}.{attr}"


@pytest.mark.parametrize(
    "target", [(owner, attr) for owner, attr, _, _ in layers.TRACE_POINTS], ids=target_id
)
def test_trace_point_resolves(target):
    owner, attr = target
    assert callable(getattr(owner, attr, None)), target_id(target)


def test_recorder_targets_resolve():
    patcher = RecordingPatcher()
    workloads.Recorder(clock=lambda: 0.0).install(patcher)
    assert patcher.targets
    missing = [target_id(t) for t in patcher.targets if not callable(getattr(*t, None))]
    assert not missing, missing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_runs(name, tmp_path):
    """Each workload's set-up builds its configs and inputs through the
    program's API; a removed field or keyword fails here first."""
    workloads.WORKLOADS[name](1, tmp_path).setup()


def test_recorder_sees_fresh_and_resumed_run_plan(tmp_path):
    """The recorder wraps `experiment.train` as (params, examples,
    model_config, train_config, **kwargs), so run_plan must pass the
    resume state as keywords; a positional one fails only in a benchmark
    run."""
    splits, registry = generate_corpus(DEFAULT_EVENTS[:1], n_train=8, n_test=2, seed=0)
    event = DEFAULT_EVENTS[0].event_id
    splits = {event: EventSplits(train=unify_labels(splits[event].train, RELEVANCE_MAP),
                                 test=unify_labels(splits[event].test, RELEVANCE_MAP))}
    vocab = build_vocab(experiment.augmented_texts(splits[event].train, "postq", registry),
                        min_freq=1)
    mcfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, d_ff=16, n_enc_layers=1,
                       n_dec_layers=1, dropout=0.0, max_src_len=48, max_tgt_len=4)
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=1, seed=0)
    plan = compose_plan({event}, event, "postq", splits, 0)
    path = tmp_path / "run.castckpt"

    recorder = workloads.Recorder(clock=time.perf_counter)
    patcher = spans.Patcher()
    recorder.install(patcher)
    try:
        first = experiment.run_plan(plan, registry, vocab, mcfg, tcfg)
        result = first.train_result
        save_checkpoint(path, first.params, mcfg, vocab.content_hash, step=result.final_step,
                        seed=plan.seed, optimizer=result.optimizer,
                        extra={"task_id": plan.task_id})
        resumed = experiment.run_plan(plan, registry, vocab, mcfg, replace(tcfg, epochs=2),
                                      resume=load_checkpoint(path))
    finally:
        patcher.restore()

    assert [len(t.losses) for t in recorder.trainings] == [2, 2]
    assert [r.step for r in resumed.train_result.history] == [2, 3]
    assert resumed.train_result.optimizer.t == 4


def test_recorder_sees_every_prediction_of_evaluate():
    """The recorder counts predictions by wrapping
    `evaluation.predict_label`; an `evaluate` that predicts some other way
    would leave the benchmark's eval figures without their predictions."""
    splits, registry = generate_corpus(DEFAULT_EVENTS[:1], n_train=8, n_test=5, seed=0)
    event = DEFAULT_EVENTS[0].event_id
    test = unify_labels(splits[event].test, RELEVANCE_MAP)
    vocab = build_vocab(experiment.augmented_texts(test, "postq", registry), min_freq=1)
    mcfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, d_ff=16, n_enc_layers=1,
                       n_dec_layers=1, dropout=0.0, max_src_len=48, max_tgt_len=3)
    encoded, gold = experiment.encode_eval_inputs(test, "postq", registry[event], vocab, mcfg)

    recorder = workloads.Recorder(clock=time.perf_counter)
    patcher = spans.Patcher()
    recorder.install(patcher)
    try:
        report = evaluation.evaluate(init_params(mcfg, 0), encoded, gold, vocab, mcfg)
    finally:
        patcher.restore()

    assert len(encoded) == 5
    assert len(recorder.predictions) == len(encoded)
    assert all(label in ("yes", "no") and isinstance(fell_back, bool)
               for label, fell_back in recorder.predictions)
    assert sum(fell_back for _, fell_back in recorder.predictions) == report.fallback_count
    assert [(n, fell_back) for n, _, fell_back in recorder.evals] == [(5, report.fallback_count)]


@pytest.mark.parametrize("first, fallback", [("yes", False), ("water", True)],
                         ids=["label_then_eos", "word_first"])
def test_prediction_costs_two_decoder_passes(monkeypatch, first, fallback):
    """A chunk of inputs is encoded once and decoded by one
    `evaluation.generate_greedy` call: greedy output [label, EOS] costs it
    two decoder passes, and a first token that rules a label out costs it
    one, plus one `evaluation.score_sequence` pass that scores both labels
    of every such row. Every decoder pass runs inside one of the two, and
    `evaluation.predict_label` then decides each input without a model
    call."""
    vocab = build_vocab(["water rain storm flood go"], min_freq=1)
    mcfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, d_ff=16, n_enc_layers=1,
                       n_dec_layers=1, dropout=0.0, max_src_len=8, max_tgt_len=10)
    monkeypatch.setattr(model, "decode_logits",
                        scripted_decoder(model.decode_logits, [vocab.lookup(first), EOS]))
    encoded = [encode_text(text, vocab) for text in ("water rain", "storm flood go", "go")]

    tracer, patcher = spans.Tracer(), spans.Patcher()
    layers.install(tracer, patcher)
    try:
        report = evaluation.evaluate(init_params(mcfg, 0), encoded, ["yes", "no", "yes"],
                                     vocab, mcfg)
    finally:
        patcher.restore()

    traced = tracer.spans
    (top,) = [i for i, s in enumerate(traced) if s[spans.NAME] == "evaluation.evaluate"]
    assert report.fallback_count == 3 * fallback
    calls = [j for j, s in enumerate(traced) if s[spans.PARENT] == top]
    scorer = ["model.score_sequence"] if fallback else []
    # the three inputs fit one chunk
    assert [traced[j][spans.NAME] for j in calls] == \
        ["model.encode_source", "model.generate_greedy", *scorer,
         *["evaluation.predict_label"] * 3]
    passes = [traced[j][spans.NAME] for s in traced
              if s[spans.NAME] == "model.decode_logits" and (j := s[spans.PARENT]) in calls]
    assert passes == ["model.generate_greedy", *(scorer or ["model.generate_greedy"])]
    decisions = {j for j in calls if traced[j][spans.NAME] == "evaluation.predict_label"}
    assert not [s for s in traced if s[spans.PARENT] in decisions]  # no model call inside


def test_matrix_tiny_records_one_training_per_row(tmp_path):
    """matrix_tiny's 3x3 run_matrix trains each of its 3 rows once and
    evaluates all 9 cells, each `evaluate` call seen once by the recorder,
    and the workload's own checks pass on what it recorded."""
    workload = workloads.MatrixTiny(1, tmp_path)
    workload.setup()
    recorder = workloads.Recorder(clock=time.perf_counter)
    patcher = spans.Patcher()
    recorder.install(patcher)
    try:
        matrix = workload.run()
    finally:
        patcher.restore()

    assert len(matrix.events) == 3 and matrix.complete
    assert len(recorder.trainings) == 3
    assert [n for n, _, _ in recorder.evals] == [24] * 9
    assert len(recorder.predictions) == 9 * 24
    tally = workloads.Tally()
    workload.check(matrix, recorder, tally)
    assert tally.failures == []
