"""End-to-end harness: encoding pipelines, single plans, matrix, LOO."""

import numpy as np
import pytest

from crisisadapt import experiment
from crisisadapt.corpus import (
    RELEVANCE_MAP,
    EventSplits,
    compose_plan,
    unify_labels,
)
from crisisadapt.errors import DataError, LabelError, UnknownEventError, VocabError
from crisisadapt.evaluation import AdaptationMatrix, evaluate
from crisisadapt.experiment import (
    augmented_texts,
    encode_eval_inputs,
    encode_training_examples,
    run_loo,
    run_matrix,
    run_plan,
)
from crisisadapt.model import ModelConfig, init_params
from crisisadapt.prompt import construct
from crisisadapt.rng import mix_seed
from crisisadapt.synth import SynthEventSpec, generate_corpus
from crisisadapt.tokenizer import EOS, PAD, build_vocab, decode
from crisisadapt.train import train

from conftest import make_record

SPECS = (
    SynthEventSpec("east_flood", "Easton", "flood", "storm", "flood"),
    SynthEventSpec("west_flood", "Weston", "flood", "storm", "flood"),
    SynthEventSpec("north_quake", "Northam", "earthquake", "quake", "earthquake"),
)


def unified_corpus(n_train=8, n_test=4, seed=0, specs=SPECS):
    splits, registry = generate_corpus(specs, n_train=n_train, n_test=n_test, seed=seed)
    return {
        name: EventSplits(
            train=unify_labels(ev.train, RELEVANCE_MAP),
            test=unify_labels(ev.test, RELEVANCE_MAP),
        )
        for name, ev in splits.items()
    }, registry


SPLITS, REGISTRY = unified_corpus()
ALL_RECORDS = [r for ev in SPLITS.values() for r in ev.train + ev.test]
VOCAB = build_vocab(augmented_texts(ALL_RECORDS, "postq", REGISTRY), min_freq=1)
MCFG = ModelConfig(vocab_size=VOCAB.size, d_model=16, n_heads=2, d_ff=32,
                   n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                   max_src_len=48, max_tgt_len=4)


def tiny_train_config(**overrides):
    from crisisadapt.train import TrainConfig
    base = dict(peak_lr=1e-3, effective_batch=8, epochs=2, seed=0)
    return TrainConfig(**(base | overrides))


# ---------------------------------------------------------------------------
# Encoding pipelines


def test_augmented_texts_match_construct():
    records = SPLITS["east_flood"].train[:4]
    texts = augmented_texts(records, "postq", REGISTRY)
    for rec, text in zip(records, texts):
        assert text == construct(rec, "postq", REGISTRY[rec.event_id]).text
        assert "Easton flood" in text


def test_augmented_texts_unknown_event():
    ghost = make_record(0, event_id="ghost_event")
    with pytest.raises(UnknownEventError, match="ghost_event"):
        augmented_texts([ghost], "postq", REGISTRY)


def test_training_examples_use_each_records_own_event():
    mixed = SPLITS["east_flood"].train[:2] + SPLITS["north_quake"].train[:2]
    pairs = encode_training_examples(mixed, "postq", REGISTRY, VOCAB, MCFG)
    assert len(pairs) == 4
    for rec, (ids, tgt) in zip(mixed, pairs):
        text = decode(ids.tolist(), VOCAB)
        own = "easton flood" if rec.event_id == "east_flood" else "northam earthquake"
        assert own in text
        assert ids.ndim == 1 and ids.dtype == np.int64
        assert PAD not in ids.tolist() and ids[-1] == EOS  # padded only per chunk
        assert tgt.tolist() == [VOCAB.lookup(rec.unified_label), EOS]


def test_training_examples_require_unified_labels():
    raw, _ = generate_corpus(SPECS[:1], n_train=4, n_test=2, seed=0)
    with pytest.raises(LabelError, match="unified label"):
        encode_training_examples(raw["east_flood"].train, "postq",
                                 REGISTRY, VOCAB, MCFG)


def test_training_examples_need_label_words_in_vocab():
    bare = build_vocab(["water city report"], min_freq=1, forced=frozenset())
    records = SPLITS["east_flood"].train[:1]
    with pytest.raises(VocabError, match="label word"):
        encode_training_examples(records, "standard", REGISTRY, bare, MCFG)


def test_eval_inputs_use_target_descriptor():
    # source-event records, but encoded against the quake event's description
    records = SPLITS["east_flood"].test[:3]
    encoded, gold = encode_eval_inputs(records, "postq",
                                       REGISTRY["north_quake"], VOCAB, MCFG)
    assert gold == [r.unified_label for r in records]
    for ids in encoded:
        text = decode(ids.tolist(), VOCAB)
        assert "northam earthquake" in text
        assert "easton" not in text


def test_eval_inputs_require_unified_labels():
    raw, _ = generate_corpus(SPECS[:1], n_train=4, n_test=2, seed=0)
    with pytest.raises(LabelError, match="unified label"):
        encode_eval_inputs(raw["east_flood"].test, "postq",
                           REGISTRY["east_flood"], VOCAB, MCFG)


# ---------------------------------------------------------------------------
# Single plan


def test_run_plan_micro_end_to_end():
    plan = compose_plan({"east_flood"}, "east_flood", "postq", SPLITS, seed=9)
    outcome = run_plan(plan, REGISTRY, VOCAB, MCFG, tiny_train_config())
    assert outcome.report.n == len(SPLITS["east_flood"].test)
    assert 0.0 <= outcome.report.accuracy <= 1.0
    assert outcome.train_result.final_step == outcome.train_result.total_steps
    fresh = init_params(MCFG, 0)
    assert any(
        not np.array_equal(outcome.params[n].data, fresh[n].data)
        for n in fresh.names()
    )


def test_run_plan_is_reproducible():
    plan = compose_plan({"east_flood"}, "west_flood", "postq", SPLITS, seed=4)
    a = run_plan(plan, REGISTRY, VOCAB, MCFG, tiny_train_config())
    b = run_plan(plan, REGISTRY, VOCAB, MCFG, tiny_train_config())
    assert a.report.accuracy == b.report.accuracy
    assert [h.loss for h in a.train_result.history] == \
           [h.loss for h in b.train_result.history]
    for name in a.params.names():
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def test_run_plan_seed_comes_from_plan():
    plan_a = compose_plan({"east_flood"}, "west_flood", "postq", SPLITS, seed=4)
    plan_b = compose_plan({"east_flood"}, "west_flood", "postq", SPLITS, seed=5)
    a = run_plan(plan_a, REGISTRY, VOCAB, MCFG, tiny_train_config(seed=777))
    b = run_plan(plan_b, REGISTRY, VOCAB, MCFG, tiny_train_config(seed=777))
    # the externally supplied train seed is overridden by each plan's seed
    assert [h.loss for h in a.train_result.history] != \
           [h.loss for h in b.train_result.history]


# ---------------------------------------------------------------------------
# Matrix and leave-one-out


def two_event_views():
    names = ("east_flood", "west_flood")
    return {n: SPLITS[n] for n in names}, names


def test_run_matrix_standard_split_completes():
    splits, names = two_event_views()
    matrix = run_matrix(splits, REGISTRY, names, "postq", VOCAB, MCFG,
                        tiny_train_config(), diagonal_mode="standard_split", seed=3)
    assert matrix.complete
    assert matrix.events == names
    arr = matrix.to_array()
    assert arr.shape == (2, 2)
    assert ((0.0 <= arr) & (arr <= 1.0)).all()
    prov = matrix.provenance["east_flood->west_flood"]
    assert prov["task_id"] == "east_flood->west_flood/postq"
    assert prov["n_test"] == 4
    assert "weighted_f1" in prov and "seed" in prov


def test_run_matrix_is_deterministic():
    splits, names = two_event_views()
    kwargs = dict(diagonal_mode="standard_split", seed=3)
    a = run_matrix(splits, REGISTRY, names, "postq", VOCAB, MCFG,
                   tiny_train_config(), **kwargs)
    b = run_matrix(splits, REGISTRY, names, "postq", VOCAB, MCFG,
                   tiny_train_config(), **kwargs)
    assert a.cells == b.cells
    c = run_matrix(splits, REGISTRY, names, "postq", VOCAB, MCFG,
                   tiny_train_config(), diagonal_mode="standard_split", seed=4)
    assert {k: v["seed"] for k, v in a.provenance.items()} != \
           {k: v["seed"] for k, v in c.provenance.items()}


def test_run_matrix_five_fold_diagonal():
    splits, names = two_event_views()
    matrix = run_matrix(splits, REGISTRY, names, "postq", VOCAB, MCFG,
                        tiny_train_config(), diagonal_mode="five_fold_mean",
                        k=2, seed=1)
    assert matrix.complete
    for name in names:
        prov = matrix.provenance[f"{name}->{name}"]
        assert prov["k"] == 2
        assert len(prov["fold_accuracies"]) == 2
        assert prov["value"] == pytest.approx(
            sum(prov["fold_accuracies"]) / 2)


# training-set sizes: a row trains on its source's 8 train records, a
# diagonal fold on 6 of the event's 12 records pooled (k = 2)
@pytest.mark.parametrize("mode, k, trainings", [("standard_split", 5, [8] * 3),
                                                ("five_fold_mean", 2, [6] * 6 + [8] * 3)])
def test_run_matrix_trains_each_row_once(monkeypatch, mode, k, trainings):
    """N events cost N row trainings, plus N * k diagonal folds under
    five_fold_mean; every cell of a row records the row seed."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return train(*args, **kwargs)

    monkeypatch.setattr(experiment, "train", counted)
    names = tuple(sorted(SPLITS))
    matrix = run_matrix(SPLITS, REGISTRY, names, "postq", VOCAB, MCFG,
                        tiny_train_config(), diagonal_mode=mode, k=k, seed=3)
    assert matrix.complete
    assert sorted(calls) == trainings
    for s in names:
        for t in names:
            prov = matrix.provenance[f"{s}->{t}"]
            if s == t and mode == "five_fold_mean":
                assert prov["seed"] == 3 and len(prov["fold_accuracies"]) == k
            else:
                assert prov["seed"] == mix_seed(3, "cell", s), (s, t)


def test_run_matrix_composes_every_plan_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "train", lambda *args, **kwargs: calls.append(args))
    names = tuple(sorted(SPLITS))
    splits = dict(SPLITS, **{names[-1]: EventSplits(train=[], test=SPLITS[names[-1]].test)})
    with pytest.raises(DataError, match=f"{names[-1]!r} has no training data"):
        run_matrix(splits, REGISTRY, names, "postq", VOCAB, MCFG, tiny_train_config())
    with pytest.raises(ValueError, match="into 100 folds"):
        run_matrix(SPLITS, REGISTRY, names, "postq", VOCAB, MCFG, tiny_train_config(),
                   diagonal_mode="five_fold_mean", k=100)
    assert calls == []


def test_run_matrix_cells_score_the_row_model():
    """Cell (s, t) is row s's model, trained once with the row seed,
    evaluated on t's test set under t's description. At this learning
    rate whether a model's predictions fall back depends on its seed, and
    test sets of 4, 3 and 2 records tell the targets apart."""
    names = tuple(sorted(SPLITS))
    splits = {name: EventSplits(train=SPLITS[name].train, test=SPLITS[name].test[:n])
              for name, n in zip(names, (4, 3, 2))}
    tcfg = tiny_train_config(peak_lr=1e-2, epochs=4)
    matrix = run_matrix(splits, REGISTRY, names, "postq", VOCAB, MCFG, tcfg, seed=3)
    for s in names:
        plan = compose_plan({s}, names[0], "postq", splits, mix_seed(3, "cell", s))
        params = run_plan(plan, REGISTRY, VOCAB, MCFG, tcfg).params
        for t in names:
            encoded, gold = encode_eval_inputs(splits[t].test, "postq", REGISTRY[t], VOCAB, MCFG)
            report = evaluate(params, encoded, gold, VOCAB, MCFG)
            prov = matrix.provenance[f"{s}->{t}"]
            assert matrix.cells[(s, t)] == report.accuracy, (s, t)
            assert (prov["weighted_f1"], prov["fallback_rate"], prov["n_test"]) == \
                   (report.weighted_f1, report.fallback_rate, report.n), (s, t)


def test_run_matrix_jobs_change_nothing_but_wall_time():
    splits, names = two_event_views()
    runs = [run_matrix(splits, REGISTRY, names, "postq", VOCAB, MCFG, tiny_train_config(),
                       diagonal_mode="five_fold_mean", k=2, seed=5, jobs=jobs)
            for jobs in (1, 2)]
    assert runs[0].cells == runs[1].cells
    assert runs[0].provenance == runs[1].provenance


def test_run_loo_micro():
    plans, results, table = run_loo(SPLITS, REGISTRY, list(SPLITS), "postq",
                                    VOCAB, MCFG, tiny_train_config(), seed=2)
    assert len(plans) == 3
    assert [p.target_event for p in plans] == sorted(SPLITS)
    for plan in plans:
        assert len(plan.source_events) == 2
        assert plan.target_event not in plan.source_events
    assert set(results) == set(SPLITS)
    accs = [results[t].accuracy for t in sorted(results)]
    assert table["mean"]["accuracy"] == pytest.approx(sum(accs) / len(accs))
    assert table["mean"]["targets"] == 3
