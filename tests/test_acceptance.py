"""Shipping gate: one test per release criterion.

Every test prints a single "ACCEPTANCE <n> <name>: PASS/FAIL" line with its
wall time. Run the gate alone, unbuffered, with

    pytest tests/test_acceptance.py -v -s

The heavier criteria (full-model gradient sweep, memorization, the 3x3
adaptation matrix) assert their own wall-clock budgets, so a pass also
certifies the runtime claims.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import finite_diff_check
from test_eval import oracle_accuracy, oracle_pearson, oracle_weighted_f1
from test_prompt import CASES, NEPAL_NOLOC

from crisisadapt.checkpoint import load_checkpoint, save_checkpoint
from crisisadapt.corpus import (
    RELEVANCE_MAP,
    CrisisRecord,
    EventDescriptor,
    EventSplits,
    compose_plan,
    unify_labels,
)
from crisisadapt.errors import PlanError
from crisisadapt.evaluation import (
    EvalReport,
    accuracy,
    evaluate,
    loo_table,
    pearson_row_correlation,
    weighted_f1,
)
from crisisadapt.experiment import (
    augmented_texts,
    encode_eval_inputs,
    encode_training_examples,
    plan_leave_one_out,
    run_matrix,
)
from crisisadapt.model import (
    EOS,
    ModelConfig,
    example_loss,
    init_params,
    named_config,
)
from crisisadapt.prompt import construct
from crisisadapt.rng import SplitMix64
from crisisadapt.synth import DEFAULT_EVENTS, generate_corpus
from crisisadapt.tokenizer import build_vocab, decode, encode_augmented, tokenize
from crisisadapt.train import (
    TrainConfig,
    chunk_slots,
    lr_at,
    pad_sources,
    steps_per_epoch,
    train,
)


@contextmanager
def criterion(number: int, name: str):
    """Emit the one-line verdict for a criterion, pass or fail."""
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL ({time.monotonic() - t0:.1f}s)",
              flush=True)
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS ({time.monotonic() - t0:.1f}s)",
          flush=True)


# ---------------------------------------------------------------------------
# 1. Gradient integrity
#
# Frozen probe: a 1+1-layer model (V=50, d=16) in fp64 with weight matrices
# scaled x16 so no gradient coordinate sits near the finite-difference noise
# floor. Central differences at eps=3e-5 measured a worst relative error of
# 3.4e-07 against the analytic gradient; the bound below keeps ~3x headroom.

GRAD_CFG = ModelConfig(vocab_size=50, d_model=16, n_heads=2, d_ff=32,
                       n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                       max_src_len=16, max_tgt_len=8)
GRAD_SRC = np.array([[4, 9, 17, 33, 2, 7, 41, 28, 13, 6]], dtype=np.int64)
GRAD_TGT = np.array([[12, 7, 30, EOS]], dtype=np.int64)


def grad_params():
    params = init_params(GRAD_CFG, 161)
    for name in params.names():
        arr = params[name].data.astype(np.float64)
        if name.endswith(".weight"):
            arr = arr * 16.0
        params[name].data = arr
    return params


def grad_loss_fn(params, name):
    def f(t):
        saved = params._params[name]
        params._params[name] = t
        try:
            return example_loss(params, GRAD_SRC, GRAD_TGT, GRAD_CFG)
        finally:
            params._params[name] = saved
    return f


def test_acceptance_01_gradient_integrity():
    with criterion(1, "full-model fp64 gradient vs finite differences"):
        start = time.monotonic()
        params = grad_params()
        worst = 0.0
        for name in params.names():
            err = finite_diff_check(grad_loss_fn(params, name),
                                      params[name], eps=3e-5)
            worst = max(worst, err)
        elapsed = time.monotonic() - start
        assert worst < 1e-6, f"max relative error {worst:.3e}"
        assert elapsed < 120.0, f"gradient sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2 & 3 share a fixture: 64 messages over a deterministic word stream.
# Relevant messages repeat one topical word, irrelevant ones sample chatter,
# so the two classes are linearly separable and a tiny model can memorize
# the set with the stock recipe.

TOPIC = ["flood", "levee", "surge", "rain", "wind", "storm", "river", "dam"]
CHATTER = ["game", "coffee", "music", "movie", "party", "lunch",
           "shopping", "traffic"]


def memorization_fixture():
    rng = SplitMix64(3)
    records = []
    for i in range(64):
        if i % 2 == 0:
            word = TOPIC[rng.next_below(len(TOPIC))]
            text = " ".join([word] * 4)
            raw, label = "relevant", "yes"
        else:
            text = " ".join(CHATTER[rng.next_below(len(CHATTER))]
                            for _ in range(4))
            raw, label = "not_relevant", "no"
        records.append(CrisisRecord(f"m{i:03d}", text, raw, "evt", label))
    registry = {"evt": EventDescriptor("evt", "Avalon", "flood")}
    vocab = build_vocab([r.text for r in records], max_size=200)
    return records, registry, vocab


def test_acceptance_02_init_loss_near_log_vocab():
    with criterion(2, "first-batch cross-entropy near ln(vocab_size) at init"):
        records, registry, vocab = memorization_fixture()
        mcfg = named_config("tiny", vocab_size=vocab.size, dropout=0.0)
        params = init_params(mcfg, 11)
        examples = encode_training_examples(records[:16], "standard",
                                            registry, vocab, mcfg)
        losses = [float(example_loss(params, pad_sources([src], [0]), tgt[None], mcfg).data)
                  for src, tgt in examples]
        mean = sum(losses) / len(losses)
        expected = math.log(vocab.size)
        assert abs(mean - expected) <= 0.10 * expected, (mean, expected)


def test_acceptance_03_memorization_within_budget():
    with criterion(3, "64-example memorization to accuracy 1.0"):
        start = time.monotonic()
        records, registry, vocab = memorization_fixture()
        mcfg = named_config("tiny", vocab_size=vocab.size, dropout=0.0)
        tcfg = TrainConfig(peak_lr=5e-5, warmup_ratio=0.1, effective_batch=16,
                           epochs=200, seed=11)
        params = init_params(mcfg, 11)
        examples = encode_training_examples(records, "standard", registry,
                                            vocab, mcfg)
        encoded, gold = encode_eval_inputs(records, "standard",
                                           registry["evt"], vocab, mcfg)

        # train 10 epochs at a time, resuming, and probe after each block;
        # stop at the first probe that reads accuracy 1.0
        probes = {}
        block = 10 * steps_per_epoch(len(examples), tcfg.effective_batch)
        optimizer = None
        while True:
            result = train(params, examples, mcfg, tcfg, max_steps=block, optimizer=optimizer)
            step, optimizer = result.final_step, result.optimizer
            accuracy = evaluate(params, encoded, gold, vocab, mcfg).accuracy
            probes[step // result.steps_per_epoch] = accuracy
            if accuracy == 1.0 or step == result.total_steps:
                break
        elapsed = time.monotonic() - start
        epochs_used = step // result.steps_per_epoch
        assert probes and max(probes.values()) == 1.0, probes
        assert epochs_used <= 200, epochs_used
        assert elapsed < 300.0, f"memorization took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. Template conformance


def test_acceptance_04_template_fixture_byte_exact():
    with criterion(4, "20-case template fixture byte-exact"):
        assert len(CASES) == 20
        scenarios = {scenario for _, scenario, _, _ in CASES}
        assert scenarios == {"standard", "postq", "variant1", "variant2",
                             "variant3"}
        assert any(text == "" for text, _, _, _ in CASES)
        mismatches = []
        for text, scenario, event, expected in CASES:
            rec = CrisisRecord("case", text, "relevant", event.event_id, "yes")
            got = construct(rec, scenario, event).text
            if got != expected:
                mismatches.append((scenario, text, got, expected))
        assert not mismatches, mismatches
        # empty-location edge: the location-dependent rearrangement refuses
        rec = CrisisRecord("case", "any text", "relevant",
                           NEPAL_NOLOC.event_id, "yes")
        with pytest.raises(ValueError, match="location"):
            construct(rec, "variant2", NEPAL_NOLOC)


# ---------------------------------------------------------------------------
# 5. Metric oracles


def test_acceptance_05_metrics_match_brute_force():
    with criterion(5, "accuracy/F1 at 1e-12, Pearson at 1e-9, vs brute force"):
        rng = np.random.Generator(np.random.PCG64(607))
        for trial in range(1000):
            n = int(rng.integers(1, 40))
            alphabet = ("yes", "no") if trial % 2 else ("a", "b", "c")
            gold = [alphabet[i] for i in rng.integers(0, len(alphabet), n)]
            pred = [alphabet[i] for i in rng.integers(0, len(alphabet), n)]
            assert abs(accuracy(gold, pred)
                       - oracle_accuracy(gold, pred)) < 1e-12
            assert abs(weighted_f1(gold, pred)
                       - oracle_weighted_f1(gold, pred)) < 1e-12
        pairs = 0
        while pairs < 1000:
            arr = rng.normal(size=(5, 5))
            corr = pearson_row_correlation(arr)
            for i in range(5):
                for j in range(i + 1, 5):
                    want = oracle_pearson(list(arr[i]), list(arr[j]))
                    assert abs(corr[i, j] - want) < 1e-9
                    assert corr[i, j] == corr[j, i]
                    pairs += 1


# ---------------------------------------------------------------------------
# 6. Scheduler


def test_acceptance_06_scheduler_exact_points():
    with criterion(6, "warmup/decay schedule pinned points exact"):
        assert lr_at(0, 100, 0.1, 5e-5) == 0.0
        assert lr_at(10, 100, 0.1, 5e-5) == 5e-5
        assert lr_at(55, 100, 0.1, 5e-5) == 2.5e-5
        assert lr_at(100, 100, 0.1, 5e-5) == 0.0
        # continuity at the boundary: both pieces evaluate to the peak
        warmup_side = 5e-5 * (10 / 10)
        decay_side = 5e-5 * ((100 - 10) / (100 - 10))
        assert warmup_side == lr_at(10, 100, 0.1, 5e-5) == decay_side


# ---------------------------------------------------------------------------
# 7 & 8 share a small deterministic training setup.

RUN_CFG = ModelConfig(vocab_size=12, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                      max_src_len=8, max_tgt_len=4)


def run_examples():
    rng = np.random.Generator(np.random.PCG64(17))
    examples = []
    for i in range(8):
        src = rng.integers(3, 12, size=5).astype(np.int64)
        tgt = np.array([3 + i % 9, EOS], dtype=np.int64)
        examples.append((src, tgt))
    return examples


def test_acceptance_07_determinism_and_persistence(tmp_path):
    with criterion(7, "bitwise determinism, save/load/resume, byte round-trip"):
        examples = run_examples()
        tcfg = TrainConfig(peak_lr=1e-3, warmup_ratio=0.1, effective_batch=4,
                           epochs=10, seed=21)

        def fresh():
            return init_params(RUN_CFG, 5)

        # identical (config, data, seed) -> bitwise-identical loss history
        params_a = fresh()
        full = train(params_a, examples, RUN_CFG, tcfg)
        params_b = fresh()
        again = train(params_b, examples, RUN_CFG, tcfg)
        assert full.history == again.history
        assert len(full.history) == 20

        # first half, checkpointed
        params_c = fresh()
        head = train(params_c, examples, RUN_CFG, tcfg, max_steps=10)
        ckpt = tmp_path / "half.castckpt"
        save_checkpoint(ckpt, params_c, RUN_CFG, "acceptance7", step=10,
                        seed=tcfg.seed, optimizer=head.optimizer)

        # byte-identical round trip before resuming
        data = load_checkpoint(ckpt, expected_vocab_hash="acceptance7")
        copy = init_params(RUN_CFG, 0)
        copy.load_arrays(data.arrays)
        twin = tmp_path / "twin.castckpt"
        save_checkpoint(twin, copy, data.config, data.vocab_hash, data.step,
                        data.seed, optimizer=data.restore_optimizer(copy),
                        extra=data.extra)
        assert twin.read_bytes() == ckpt.read_bytes()

        # resume reproduces the next 10 losses exactly, bit for bit
        resumed_params = init_params(RUN_CFG, 0)
        resumed_params.load_arrays(data.arrays)
        optimizer = data.restore_optimizer(resumed_params)
        assert optimizer.t == data.step
        tail = train(resumed_params, examples, RUN_CFG, tcfg, optimizer=optimizer)
        assert len(tail.history) == 10
        assert head.history + tail.history == full.history
        for name in params_a.names():
            assert np.array_equal(params_a[name].data,
                                  resumed_params[name].data)


def test_acceptance_08_accumulation_equivalence(monkeypatch):
    with criterion(8, "one step as 1 batched pass vs 8 accumulated passes"):
        examples = run_examples()
        tcfg = TrainConfig(peak_lr=1e-3, warmup_ratio=0.0, effective_batch=8,
                           epochs=1, seed=21)
        worst = 0.0
        stores = []
        # the default token budget packs the step into one pass; a budget
        # of 1 runs each example alone and sums the eight gradients
        for budget, passes in ((None, 1), (1, 8)):
            if budget is not None:
                monkeypatch.setattr("crisisadapt.train._ACTIVATION_BUDGET", budget)
            assert len(chunk_slots(examples, range(len(examples)), RUN_CFG.d_model)) == passes
            params = init_params(RUN_CFG, 9)
            result = train(params, examples, RUN_CFG, tcfg)
            assert result.final_step == 1
            stores.append(params)
        one, eight = stores
        for name in one.names():
            a, b = one[name].data, eight[name].data
            rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                             1e-12)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-6, worst


# ---------------------------------------------------------------------------
# 9. Synthetic adaptation experiment
#
# Frozen recipe: the stock three-event corpus (two flood events drawn from
# the same topical pool with per-event streams, one earthquake event from a
# disjoint pool), 48/24 splits, question-augmented inputs, tiny model,
# lr 1e-3 for 100 epochs. One training per source row, so 3 in all.
# Measured 19 s on a 2-vCPU Xeon with numpy 2.4; the budget allows 20 min.


def test_acceptance_09_synthetic_adaptation_matrix():
    with criterion(9, "3x3 adaptation matrix, transfer and row correlations"):
        start = time.monotonic()
        assert DEFAULT_EVENTS[0].pool == DEFAULT_EVENTS[1].pool
        assert DEFAULT_EVENTS[2].pool != DEFAULT_EVENTS[0].pool

        raw_splits, registry = generate_corpus(n_train=48, n_test=24, seed=0)
        splits = {
            name: EventSplits(train=unify_labels(ev.train, RELEVANCE_MAP),
                              test=unify_labels(ev.test, RELEVANCE_MAP))
            for name, ev in raw_splits.items()
        }
        records = [r for ev in splits.values() for r in ev.train + ev.test]
        vocab = build_vocab(augmented_texts(records, "postq", registry),
                            min_freq=1)
        mcfg = named_config("tiny", vocab_size=vocab.size, dropout=0.0)
        tcfg = TrainConfig(peak_lr=1e-3, warmup_ratio=0.1, effective_batch=16,
                           epochs=100, seed=0)
        matrix = run_matrix(splits, registry, sorted(splits), "postq", vocab,
                            mcfg, tcfg, diagonal_mode="standard_split",
                            seed=0, jobs=1)
        elapsed = time.monotonic() - start

        assert matrix.complete
        a, b, c = "alpha_flood", "beta_flood", "gamma_quake"
        for event in (a, b, c):
            assert matrix.cells[(event, event)] >= 0.95, (
                event, matrix.cells[(event, event)])
        assert matrix.cells[(a, b)] >= 0.90, matrix.cells[(a, b)]
        assert matrix.cells[(b, a)] >= 0.90, matrix.cells[(b, a)]

        corr = pearson_row_correlation(matrix)
        i, j, k = (matrix.events.index(e) for e in (a, b, c))
        assert corr[i, j] > corr[i, k], (corr[i, j], corr[i, k])
        assert elapsed < 1200.0, f"matrix took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 10. Plan enumeration


def plan_fixture(names):
    splits = {}
    for name in names:
        splits[name] = EventSplits(
            train=[CrisisRecord(f"{name}:tr{i}", f"text {i}", "relevant",
                                name, "yes") for i in range(4)],
            test=[CrisisRecord(f"{name}:te{i}", f"text {i}", "relevant",
                               name, "yes") for i in range(2)],
        )
    return splits


def test_acceptance_10_plan_enumeration():
    with criterion(10, "leave-one-out plans over 6 events, mean row, rejects"):
        events = [f"ev_{c}" for c in "abcdef"]
        splits = plan_fixture(events)
        plans = plan_leave_one_out(events, "postq", splits, seed=7)
        assert len(plans) == 6
        assert [p.target_event for p in plans] == sorted(events)
        for plan in plans:
            assert len(plan.source_events) == 5
            assert plan.target_event not in plan.source_events
            assert len(plan.source_dataset) == 5 * 4
            assert len(plan.target_test_set) == 2

        accs = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        results = {
            target: EvalReport(n=2, accuracy=acc, weighted_f1=acc / 2,
                               per_class={}, confusion={}, fallback_count=0)
            for target, acc in zip(sorted(events), accs)
        }
        table = loo_table(results)
        assert list(table["per_target"]) == sorted(events)
        assert abs(table["mean"]["accuracy"] - sum(accs) / 6) < 1e-12
        assert abs(table["mean"]["weighted_f1"] - sum(accs) / 12) < 1e-12
        assert table["mean"]["targets"] == 6

        with pytest.raises(PlanError, match="target"):
            compose_plan(frozenset({"ev_a", "ev_b"}), "ev_a", "postq", splits, 7)


# ---------------------------------------------------------------------------
# 11. Truncation safety


def test_acceptance_11_truncation_keeps_question_template():
    with criterion(11, "over-length inputs keep the event question intact"):
        qld = EventDescriptor("nq_flood", "Queensland", "Floods")
        pool = TOPIC + CHATTER + ["road", "bridge", "phone", "help", "water",
                                  "dark", "late", "home"]
        rng = SplitMix64(99)
        texts = []
        for _ in range(100):
            n_words = 40 + rng.next_below(41)
            texts.append(" ".join(pool[rng.next_below(len(pool))]
                                  for _ in range(n_words)))
        records = [CrisisRecord(f"t{i:03d}", text, "relevant", "nq_flood",
                                "yes") for i, text in enumerate(texts)]
        augmented = [construct(rec, "postq", qld) for rec in records]
        vocab = build_vocab([aug.text for aug in augmented], min_freq=1)

        max_len = 24
        question = "question : is this message relevant to queensland floods ?"
        suffix_tokens = tokenize(augmented[0].text[augmented[0].content_span[1]:])
        suffix_ids = [vocab.lookup(t) for t in suffix_tokens]
        for aug in augmented:
            assert len(tokenize(aug.text)) + 1 > max_len  # genuinely over-length
            ids = encode_augmented(aug, vocab, max_len)
            assert len(ids) == max_len and ids[-1] == EOS
            assert ids[-1 - len(suffix_ids):-1].tolist() == suffix_ids
            assert decode(ids, vocab).endswith(question)
