"""Metrics against brute-force oracles, transfer matrix, experiment plans."""

import json

import numpy as np
import pytest

from crisisadapt import evaluation, model
from crisisadapt import tensor as T
from crisisadapt.corpus import EventSplits
from crisisadapt.evaluation import (
    AdaptationMatrix,
    ClassScores,
    EvalReport,
    accuracy,
    class_scores,
    evaluate,
    loo_table,
    pearson_row_correlation,
    plan_leave_one_out,
    predict_label,
    weighted_f1,
    write_correlation_csv,
    write_matrix_csv,
    write_matrix_provenance,
)
from crisisadapt.model import ModelConfig, init_params, shift_right
from crisisadapt.prompt import LABELS, parse_label
from crisisadapt.tokenizer import EOS, PAD, UNK, build_vocab, decode
from crisisadapt.train import pad_sources

from conftest import encode_text, make_record, scripted_decoder


# ---------------------------------------------------------------------------
# Brute-force oracles


def oracle_accuracy(gold, pred):
    return sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)


def oracle_class_scores(gold, pred, cls):
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        if p == cls and g == cls:
            tp += 1
        elif p == cls:
            fp += 1
        elif g == cls:
            fn += 1
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1, tp + fn


def oracle_weighted_f1(gold, pred):
    classes = sorted(set(gold))
    total = len(gold)
    out = 0.0
    for cls in classes:
        _, _, f1, support = oracle_class_scores(gold, pred, cls)
        out += f1 * support / total
    return out


def oracle_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x)
    dy = sum((b - my) ** 2 for b in y)
    return num / (dx * dy) ** 0.5


def random_labels(rng, n, alphabet):
    return [alphabet[i] for i in rng.integers(0, len(alphabet), size=n)]


def test_metrics_match_oracles_on_random_instances(rng):
    for trial in range(200):
        n = int(rng.integers(1, 40))
        alphabet = ("yes", "no") if trial % 2 else ("a", "b", "c")
        gold = random_labels(rng, n, alphabet)
        pred = random_labels(rng, n, alphabet)
        assert abs(accuracy(gold, pred) - oracle_accuracy(gold, pred)) < 1e-12
        assert abs(weighted_f1(gold, pred) - oracle_weighted_f1(gold, pred)) < 1e-12
        scores = class_scores(gold, pred)
        assert set(scores) == set(gold)
        for cls, s in scores.items():
            prec, rec, f1, support = oracle_class_scores(gold, pred, cls)
            assert abs(s.precision - prec) < 1e-12
            assert abs(s.recall - rec) < 1e-12
            assert abs(s.f1 - f1) < 1e-12
            assert s.support == support


def test_metric_validation():
    with pytest.raises(ValueError, match="lengths differ"):
        accuracy(["yes"], ["yes", "no"])
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])
    with pytest.raises(ValueError, match="lengths differ"):
        class_scores(["yes"], [])
    with pytest.raises(ValueError, match="empty"):
        weighted_f1([], [])


def test_perfect_and_inverted_predictions():
    gold = ["yes", "no", "yes", "no"]
    assert accuracy(gold, gold) == 1.0
    assert weighted_f1(gold, gold) == 1.0
    flipped = ["no", "yes", "no", "yes"]
    assert accuracy(gold, flipped) == 0.0
    assert weighted_f1(gold, flipped) == 0.0


def test_pearson_matches_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(3, 9))
        arr = rng.normal(size=(n, n))
        got = pearson_row_correlation(arr)
        assert np.allclose(got, got.T)
        assert np.array_equal(np.diag(got), np.ones(n))
        for i in range(n):
            for j in range(i + 1, n):
                want = oracle_pearson(arr[i].tolist(), arr[j].tolist())
                assert abs(got[i, j] - want) < 1e-9
        # independent second oracle
        assert np.allclose(got, np.corrcoef(arr), atol=1e-9)


def test_pearson_exclude_self_drops_both_columns():
    arr = np.arange(25, dtype=np.float64).reshape(5, 5)
    arr[2, 4] = -3.0  # break exact collinearity
    got = pearson_row_correlation(arr, exclude_self=True)
    cols = [k for k in range(5) if k not in (0, 1)]
    want = oracle_pearson(arr[0, cols].tolist(), arr[1, cols].tolist())
    assert abs(got[0, 1] - want) < 1e-9


def test_pearson_zero_variance_warns_and_returns_zero():
    arr = np.ones((3, 3))
    arr[2] = [0.1, 0.5, 0.9]
    with pytest.warns(UserWarning, match="zero variance"):
        got = pearson_row_correlation(arr)
    assert got[0, 1] == 0.0
    assert got[0, 2] == 0.0


def test_pearson_validation():
    with pytest.raises(ValueError, match="too few"):
        pearson_row_correlation(np.ones((2, 2)))
    with pytest.raises(ValueError, match="too few"):
        pearson_row_correlation(np.ones((4, 4)), exclude_self=True)
    with pytest.raises(ValueError, match="square"):
        pearson_row_correlation(np.ones((3, 4)))


# ---------------------------------------------------------------------------
# predict_label and evaluate on a rigged model


VOCAB = build_vocab(["water rain storm flood go"], min_freq=1)


def rigged(favored: dict[str, float], max_tgt_len=6):
    cfg = ModelConfig(vocab_size=VOCAB.size, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                      max_src_len=8, max_tgt_len=max_tgt_len)
    params = init_params(cfg, 0)
    params["out_proj.weight"].data[...] = 0.0
    bias = params["out_proj.bias"].data
    bias[...] = -10.0
    for tok, b in favored.items():
        bias[VOCAB.lookup(tok)] = b
    return params, cfg


def encode_query(text="water rain"):
    return encode_text(text, VOCAB)


def predictions(params, encoded, cfg, vocab=VOCAB):
    """(label, fell back) of each input, as `evaluate` decides them
    through `evaluation.predict_label`."""
    seen = []
    decide = evaluation.predict_label

    def recorded(*args):
        seen.append(decide(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "predict_label", recorded)
        report = evaluate(params, encoded, ["no"] * len(encoded), vocab, cfg)
    assert report.fallback_count == sum(fell_back for _, fell_back in seen)
    return seen


def test_predict_label_clean_decode():
    params, cfg = rigged({"yes": 10.0}, max_tgt_len=1)
    assert predictions(params, [encode_query()], cfg) == [("yes", False)]
    # a label word decides without scores, PADs before it are dropped
    assert predict_label([VOCAB.lookup("no")], None, VOCAB) == ("no", False)
    assert predict_label([PAD, VOCAB.lookup("yes"), EOS], [-9.0, -1.0], VOCAB) == ("yes", False)


def test_predict_label_fallback_tie_is_no():
    # greedy emits a non-label word, and the scoring tie resolves to "no"
    params, cfg = rigged({"water": 10.0})
    assert predictions(params, [encode_query()], cfg) == [("no", True)]
    assert predict_label([VOCAB.lookup("water")], [-2.5, -2.5], VOCAB) == ("no", True)


def test_predict_label_fallback_prefers_higher_score():
    params, cfg = rigged({"water": 10.0, "yes": 2.0, "no": 1.0})
    assert predictions(params, [encode_query()], cfg) == [("yes", True)]
    # scores come in LABELS order
    assert LABELS == ("yes", "no")
    assert predict_label([VOCAB.lookup("water")], [-1.0, -2.0], VOCAB) == ("yes", True)
    assert predict_label([VOCAB.lookup("water")], [-2.0, -1.0], VOCAB) == ("no", True)
    with pytest.raises(ValueError, match="no label scores"):
        predict_label([VOCAB.lookup("water")], None, VOCAB)


def test_predict_label_fallback_encodes_source_once(monkeypatch):
    """`evaluate` encodes each chunk of inputs once and reuses the states
    for greedy decoding and for scoring the fallbacks."""
    params, cfg = rigged({"water": 10.0, "yes": 2.0, "no": 1.0})
    calls = []
    encode_source = model.encode_source

    def counted(*args, **kwargs):
        calls.append(args)
        return encode_source(*args, **kwargs)

    monkeypatch.setattr(model, "encode_source", counted)
    encoded = [encode_query(text) for text in ("water rain", "storm flood go", "go")]
    assert predictions(params, encoded, cfg) == [("yes", True)] * 3
    assert len(calls) == 1  # the three inputs fit one chunk


def greedy_and_scores(params, ids, mask, cfg, accept, targets):
    """Greedy output, joint label scores and each label scored alone, for
    sources ids/mask [B, S]."""
    mem = model.memory(params, model.encode_source(params, ids, mask, cfg), mask, cfg)
    return (model.generate_greedy(params, mem, cfg, accept),
            model.score_sequence(params, mem, targets, cfg).tolist(),
            [model.score_sequence(params, mem, tgt[None], cfg).tolist() for tgt in targets])


def test_right_padding_leaves_decode_score_and_label_unchanged():
    """Extra padding (mask 0) after a [1, S] source changes no greedy
    token, no label score bit and no predicted label."""
    cfg = ModelConfig(vocab_size=VOCAB.size, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                      max_src_len=16, max_tgt_len=4)
    params = init_params(cfg, 5)
    for name in params.names():
        if name.endswith(".weight"):  # large enough that outputs depend on the source
            params[name].data *= 50.0
    targets = np.array([[VOCAB.lookup(lab), EOS] for lab in LABELS])
    accept = [[VOCAB.lookup(lab)] for lab in LABELS]
    for text in ("water rain", "storm flood go"):
        src = encode_query(text)
        ids, mask = pad_sources([src], [0])
        want = greedy_and_scores(params, ids, mask, cfg, accept, targets)
        label = predictions(params, [src], cfg)
        for k in (1, 3, 8):
            ids_k = np.concatenate([ids, np.full((1, k), PAD, dtype=np.int64)], axis=1)
            mask_k = np.concatenate([mask, np.zeros((1, k), dtype=np.float32)], axis=1)
            assert greedy_and_scores(params, ids_k, mask_k, cfg, accept, targets) == want, \
                (text, k)
            # the same source in a chunk padded to a longer one's width
            assert predictions(params, [src, np.full(len(src) + k, EOS)], cfg)[:1] == label, \
                (text, k)


def reference_predict(params, src, vocab, cfg):
    """predict_label without early stop or one-pass scoring: greedy decode
    to the end token or max_tgt_len, decode and parse the whole output,
    else score each label sequence in a pass of its own."""
    ids, mask = pad_sources([src], [0])
    mem = model.memory(params, model.encode_source(params, ids, mask, cfg), mask, cfg)
    out, dec_input = [], [PAD]
    for _ in range(cfg.max_tgt_len):
        logits = model.decode_logits(params, mem, [dec_input], cfg).data
        out.append(int(np.argmax(logits[0, -1])))
        if out[-1] == EOS:
            break
        dec_input.append(out[-1])
    label = parse_label(decode(out, vocab))
    if label is not None:
        return label, False
    scores = {}
    for lab in LABELS:
        tgt = np.array([vocab.lookup(lab), EOS])
        logits = model.decode_logits(params, mem, shift_right(tgt[None]), cfg).data[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        scores[lab] = float(logp[np.arange(len(tgt)), tgt].sum())
    return ("yes" if scores["yes"] > scores["no"] else "no"), True


def untrained(vocab, seed, max_tgt_len=6, weight_scale=1.0):
    cfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                      max_src_len=8, max_tgt_len=max_tgt_len)
    params = init_params(cfg, seed)
    for name in params.names():
        if name.endswith(".weight"):
            params[name].data *= weight_scale
    return params, cfg


def test_predict_label_matches_full_decode_reference_on_untrained_models():
    texts = ("water rain", "storm flood go", "go go water", "flood")
    encoded = [encode_query(text) for text in texts]
    outcomes = []
    for seed in range(6):
        for scale in (1.0, 30.0):
            params, cfg = untrained(VOCAB, seed, weight_scale=scale)
            # the four inputs, of three lengths, run as one padded chunk
            got = predictions(params, encoded, cfg)
            assert got == [reference_predict(params, src, VOCAB, cfg) for src in encoded], \
                (seed, scale)
            outcomes.extend(got)
    # these models emit no label word, so every prediction falls back (the
    # scripted outputs below cover greedy labels); both labels win somewhere
    assert {label for label, _ in outcomes} == {"yes", "no"}
    assert all(fell_back for _, fell_back in outcomes)


NO_LESS_VOCAB = build_vocab(["water rain storm flood go yes"], min_freq=1, forced=frozenset())


@pytest.mark.parametrize("vocab, script, max_tgt_len, want", [
    (VOCAB, [PAD, "yes", EOS], 6, ("yes", False)),
    (VOCAB, ["no", PAD, PAD], 3, ("no", False)),
    (VOCAB, [PAD, "no", "water"], 6, None),
    (VOCAB, ["yes", "yes"], 6, None),
    (VOCAB, ["yes"], 1, ("yes", False)),
    (VOCAB, ["water", EOS], 1, None),
    (NO_LESS_VOCAB, [UNK, EOS], 6, None),
    (NO_LESS_VOCAB, ["yes", EOS], 6, ("yes", False)),
], ids=["pad_before_label", "label_then_pads", "label_then_word", "label_twice",
        "max_len_1_label", "max_len_1_word", "missing_label_is_unk", "missing_other_label"])
def test_predict_label_matches_full_decode_reference_on_scripted_outputs(
        monkeypatch, vocab, script, max_tgt_len, want):
    """Greedy outputs built token by token: `want` None means the output
    is no label and the prediction falls back to scoring."""
    ids = [vocab.lookup(tok) if isinstance(tok, str) else tok for tok in script]
    monkeypatch.setattr(model, "decode_logits", scripted_decoder(model.decode_logits, ids))
    encoded = [encode_text(text, vocab) for text in ("water rain", "storm flood go", "go")]
    for seed in range(3):
        params, cfg = untrained(vocab, seed, max_tgt_len)
        for got, src in zip(predictions(params, encoded, cfg, vocab), encoded):
            assert got == reference_predict(params, src, vocab, cfg)
            assert got[1] == (want is None)
            if want is not None:
                assert got == want


def test_evaluate_projects_the_decoder_memory_once_per_chunk(monkeypatch):
    """One chunk whose greedy decode takes two passes ("yes", then a word
    that rules every label out) and then falls back to scoring: each
    decoder layer's cross-attention keys and values are projected once,
    from the chunk's encoder states. Greedy decoding reuses them, and
    scoring repeats their rows instead of projecting L copies of each
    source."""
    passes = []
    decode_logits = model.decode_logits

    def counted(params, mem, dec_input, *args, **kwargs):
        passes.append(len(mem.mask))
        return decode_logits(params, mem, dec_input, *args, **kwargs)

    monkeypatch.setattr(model, "decode_logits", scripted_decoder(
        counted, [VOCAB.lookup("yes"), VOCAB.lookup("water")]))
    products = []
    linear = T.linear

    def recorded(x, w, b=None):
        products.append((w, x.data.shape))
        return linear(x, w, b)

    monkeypatch.setattr(T, "linear", recorded)
    cfg = ModelConfig(vocab_size=VOCAB.size, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=2, dropout=0.0,
                      max_src_len=8, max_tgt_len=4)
    params = init_params(cfg, 0)
    encoded = [encode_query(text) for text in ("water rain", "storm flood go", "go")]
    assert all(fell_back for _, fell_back in predictions(params, encoded, cfg))
    n = len(encoded)
    # two greedy passes over the chunk, then one scoring pass over both
    # labels of each input
    assert passes == [n, n, 2 * n]
    width = max(len(src) for src in encoded)
    for layer in range(cfg.n_dec_layers):
        for proj in ("wk", "wv"):
            w = params[f"dec.{layer}.cross_attn.{proj}.weight"]
            shapes = [shape for weight, shape in products if weight is w]
            assert shapes == [(n, width, cfg.d_model)], (layer, proj)


def test_evaluate_does_not_depend_on_batch_composition(monkeypatch):
    """On 16-dim models, a mixed-length set evaluated as one padded chunk
    gets the labels and fallback flags of each input evaluated alone.
    Sources with an even number of real tokens are scripted to answer
    "yes" and stop; the others decode freely and fall back to scoring."""
    monkeypatch.setattr(model, "decode_logits", scripted_decoder(
        model.decode_logits, [VOCAB.lookup("yes"), EOS], rows=lambda m: m.sum(axis=1) % 2 == 0))
    texts = ("water rain", "storm flood go water", "go", "flood storm", "rain go flood",
             "water water rain go storm flood", "storm")
    encoded = [encode_query(text) for text in texts]
    assert len({len(ids) for ids in encoded}) >= 4
    outcomes = set()
    for seed in range(4):
        cfg = ModelConfig(vocab_size=VOCAB.size, d_model=16, n_heads=2, d_ff=32,
                          n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                          max_src_len=8, max_tgt_len=4)
        params = init_params(cfg, seed)
        for name in params.names():
            if name.endswith(".weight"):  # large enough that outputs depend on the source
                params[name].data *= 30.0
        together = predictions(params, encoded, cfg)
        assert together == [predictions(params, [src], cfg)[0] for src in encoded], seed
        # and in reverse input order, which moves every row within the chunk
        assert predictions(params, encoded[::-1], cfg) == together[::-1], seed
        outcomes.update(together)
    assert {("yes", False), ("yes", True), ("no", True)} <= outcomes


def test_evaluate_report_shape():
    params, cfg = rigged({"no": 10.0}, max_tgt_len=1)
    encoded = [encode_query("water rain"), encode_query("storm flood"),
               encode_query("flood go")]
    gold = ["no", "yes", "no"]
    report = evaluate(params, encoded, gold, VOCAB, cfg)
    assert report.n == 3
    assert report.accuracy == pytest.approx(2 / 3)
    assert report.fallback_count == 0
    assert report.confusion[("yes", "no")] == 1
    assert report.confusion[("no", "no")] == 2
    doc = report.to_dict()
    assert doc["confusion"] == {"no->no": 2, "yes->no": 1}
    assert doc["per_class"]["no"]["support"] == 2
    assert doc["fallback_rate"] == 0.0
    with pytest.raises(ValueError, match="gold labels"):
        evaluate(params, encoded, gold[:2], VOCAB, cfg)
    with pytest.raises(ValueError, match="empty"):
        evaluate(params, [], [], VOCAB, cfg)


# ---------------------------------------------------------------------------
# Adaptation matrix


def filled_matrix(events=("a", "b", "c")):
    m = AdaptationMatrix(events=tuple(events))
    vals = {("a", "a"): 0.9617, ("a", "b"): 0.8, ("a", "c"): 0.5,
            ("b", "a"): 0.75, ("b", "b"): 0.95, ("b", "c"): 0.45,
            ("c", "a"): 0.52, ("c", "b"): 0.48, ("c", "c"): 0.99}
    for (s, t), v in vals.items():
        if s in events and t in events:
            m.set_cell(s, t, v)
    return m


def test_matrix_validation():
    with pytest.raises(ValueError, match="at least two"):
        AdaptationMatrix(events=("solo",))
    with pytest.raises(ValueError, match="duplicate"):
        AdaptationMatrix(events=("a", "a"))
    with pytest.raises(ValueError, match="diagonal_mode"):
        AdaptationMatrix(events=("a", "b"), diagonal_mode="average")


def test_matrix_cell_rules():
    m = AdaptationMatrix(events=("a", "b"))
    with pytest.raises(KeyError, match="outside events"):
        m.set_cell("a", "zz", 0.5)
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        m.set_cell("a", "b", 1.5)
    m.set_cell("a", "b", 0.5, info={"steps": 12})
    assert m.provenance["a->b"] == {"value": 0.5, "steps": 12}
    assert not m.complete


def test_matrix_to_array_order():
    m = filled_matrix()
    arr = m.to_array()
    assert arr.shape == (3, 3)
    assert arr[0, 1] == 0.8
    assert arr[2, 0] == 0.52
    assert m.complete


def test_matrix_csv_golden(tmp_path):
    m = AdaptationMatrix(events=("a", "b"))
    m.set_cell("a", "a", 0.9617)
    m.set_cell("a", "b", 0.8)
    m.set_cell("b", "a", 0.25)
    m.set_cell("b", "b", 1.0)
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, m)
    assert path.read_text(encoding="utf-8") == (
        "source\\target,a,b\n"
        "a,0.9617,0.8000\n"
        "b,0.2500,1.0000\n"
    )


def test_correlation_csv_golden(tmp_path):
    corr = np.array([[1.0, -0.5], [-0.5, 1.0]])
    path = tmp_path / "corr.csv"
    write_correlation_csv(path, ("a", "b"), corr)
    assert path.read_text(encoding="utf-8") == (
        "row\\row,a,b\n"
        "a,1.0000,-0.5000\n"
        "b,-0.5000,1.0000\n"
    )


def test_matrix_provenance_json(tmp_path):
    m = filled_matrix(("a", "b"))
    path = tmp_path / "prov.json"
    write_matrix_provenance(path, m)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["events"] == ["a", "b"]
    assert doc["diagonal_mode"] == "standard_split"
    assert doc["complete"]
    assert doc["cells"]["a->b"]["value"] == 0.8


# ---------------------------------------------------------------------------
# Experiment planning


def event_splits(names):
    splits = {}
    for name in names:
        train = [make_record(i, event_id=name, label="yes" if i % 2 else "no")
                 for i in range(4)]
        test = [make_record(100 + i, event_id=name, label="yes" if i % 2 else "no")
                for i in range(2)]
        splits[name] = EventSplits(train=train, test=test)
    return splits


def test_plan_leave_one_out_shape():
    names = ["ev_c", "ev_a", "ev_b"]
    splits = event_splits(names)
    plans = plan_leave_one_out(names, "postq", splits, seed=0)
    assert [p.target_event for p in plans] == ["ev_a", "ev_b", "ev_c"]
    for plan in plans:
        assert len(plan.source_events) == 2
        assert plan.target_event not in plan.source_events
        assert len(plan.source_dataset) == 8  # two events pooled
    with pytest.raises(ValueError, match="at least two"):
        plan_leave_one_out(["only"], "postq", splits, seed=0)


def test_plan_leave_one_out_deterministic():
    splits = event_splits(["ev_a", "ev_b", "ev_c"])
    a = plan_leave_one_out(["ev_a", "ev_b", "ev_c"], "postq", splits, seed=5)
    b = plan_leave_one_out(["ev_c", "ev_b", "ev_a"], "postq", splits, seed=5)
    for pa, pb in zip(a, b):
        assert pa.task_id == pb.task_id
        assert [r.id for r in pa.source_dataset] == [r.id for r in pb.source_dataset]


def test_loo_table_mean_row():
    def report(acc, f1, n):
        return EvalReport(n=n, accuracy=acc, weighted_f1=f1, per_class={},
                          confusion={}, fallback_count=0)

    results = {"b": report(0.9, 0.88, 10), "a": report(0.7, 0.66, 20)}
    table = loo_table(results)
    assert list(table["per_target"]) == ["a", "b"]
    assert table["per_target"]["a"]["n"] == 20
    assert table["mean"]["accuracy"] == pytest.approx(0.8)
    assert table["mean"]["weighted_f1"] == pytest.approx(0.77)
    assert table["mean"]["targets"] == 2
    with pytest.raises(ValueError, match="no leave-one-out"):
        loo_table({})


def test_class_scores_zero_denominators():
    gold = ["yes", "yes"]
    pred = ["no", "no"]
    scores = class_scores(gold, pred)
    assert scores["yes"] == ClassScores(0.0, 0.0, 0.0, 2)
