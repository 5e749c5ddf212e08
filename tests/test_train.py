"""Optimizer, LR schedule, loop determinism, resume, history files."""

import numpy as np
import pytest

import crisisadapt.tensor as T
from crisisadapt.errors import ConfigError
from crisisadapt.model import ModelConfig, ParameterStore, example_loss, init_params
from crisisadapt.rng import mix_seed
from crisisadapt.tokenizer import EOS
from crisisadapt.train import (
    AdamState,
    StepRecord,
    TrainConfig,
    chunk_slots,
    lr_at,
    read_history,
    step_gradients,
    steps_per_epoch,
    train,
    write_history,
)

MICRO = ModelConfig(vocab_size=8, d_model=4, n_heads=1, d_ff=8,
                    n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                    max_src_len=8, max_tgt_len=4)


def micro_examples(n=8, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(n):
        src = rng.integers(3, MICRO.vocab_size, size=4).astype(np.int64)
        tgt = np.array([int(rng.integers(3, MICRO.vocab_size)), EOS], dtype=np.int64)
        out.append((src, np.ones(4, dtype=np.float32), tgt))
    return out


def snapshot(params: ParameterStore) -> dict[str, np.ndarray]:
    return {n: a.copy() for n, a in params.arrays().items()}


# ---------------------------------------------------------------------------
# Learning-rate schedule


def test_lr_schedule_exact_values():
    assert lr_at(0, 100) == 0.0
    assert lr_at(10, 100) == 5e-5           # peak right at warmup end
    assert lr_at(55, 100) == 2.5e-5         # halfway down the decay
    assert lr_at(100, 100) == 0.0
    assert lr_at(5, 100) == pytest.approx(2.5e-5)   # halfway up the warmup
    assert lr_at(30, 100, peak_lr=1e-3) == pytest.approx(1e-3 * 70 / 90)


def test_lr_schedule_is_piecewise_linear():
    total, ratio, peak = 40, 0.25, 8e-4
    warmup = 10
    for s in range(warmup):
        assert lr_at(s, total, ratio, peak) == pytest.approx(peak * s / warmup)
    for s in range(warmup, total + 1):
        assert lr_at(s, total, ratio, peak) == pytest.approx(
            peak * (total - s) / (total - warmup))


def test_lr_schedule_validation():
    with pytest.raises(ConfigError, match="covers the whole run"):
        lr_at(0, 10, warmup_ratio=0.95)
    with pytest.raises(ConfigError, match="total_steps"):
        lr_at(0, 0)
    with pytest.raises(ConfigError, match="outside"):
        lr_at(-1, 100)
    with pytest.raises(ConfigError, match="outside"):
        lr_at(101, 100)


def test_train_config_validation():
    cases = [
        (dict(peak_lr=0.0), "peak_lr"),
        (dict(peak_lr=-1e-5), "peak_lr"),
        (dict(warmup_ratio=1.0), "warmup_ratio"),
        (dict(effective_batch=0), "effective_batch"),
        (dict(epochs=0), "epochs"),
        (dict(beta1=0.0), "betas"),
        (dict(beta2=1.0), "betas"),
        (dict(adam_eps=0.0), "adam_eps"),
        (dict(weight_decay=-0.1), "weight_decay"),
        (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
        (dict(seed="x"), "seed must be an integer, got 'x'"),
        (dict(effective_batch=True), "effective_batch must be an integer"),
        (dict(peak_lr="1e-3"), "peak_lr must be a number"),
        (dict(weight_decay=False), "weight_decay must be a number"),
        (dict(adam_eps=float("inf")), "adam_eps must be finite, got inf"),
        (dict(peak_lr=float("nan")), "peak_lr must be finite, got nan"),
        (dict(weight_decay=float("nan")), "weight_decay must be finite, got nan"),
        # integers past the float range or past 64 bits
        (dict(peak_lr=10**400), "peak_lr must be finite, got an integer of 1329 bits"),
        (dict(epochs=10**400), "epochs must fit in 64 bits, got an integer of 1329 bits"),
        (dict(seed=2**64), "seed must fit in 64 bits"),
        (dict(seed=-(2**63) - 1), "seed must fit in 64 bits"),
    ]
    for overrides, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            TrainConfig(**overrides)
    cfg = TrainConfig()
    assert (cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay) == (
        0.9, 0.999, 1e-8, 0.0)
    # numpy integers count as integers, and an int is a number
    assert TrainConfig(seed=np.int64(3), epochs=np.int32(2), peak_lr=1).seed == 3
    # plan seeds are unsigned 64-bit
    assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_steps_per_epoch_rounds_up():
    assert steps_per_epoch(16, 16) == 1
    assert steps_per_epoch(17, 16) == 2
    assert steps_per_epoch(3, 16) == 1


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_hand_formula():
    w = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    params = ParameterStore({"w": T.Tensor(w.copy(), requires_grad=True, name="w")})
    state = AdamState(params)
    g = np.array([0.3, -0.1, 0.02], dtype=np.float32)
    cfg = TrainConfig(peak_lr=1e-3)
    lr = 1e-3
    state.apply(params, {"w": g}, lr, cfg)
    # at t=1 the bias corrections cancel the moment decay exactly:
    # m/c1 = g and v/c2 = g^2, so the update is lr * g / (|g| + eps)
    want = w - lr * g / (np.abs(g) + cfg.adam_eps)
    np.testing.assert_allclose(params["w"].data, want, rtol=1e-6)
    assert state.t == 1


def test_adam_moments_update_in_place():
    params = ParameterStore({"w": T.Tensor(np.zeros(2, np.float32),
                                           requires_grad=True, name="w")})
    state = AdamState(params)
    m0, v0 = state.m["w"], state.v["w"]
    state.apply(params, {"w": np.ones(2, np.float32)}, 1e-4, TrainConfig())
    state.apply(params, {"w": np.ones(2, np.float32)}, 1e-4, TrainConfig())
    assert state.m["w"] is m0 and state.v["w"] is v0
    assert state.t == 2
    np.testing.assert_allclose(m0, 1.0 - 0.9 ** 2, rtol=1e-6)


def test_weight_decay_shrinks_weights():
    w = np.array([10.0], dtype=np.float32)
    params = ParameterStore({"w": T.Tensor(w.copy(), requires_grad=True, name="w")})
    state = AdamState(params)
    cfg = TrainConfig(weight_decay=0.1)
    state.apply(params, {"w": np.zeros(1, np.float32)}, 1e-2, cfg)
    # zero gradient: only the decay term moves the weight
    np.testing.assert_allclose(params["w"].data, w - 1e-2 * 0.1 * w, rtol=1e-6)


# ---------------------------------------------------------------------------
# Training loop


def run_once(tcfg, examples=None, seed=0, **kwargs):
    params = init_params(MICRO, seed)
    result = train(params, examples or micro_examples(), MICRO, tcfg, **kwargs)
    return params, result


def test_two_identical_runs_are_bitwise_equal():
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=3, seed=2)
    p1, r1 = run_once(tcfg)
    p2, r2 = run_once(tcfg)
    assert [(h.step, h.lr, h.loss) for h in r1.history] == \
           [(h.step, h.lr, h.loss) for h in r2.history]
    for name in p1.names():
        assert np.array_equal(p1[name].data, p2[name].data), name


def test_seed_changes_the_run():
    p1, r1 = run_once(TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=2, seed=2))
    p2, r2 = run_once(TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=2, seed=3))
    assert [h.loss for h in r1.history] != [h.loss for h in r2.history]


def test_step_count_and_lr_in_history():
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=3, seed=1)
    examples = micro_examples(6)  # 2 steps per epoch
    params, result = run_once(tcfg, examples)
    assert result.steps_per_epoch == 2
    assert result.total_steps == 6
    assert result.final_step == 6
    assert [h.step for h in result.history] == list(range(6))
    for h in result.history:
        assert h.lr == lr_at(h.step, 6, tcfg.warmup_ratio, tcfg.peak_lr)
    assert not result.stopped_early


def test_resume_matches_straight_run():
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=3, seed=4)
    examples = micro_examples()
    straight, r_straight = run_once(tcfg, examples)

    resumed = init_params(MICRO, 0)
    first = train(resumed, examples, MICRO, tcfg, max_steps=3)
    assert first.final_step == 3
    second = train(resumed, examples, MICRO, tcfg,
                   start_step=3, optimizer=first.optimizer)
    assert second.final_step == r_straight.final_step
    joined = [h.loss for h in first.history] + [h.loss for h in second.history]
    assert joined == [h.loss for h in r_straight.history]
    for name in straight.names():
        assert np.array_equal(straight[name].data, resumed[name].data), name


def test_resume_requires_matching_optimizer():
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=2)
    examples = micro_examples()
    with pytest.raises(ConfigError, match="optimizer state"):
        train(init_params(MICRO, 0), examples, MICRO, tcfg, start_step=2)
    params = init_params(MICRO, 0)
    stale = AdamState(params)  # t=0 but claiming start_step 2
    with pytest.raises(ConfigError, match="optimizer has taken"):
        train(params, examples, MICRO, tcfg, start_step=2, optimizer=stale)
    with pytest.raises(ConfigError, match="start_step"):
        train(params, examples, MICRO, tcfg, start_step=99)
    with pytest.raises(ValueError, match="no training examples"):
        train(params, [], MICRO, tcfg)


def test_misaligned_example_mask_rejected():
    examples = micro_examples(4)
    src, mask, tgt = examples[2]
    examples[2] = (src, mask[:1], tgt)  # would broadcast silently if padded as is
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=2)
    with pytest.raises(ValueError, match="example 2: source ids/mask lengths differ"):
        train(init_params(MICRO, 0), examples, MICRO, tcfg)


def test_warmup_covering_run_fails_fast():
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=16, epochs=1, warmup_ratio=0.99)
    params = init_params(MICRO, 0)
    before = snapshot(params)
    with pytest.raises(ConfigError, match="covers the whole run"):
        train(params, micro_examples(4), MICRO, tcfg)
    for name, arr in before.items():
        assert np.array_equal(params[name].data, arr)  # nothing was touched


def test_on_epoch_end_early_stop():
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=5, seed=1)
    seen = []

    def stop_after_second(epoch, params):
        seen.append(epoch)
        return epoch == 1

    params, result = run_once(tcfg, on_epoch_end=stop_after_second)
    assert seen == [0, 1]
    assert result.stopped_early
    assert result.final_step == 2 * result.steps_per_epoch


def test_chunked_step_matches_per_example_mean_fp64(monkeypatch):
    cfg = ModelConfig(vocab_size=12, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, dropout=0.3,
                      max_src_len=64, max_tgt_len=4)
    params = init_params(cfg, 3)
    for _, t in params.items():
        t.data = t.data.astype(np.float64)
    rng = np.random.Generator(np.random.PCG64(9))
    examples = []
    for n in (40, 17, 55, 23, 60, 31, 48, 12, 64, 36):
        src = rng.integers(3, cfg.vocab_size, size=n).astype(np.int64)
        tgt = np.array([int(rng.integers(3, cfg.vocab_size)), EOS], dtype=np.int64)
        examples.append((src, np.ones(n, dtype=np.float32), tgt))
    # one example carries its own trailing padding, one a longer target
    src, mask, tgt = examples[1]
    examples[1] = (np.concatenate([src, [0] * 5]), np.concatenate([mask, np.zeros(5, np.float32)]),
                   tgt)
    examples[3] = (examples[3][0], examples[3][1], np.array([5, 6, EOS], dtype=np.int64))
    slots = [7, 2, 9, 0, 4, 1, 8, 3, 6, 5]
    # 256 tokens at d_model 8, so that this step splits into several chunks
    monkeypatch.setattr("crisisadapt.train._ACTIVATION_BUDGET", 256 * cfg.d_model)
    assert len(chunk_slots(examples, slots, cfg.d_model)) >= 3
    seed, epoch = 11, 2

    loss, grads = step_gradients(params, examples, slots, cfg, seed, epoch)

    ref_loss = 0.0
    ref_grads = {name: np.zeros_like(t.data) for name, t in params.items()}
    for slot in slots:
        src, mask, tgt = examples[slot]
        drop = np.random.Generator(np.random.PCG64(mix_seed(seed, "dropout", epoch, slot)))
        with T.Tape() as tape:
            one = example_loss(params, src[None], mask[None], tgt[None], cfg, rng=[drop])
        g = T.backward(tape, one)
        for name, t in params.items():
            ref_grads[name] += g.of(t) / len(slots)
        ref_loss += float(one.data) / len(slots)
    assert abs(loss - ref_loss) <= 1e-10
    for name, want in ref_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=1e-10, atol=1e-10, err_msg=name)


def test_training_reduces_loss():
    tcfg = TrainConfig(peak_lr=1e-2, effective_batch=8, epochs=120, seed=0)
    examples = [(np.array([3, 4, 5], np.int64), np.ones(3, np.float32),
                 np.array([6, EOS], np.int64))] * 8
    params, result = run_once(tcfg, examples)
    assert result.history[-1].loss < result.history[0].loss * 0.1


# ---------------------------------------------------------------------------
# History files


def test_history_round_trip(tmp_path):
    records = [
        StepRecord(step=0, lr=0.0, loss=3.9120230674743652),
        StepRecord(step=1, lr=2.5e-05, loss=3.881612),
        StepRecord(step=2, lr=1.0 / 3.0, loss=1e-300),
    ]
    path = tmp_path / "history.csv"
    write_history(path, records)
    assert read_history(path) == records  # repr() round-trips floats exactly


def test_history_rejects_bad_header(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("step,loss\n0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_history(path)
