"""Optimizer, LR schedule, loop determinism, resume, history files."""

import mmap
import re
import weakref

import numpy as np
import pytest

import crisisadapt.tensor as T
from crisisadapt.errors import ConfigError, NonFiniteError
from crisisadapt.model import ModelConfig, ParameterStore, example_loss, init_params, named_config
from crisisadapt.rng import mix_seed
from crisisadapt.tokenizer import EOS
from crisisadapt.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    StepRecord,
    TrainConfig,
    chunk_slots,
    lr_at,
    pad_sources,
    step_gradients,
    steps_per_epoch,
    train,
    write_history,
)

from conftest import assert_views_of, leaf_grads

MICRO = ModelConfig(vocab_size=8, d_model=4, n_heads=1, d_ff=8,
                    n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                    max_src_len=8, max_tgt_len=4)


def micro_examples(n=8, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(n):
        src = rng.integers(3, MICRO.vocab_size, size=4).astype(np.int64)
        tgt = np.array([int(rng.integers(3, MICRO.vocab_size)), EOS], dtype=np.int64)
        out.append((src, tgt))
    return out


def snapshot(params: ParameterStore) -> dict[str, np.ndarray]:
    return {n: a.copy() for n, a in params.arrays().items()}


# ---------------------------------------------------------------------------
# Learning-rate schedule


def test_lr_schedule_exact_values():
    assert lr_at(0, 100, 0.1, 5e-5) == 0.0
    assert lr_at(10, 100, 0.1, 5e-5) == 5e-5  # peak right at warmup end
    assert lr_at(55, 100, 0.1, 5e-5) == 2.5e-5  # halfway down the decay
    assert lr_at(100, 100, 0.1, 5e-5) == 0.0
    assert lr_at(5, 100, 0.1, 5e-5) == pytest.approx(2.5e-5)  # halfway up the warmup
    assert lr_at(30, 100, 0.1, 1e-3) == pytest.approx(1e-3 * 70 / 90)


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
        lr_at(0, 10, 0.95, 5e-5)
    with pytest.raises(ConfigError, match="total_steps"):
        lr_at(0, 0, 0.1, 5e-5)
    with pytest.raises(ConfigError, match="outside"):
        lr_at(-1, 100, 0.1, 5e-5)
    with pytest.raises(ConfigError, match="outside"):
        lr_at(101, 100, 0.1, 5e-5)


def test_train_config_validation():
    cases = [
        (dict(peak_lr=0.0), "peak_lr"),
        (dict(peak_lr=-1e-5), "peak_lr"),
        (dict(warmup_ratio=1.0), "warmup_ratio"),
        (dict(effective_batch=0), "effective_batch"),
        (dict(epochs=0), "epochs"),
        (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
        (dict(seed="x"), "seed must be an integer, got 'x'"),
        (dict(effective_batch=True), "effective_batch must be an integer"),
        (dict(peak_lr="1e-3"), "peak_lr must be a number"),
        (dict(warmup_ratio=False), "warmup_ratio must be a number"),
        (dict(peak_lr=float("inf")), "peak_lr must be finite, got inf"),
        (dict(peak_lr=float("nan")), "peak_lr must be finite, got nan"),
        (dict(warmup_ratio=float("nan")), "warmup_ratio must be finite, got nan"),
        # integers past the float range or past 64 bits
        (dict(peak_lr=10**400), "peak_lr must be finite, got an integer of 1329 bits"),
        (dict(epochs=10**400), "epochs must fit in 64 bits, got an integer of 1329 bits"),
        (dict(seed=2**64), "seed must fit in 64 bits"),
        (dict(seed=-(2**63) - 1), "seed must fit in 64 bits"),
    ]
    for overrides, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            TrainConfig(**overrides)
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
    lr = 1e-3
    state.apply(params, g, lr)
    # at t=1 the bias corrections cancel the moment decay exactly:
    # m/c1 = g and v/c2 = g^2, so the update is lr * g / (|g| + eps)
    want = w - lr * g / (np.abs(g) + ADAM_EPS)
    np.testing.assert_allclose(params["w"].data, want, rtol=1e-6)
    assert state.t == 1


def test_adam_moments_update_in_place():
    params = ParameterStore({"w": T.Tensor(np.zeros(2, np.float32),
                                           requires_grad=True, name="w")})
    state = AdamState(params)
    m0, v0 = state.m["w"], state.v["w"]
    state.apply(params, np.ones(2, np.float32), 1e-4)
    state.apply(params, np.ones(2, np.float32), 1e-4)
    assert state.m["w"] is m0 and state.v["w"] is v0
    assert np.shares_memory(m0, state.m_flat) and np.shares_memory(v0, state.v_flat)
    assert state.t == 2
    np.testing.assert_allclose(m0, 1.0 - 0.9 ** 2, rtol=1e-6)


def reference_adam(arrays, m, v, grads, t, lr):
    """Adam as one numpy expression per tensor, the form the blocked step
    must round exactly like."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in arrays.items():
        g = grads[name]
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)


def test_blocked_adam_matches_per_tensor_reference_bitwise(monkeypatch):
    # 1000-element blocks split the 64 x 64 projections and the embedding
    monkeypatch.setattr("crisisadapt.train.ADAM_BLOCK", 1000)
    params = init_params(named_config("tiny", vocab_size=40), 8)
    ref = snapshot(params)
    ref_m = {n: np.zeros_like(a) for n, a in ref.items()}
    ref_v = {n: np.zeros_like(a) for n, a in ref.items()}
    state = AdamState(params)
    rng = np.random.Generator(np.random.PCG64(4))
    for lr in (1e-3, 3e-3, 2e-4):
        grad = rng.normal(0.0, 0.05, size=params.flat.shape).astype(np.float32)
        state.apply(params, grad, lr)
        reference_adam(ref, ref_m, ref_v, params.views(grad), state.t, lr)
    assert state.t == 3
    for name, want in ref.items():
        assert np.array_equal(params[name].data, want), name
        assert np.array_equal(state.m[name], ref_m[name]), name
        assert np.array_equal(state.v[name], ref_v[name]), name


def test_adam_moments_are_views_into_flat_vectors():
    params = init_params(MICRO, 0)
    state = AdamState(params)
    for moments, flat in ((state.m, state.m_flat), (state.v, state.v_flat)):
        assert list(moments) == params.names()
        assert_views_of(moments, flat, params.names())
    with pytest.raises(ValueError, match="gradient of shape"):
        state.apply(params, np.zeros(3, np.float32), 1e-3)
    assert state.t == 0


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


def test_resume_matches_straight_run():
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=3, seed=4)
    examples = micro_examples()
    straight, r_straight = run_once(tcfg, examples)

    resumed = init_params(MICRO, 0)
    first = train(resumed, examples, MICRO, tcfg, max_steps=3)
    assert first.final_step == 3
    second = train(resumed, examples, MICRO, tcfg, optimizer=first.optimizer)
    assert second.final_step == r_straight.final_step
    joined = [h.loss for h in first.history] + [h.loss for h in second.history]
    assert joined == [h.loss for h in r_straight.history]
    for name in straight.names():
        assert np.array_equal(straight[name].data, resumed[name].data), name


def test_resume_requires_matching_optimizer():
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=2)
    examples = micro_examples()
    params = init_params(MICRO, 0)
    past_the_end = AdamState(params)
    past_the_end.t = 99  # the run has 2 epochs x 2 steps
    with pytest.raises(ConfigError, match=r"optimizer has taken 99 steps, outside \[0, 4\]"):
        train(params, examples, MICRO, tcfg, optimizer=past_the_end)
    with pytest.raises(ValueError, match="no training examples"):
        train(params, [], MICRO, tcfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # training warns of no overflow
def test_diverging_loss_fails_fast():
    """A learning rate of 1e30 drives the loss to NaN within a few steps;
    training stops there, naming the step, the epoch and the chunk."""
    cfg = ModelConfig(vocab_size=8, d_model=16, n_heads=2, d_ff=32, n_enc_layers=1,
                      n_dec_layers=1, dropout=0.0, max_src_len=8, max_tgt_len=4)
    tcfg = TrainConfig(peak_lr=1e30, effective_batch=4, epochs=4)
    seen = []
    with pytest.raises(NonFiniteError, match=r"loss (nan|inf) over the chunk of slots \[") as err:
        train(init_params(cfg, 0), micro_examples(8), cfg, tcfg,
              on_epoch_end=lambda epoch, params: seen.append(epoch))
    step, epoch = map(int, re.match(r"step (\d+), epoch (\d+): ", str(err.value)).groups())
    # two steps per epoch; the epochs before the failing one completed
    assert step >= 1 and epoch == step // 2 and seen == list(range(epoch))


def test_non_finite_gradient_fails_fast_before_the_update(monkeypatch):
    params = init_params(MICRO, 0)
    before = snapshot(params)

    def inf_gradients(params, *args):
        grad = args[-2]
        grad.fill(0)
        params.views(grad)["embed.weight"][3, 1] = np.inf
        return 1.5

    monkeypatch.setattr("crisisadapt.train.step_gradients", inf_gradients)
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=2)
    with pytest.raises(NonFiniteError, match=r"^step 0, epoch 0: gradient norm is not finite"):
        train(params, micro_examples(8), MICRO, tcfg)
    for name, arr in before.items():
        assert np.array_equal(params[name].data, arr)


def test_warmup_covering_run_fails_fast():
    tcfg = TrainConfig(peak_lr=1e-3, effective_batch=16, epochs=1, warmup_ratio=0.99)
    params = init_params(MICRO, 0)
    before = snapshot(params)
    with pytest.raises(ConfigError, match="covers the whole run"):
        train(params, micro_examples(4), MICRO, tcfg)
    for name, arr in before.items():
        assert np.array_equal(params[name].data, arr)  # nothing was touched


def test_chunked_step_matches_per_example_mean_fp64(monkeypatch):
    cfg = ModelConfig(vocab_size=12, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, dropout=0.3,
                      max_src_len=64, max_tgt_len=4)
    params = ParameterStore({name: T.Tensor(a.astype(np.float64), requires_grad=True, name=name)
                             for name, a in init_params(cfg, 3).arrays().items()})
    rng = np.random.Generator(np.random.PCG64(9))
    examples = []
    for n in (40, 17, 55, 23, 60, 31, 48, 12, 64, 36):
        src = rng.integers(3, cfg.vocab_size, size=n).astype(np.int64)
        tgt = np.array([int(rng.integers(3, cfg.vocab_size)), EOS], dtype=np.int64)
        examples.append((src, tgt))
    # one example has a longer target
    examples[3] = (examples[3][0], np.array([5, 6, EOS], dtype=np.int64))
    slots = [7, 2, 9, 0, 4, 1, 8, 3, 6, 5]
    # 256 tokens at d_model 8, so that this step splits into several chunks
    monkeypatch.setattr("crisisadapt.train._ACTIVATION_BUDGET", 256 * cfg.d_model)
    assert len(chunk_slots(examples, slots, cfg.d_model)) >= 3
    seed, epoch = 11, 2

    flat = np.full_like(params.flat, np.nan)  # every element is overwritten
    loss = step_gradients(params, examples, slots, cfg, seed, epoch, flat, T.Tape())
    grads = params.views(flat)

    ref_loss = 0.0
    ref_grads = {name: np.zeros_like(a) for name, a in params.arrays().items()}
    leaves = [params[name] for name in ref_grads]
    for slot in slots:
        src, tgt = examples[slot]
        drop = np.random.Generator(np.random.PCG64(mix_seed(seed, "dropout", epoch, slot)))
        with T.Tape() as tape:
            one = example_loss(params, src[None], tgt[None], cfg, rng=[drop])
        for name, g in zip(ref_grads, leaf_grads(tape, one, leaves)):
            ref_grads[name] += g / len(slots)
        ref_loss += float(one.data) / len(slots)
    assert abs(loss - ref_loss) <= 1e-10
    for name, want in ref_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=1e-10, atol=1e-10, err_msg=name)


def test_steps_on_one_tape_give_the_gradient_of_a_fresh_tape_per_chunk_byte_for_byte(
        monkeypatch):
    """One tape over steps of several chunks each, with dropout, gives each
    step's flat gradient the bytes of a fresh tape per chunk running
    example_loss and backward over the same chunks."""
    cfg = ModelConfig(vocab_size=12, d_model=16, n_heads=2, d_ff=32,
                      n_enc_layers=1, n_dec_layers=1, dropout=0.1,
                      max_src_len=64, max_tgt_len=4)
    params = init_params(cfg, 4)
    rng = np.random.Generator(np.random.PCG64(8))
    examples = []
    for n in (40, 17, 55, 23, 60, 31, 48, 12, 64, 36, 9, 27):
        src = rng.integers(3, cfg.vocab_size, size=n).astype(np.int64)
        tgt = np.array([int(rng.integers(3, cfg.vocab_size)), EOS], dtype=np.int64)
        examples.append((src, tgt))
    # 64 tokens at d_model 16, so that each step splits into several chunks
    monkeypatch.setattr("crisisadapt.train._ACTIVATION_BUDGET", 64 * cfg.d_model)
    seed = 11
    tape = T.Tape()
    for epoch, slots in enumerate([[7, 2, 9, 0, 4, 1], [8, 3, 6, 5, 10, 11], list(range(12))]):
        chunks = chunk_slots(examples, slots, cfg.d_model)
        assert len(chunks) >= 3
        got = np.empty_like(params.flat)
        loss = step_gradients(params, examples, slots, cfg, seed, epoch, got, tape)

        want = np.zeros_like(params.flat)
        into = {params[name]: view for name, view in params.views(want).items()}
        want_loss = 0.0
        for chunk in chunks:
            src_ids = pad_sources([src for src, _ in examples], chunk)
            tgt_ids = np.stack([examples[slot][1] for slot in chunk])
            rngs = [np.random.Generator(np.random.PCG64(mix_seed(seed, "dropout", epoch, slot)))
                    for slot in chunk]
            with T.Tape() as fresh:
                one = example_loss(params, src_ids, tgt_ids, cfg, rng=rngs)
                weighted = T.scale(one, len(chunk))
            T.backward(fresh, weighted, into=into)
            want_loss += len(chunk) * float(one.data)
        want /= len(slots)
        assert got.tobytes() == want.tobytes(), epoch
        assert loss == want_loss / len(slots)


def recording_steps(monkeypatch) -> list:
    """For each step_gradients call `train` makes: the (id, weak reference)
    of the tape and of the gradient vector it hands over, and whether that
    vector lies in a mapping of its own."""
    seen = []

    def recording(*args):
        grad, tape = args[6:]
        seen.append(((id(tape), weakref.ref(tape)),
                     (id(grad), weakref.ref(grad)),
                     isinstance(grad.base, mmap.mmap)))
        return step_gradients(*args)

    monkeypatch.setattr("crisisadapt.train.step_gradients", recording)
    return seen


def test_train_runs_every_step_on_one_workspace_and_releases_it(monkeypatch):
    """The run's workspace is its one tape, whose memory every pass reuses."""
    seen = recording_steps(monkeypatch)
    run_once(TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=2))
    assert len(seen) == 4
    for held in (0, 1):  # the tape, the gradient vector
        assert len({entry[held][0] for entry in seen}) == 1
        assert seen[0][held][1]() is None  # nothing holds it once train has returned


def test_train_releases_its_workspace_when_it_raises(monkeypatch):
    seen = recording_steps(monkeypatch)
    cfg = ModelConfig(vocab_size=8, d_model=16, n_heads=2, d_ff=32, n_enc_layers=1,
                      n_dec_layers=1, dropout=0.0, max_src_len=8, max_tgt_len=4)
    with pytest.raises(NonFiniteError, match="loss"):
        train(init_params(cfg, 0), micro_examples(8), cfg,
              TrainConfig(peak_lr=1e30, effective_batch=4, epochs=4))
    assert seen
    assert all(ref() is None for tape, grad, _ in seen for _, ref in (tape, grad))


def test_train_maps_its_gradient_vector_outside_the_heap(monkeypatch):
    seen = recording_steps(monkeypatch)
    run_once(TrainConfig(peak_lr=1e-3, effective_batch=4, epochs=1))
    assert seen and all(mapped for _, _, mapped in seen)


def test_training_reduces_loss():
    tcfg = TrainConfig(peak_lr=1e-2, effective_batch=8, epochs=120, seed=0)
    examples = [(np.array([3, 4, 5], np.int64), np.array([6, EOS], np.int64))] * 8
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
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "step,lr,loss"
    # repr() round-trips floats exactly
    assert [StepRecord(int(step), float(lr), float(loss))
            for step, lr, loss in (row.split(",") for row in rows)] == records
