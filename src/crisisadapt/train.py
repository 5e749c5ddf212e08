"""Training loop: Adam, linear warmup/decay schedule, deterministic batching.

The run is a pure function of (initial parameters, examples, seed): epoch
order comes from the seeded shuffle stream, per-example dropout draws come
from generators derived from (seed, epoch, slot), and each step's work is
split into chunks in a fixed way. Re-running therefore reproduces the loss
history bitwise, and a run resumed from step k continues it exactly.

Each optimizer step runs its examples as a few batched passes (chunks)
rather than one pass per example. The step's slots are sorted by (source
length, slot) and packed greedily while examples x longest source x
d_model stays within a budget, so each chunk pads little. A chunk's loss
is the mean of its examples' losses; chunk losses and gradients are
weighted by the chunk's example count, summed, and divided once by the
step's count.
Every example draws its dropout masks from its own (seed, epoch, slot)
generator over its own length, so the masks do not depend on chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteError, check_field_types
from .files import write_atomic
from .model import ModelConfig, ParameterStore, example_loss
from .rng import mix_seed, shuffle
from .tensor import Tape, backward, scale
from .tokenizer import PAD

# Most padded source tokens x d_model (examples x longest source x width)
# in one batched pass: 256 tokens on the mini model, where larger budgets
# run no faster and only raise peak memory, and more tokens on narrower
# models (see CHANGES.md for the sweeps).
_ACTIVATION_BUDGET = 256 * 128

# Adam's moment decay rates and denominator epsilon, fixed for every run
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    peak_lr: float = 5e-5
    warmup_ratio: float = 0.1
    effective_batch: int = 16
    epochs: int = 12
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, ConfigError)
        if self.peak_lr <= 0:
            raise ConfigError(f"peak_lr must be positive, got {self.peak_lr}")
        if not 0 <= self.warmup_ratio < 1:
            raise ConfigError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.effective_batch < 1:
            raise ConfigError(f"effective_batch must be positive, got {self.effective_batch}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")


def lr_at(step: int, total_steps: int, warmup_ratio: float = 0.1, peak_lr: float = 5e-5) -> float:
    """Linear warmup to peak over ceil(warmup_ratio * total) steps, then
    linear decay to zero at `total_steps`. Steps are 0-based."""
    if total_steps < 1:
        raise ConfigError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    warmup = math.ceil(warmup_ratio * total_steps)
    if warmup >= total_steps:
        raise ConfigError(
            f"warmup ({warmup} steps) covers the whole run of {total_steps}; "
            "the decay segment would be empty"
        )
    # ratio first: warmup end, decay midpoint, and endpoints hit 1.0, 0.5,
    # 0.0 exactly, so the scaled values are exact too
    if step < warmup:
        return peak_lr * (step / warmup)
    return peak_lr * ((total_steps - step) / (total_steps - warmup))


class AdamState:
    """First/second moment buffers plus the optimizer step counter."""

    def __init__(self, params: ParameterStore):
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}

    def apply(self, params: ParameterStore, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, tensor in params.items():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            tensor.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass(frozen=True)
class StepRecord:
    step: int
    lr: float
    loss: float


@dataclass
class TrainResult:
    history: list[StepRecord] = field(default_factory=list)
    steps_per_epoch: int = 0
    total_steps: int = 0
    final_step: int = 0
    stopped_early: bool = False
    optimizer: AdamState | None = None


def steps_per_epoch(n_examples: int, effective_batch: int) -> int:
    return math.ceil(n_examples / effective_batch)


def chunk_by_length(sources, items, d_model: int, budget: int,
                    group=None) -> list[list[int]]:
    """Split `items`, indices into `sources` (1-D id arrays), into the
    chunks they run in as batched passes.

    Items are sorted by (source length, index) and packed greedily while
    chunk size x longest source x `d_model` stays within `budget`; a
    source longer than the budget runs alone. Items whose `group(index)`
    values differ never share a chunk.
    """
    chunks: list[list[int]] = []
    for i in sorted(items, key=lambda i: (len(sources[i]), i)):
        last = chunks[-1] if chunks else None
        if (last and (len(last) + 1) * len(sources[i]) * d_model <= budget
                and (group is None or group(last[0]) == group(i))):
            last.append(i)
        else:
            chunks.append([i])
    return chunks


def pad_sources(sources, chunk) -> tuple[np.ndarray, np.ndarray]:
    """Source ids and mask [B, S] of the id arrays `sources[i]` for each i
    in `chunk`, right-padded to the longest; the mask is 1.0 over each
    source's own length, 0.0 at padding."""
    width = max(len(sources[i]) for i in chunk)
    ids = np.full((len(chunk), width), PAD, dtype=np.int64)
    mask = np.zeros((len(chunk), width), dtype=np.float32)
    for row, i in enumerate(chunk):
        ids[row, : len(sources[i])] = sources[i]
        mask[row, : len(sources[i])] = 1.0
    return ids, mask


def chunk_slots(examples, slots, d_model: int) -> list[list[int]]:
    """The chunks of a step's slots (:func:`chunk_by_length` within
    _ACTIVATION_BUDGET); examples with targets of different lengths never
    share a chunk."""
    return chunk_by_length([src for src, _ in examples], slots, d_model, _ACTIVATION_BUDGET,
                           group=lambda s: len(examples[s][1]))


def step_gradients(
    params: ParameterStore,
    examples,
    slots,
    model_config: ModelConfig,
    seed: int,
    epoch: int,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss and mean parameter gradients over one step's examples,
    with dropout drawn from each slot's (seed, epoch, slot) generator.
    A chunk whose loss is not finite raises NonFiniteError."""
    grad_sums = {name: np.zeros_like(t.data) for name, t in params.items()}
    loss_sum = 0.0
    sources = [src for src, _ in examples]
    for chunk in chunk_slots(examples, slots, model_config.d_model):
        src_ids, src_mask = pad_sources(sources, chunk)
        tgt_ids = np.stack([examples[slot][1] for slot in chunk])
        rngs = None if model_config.dropout == 0 else [
            np.random.Generator(np.random.PCG64(mix_seed(seed, "dropout", epoch, slot)))
            for slot in chunk
        ]
        with Tape() as tape:
            loss = example_loss(params, src_ids, src_mask, tgt_ids, model_config, rng=rngs)
            weighted = scale(loss, len(chunk))
        chunk_loss = float(loss.data)
        if not math.isfinite(chunk_loss):
            raise NonFiniteError(
                f"epoch {epoch}: loss {chunk_loss} over the chunk of slots {chunk}"
            )
        grads = backward(tape, weighted)
        for name, tensor in params.items():
            grad_sums[name] += grads.of(tensor)
        loss_sum += len(chunk) * chunk_loss
    count = len(slots)
    return loss_sum / count, {name: g / count for name, g in grad_sums.items()}


def train(
    params: ParameterStore,
    examples,
    model_config: ModelConfig,
    train_config: TrainConfig,
    *,
    start_step: int = 0,
    max_steps: int | None = None,
    optimizer: AdamState | None = None,
    on_epoch_end=None,
) -> TrainResult:
    """Run (or continue) a training loop over encoded examples.

    `examples` is a sequence of (src_ids, target_ids) pairs of 1-D id
    arrays; :func:`pad_sources` pads and masks each chunk's sources.
    `start_step` > 0 continues an earlier run and requires the matching
    `optimizer` state. `on_epoch_end(epoch, params)` may return True to
    stop after that epoch. Parameters are updated in place. A step whose
    chunk loss or global gradient norm is not finite raises NonFiniteError
    naming the step and epoch, before that step updates any parameter.
    """
    n = len(examples)
    if n == 0:
        raise ValueError("no training examples")
    spe = steps_per_epoch(n, train_config.effective_batch)
    total = train_config.epochs * spe
    lr_at(0, total, train_config.warmup_ratio, train_config.peak_lr)  # fail fast

    if not 0 <= start_step <= total:
        raise ConfigError(f"start_step {start_step} outside [0, {total}]")
    if optimizer is None:
        if start_step != 0:
            raise ConfigError("resuming from a nonzero step requires the optimizer state")
        optimizer = AdamState(params)
    if optimizer.t != start_step:
        raise ConfigError(
            f"optimizer has taken {optimizer.t} steps but start_step is {start_step}"
        )

    stop_step = total if max_steps is None else min(total, start_step + max_steps)
    seed = train_config.seed
    result = TrainResult(
        steps_per_epoch=spe, total_steps=total, final_step=start_step, optimizer=optimizer
    )
    order: list[int] = []
    order_epoch = -1

    for s in range(start_step, stop_step):
        epoch, b = divmod(s, spe)
        if epoch != order_epoch:
            order = shuffle(range(n), mix_seed(seed, "epoch", epoch))
            order_epoch = epoch
        slots = order[b * train_config.effective_batch : (b + 1) * train_config.effective_batch]

        # an overflow surfaces as the NonFiniteError below, so numpy's
        # warnings about it would only repeat that report
        with np.errstate(all="ignore"):
            try:
                loss, mean_grads = step_gradients(params, examples, slots, model_config, seed,
                                                  epoch)
            except NonFiniteError as exc:
                raise NonFiniteError(f"step {s}, {exc}") from None
            # one global gradient norm per step; the float32 sum overflows to
            # inf only for a norm past 1e19
            norm_sq = sum(float(np.vdot(g, g)) for g in mean_grads.values())
        if not math.isfinite(norm_sq):
            raise NonFiniteError(f"step {s}, epoch {epoch}: gradient norm is not finite")
        lr = lr_at(s, total, train_config.warmup_ratio, train_config.peak_lr)
        optimizer.apply(params, mean_grads, lr)
        result.history.append(StepRecord(step=s, lr=lr, loss=loss))
        result.final_step = s + 1

        if b == spe - 1 and on_epoch_end is not None:
            if on_epoch_end(epoch, params):
                result.stopped_early = True
                break

    return result


def write_history(path, records: list[StepRecord]) -> None:
    lines = ["step,lr,loss", *(f"{r.step},{r.lr!r},{r.loss!r}" for r in records)]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
