"""The three workloads, the recorder that captures their outputs, and the
checks on those outputs.

Every workload is a closed loop with one caller: each operation starts
when the previous one has returned. Inputs come from the workload seed
only; the program sees nothing but the generated records.

- matrix_tiny: `experiment.run_matrix` in the shape of acceptance
  criterion 9 (three synthetic events, 48/24 splits, postq, tiny model,
  dropout 0, lr 1e-3, batch 16), cut to MATRIX_EPOCHS epochs. Inputs are
  20-23 tokens, so per-op Python dispatch dominates.
- train_long: `experiment.run_plan` on the mini model with dropout 0.1,
  over single-event records of 20-100 words (34-114 tokens; 32 to train
  on, 96 to evaluate, so that evaluation fills a sixth of a run), then a
  checkpoint save and load with Adam state. Matmul arithmetic dominates, the dropout path
  runs, and the length spread shows padding waste once examples are
  batched.
- rescore: the CLI's `evaluate` path. Load a checkpoint, encode an
  event's enlarged test set under that event's description, evaluate.
  It re-scores a briefly trained checkpoint, whose greedy decoding yields
  a label, on every event, and the untrained initialization, where every
  prediction falls back to label scoring, on the held-out target event.
  No backward pass, no Adam step; both checkpoints are written during
  set-up.

The recorder keeps no weights: at each `train` return it keeps the loss
history and a digest of the trained state (weights, Adam step and
moments), so a run holds no more memory than the program does. Checks
that need more memory (the checkpoint re-save) run once, after the
timed runs, in `final_check`.
"""

from __future__ import annotations

import filecmp
import hashlib
import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from crisisadapt import (
    checkpoint,
    corpus,
    evaluation,
    experiment,
    model,
    rng,
    synth,
    tensor,
    tokenizer,
)
from crisisadapt import train as train_mod

SCENARIO = "postq"
# Ten epochs take nearly every cell past the point where greedy decoding
# emits a label (at most 2 of the 9 cells fell back on each of seeds 1-20).
# At two or three epochs the cells sit on that edge, so whether a cell falls
# back, and with it the evaluation speed, would flip with the training's bits.
MATRIX_EPOCHS = 10
# train_long and the rescore checkpoint train at lr 3e-3, which takes them
# past the point where greedy decoding emits a label on every seed tried
# (1-20). Nearer that point, some seeds decode a label and others fall back
# on every example, and evaluation speed then depends on the seed.
LONG_TRAIN, LONG_TEST, LONG_EPOCHS, LONG_LR = 32, 96, 6, 3e-3
LONG_WORDS = (20, 100)
RESCORE_TEST, RESCORE_EPOCHS, RESCORE_LR = 64, 4, 3e-3
TRAINED_FALLBACK_MAX = 0.05  # "about 0" for the trained checkpoint


def state_digest(arrays: dict, adam_t, adam_m: dict | None, adam_v: dict | None) -> str:
    """sha256 over weights and Adam state: names, dtypes, shapes and bytes,
    hashed in place without copying the arrays."""
    h = hashlib.sha256(f"adam_t={adam_t};".encode())
    for part in (arrays, adam_m or {}, adam_v or {}):
        for name in sorted(part):
            a = np.ascontiguousarray(part[name])
            h.update(f"{name}:{a.dtype.str}:{a.shape};".encode())
            h.update(a)
        h.update(b"|")
    return h.hexdigest()


@dataclass
class Training:
    """One call of `train` as the recorder saw it."""

    losses: list[float]
    steps_per_epoch: int
    epoch_s: list[float]
    n_examples: int
    state: str  # state_digest of the trained weights and Adam state

    def epoch_losses(self) -> list[float]:
        """Mean step loss of each epoch."""
        spe = self.steps_per_epoch
        return [float(np.mean(self.losses[i : i + spe])) for i in range(0, len(self.losses), spe)]


class Recorder:
    """Captures, through thin wrappers installed for the whole run, what the
    metrics and checks need: each training (its loss history, epoch end
    times from the public `on_epoch_end` callback, a digest of its trained
    state), each `evaluate` call (size and seconds) and each prediction."""

    def __init__(self, clock):
        self._clock = clock
        # the traced run swaps in the tracer's, so that digesting shows as
        # the benchmark's own span and not as the program's time
        self.span = lambda name: nullcontext()
        self.reset()

    def reset(self) -> None:
        self.trainings: list[Training] = []
        self.evals: list[tuple[int, float, int]] = []  # (predictions, seconds, fell back)
        self.predictions: list[tuple[str, bool]] = []

    def install(self, patcher) -> None:
        patcher.wrap(experiment, "train", self._wrap_train)
        patcher.wrap(experiment, "evaluate", self._wrap_evaluate)
        patcher.wrap(evaluation, "evaluate", self._wrap_evaluate)
        patcher.wrap(evaluation, "predict_label", self._wrap_predict)

    def _wrap_train(self, train):
        def recorded(params, examples, model_config, train_config, **kwargs):
            chained = kwargs.pop("on_epoch_end", None)
            start = self._clock()
            ends: list[float] = []

            def on_epoch_end(epoch, params_):
                ends.append(self._clock())
                return chained(epoch, params_) if chained else False

            result = train(params, examples, model_config, train_config,
                           on_epoch_end=on_epoch_end, **kwargs)
            epoch_s = list(np.diff([start] + ends))
            with self.span("bench.record_training"):
                opt = result.optimizer
                state = state_digest(params.arrays(), opt and opt.t, opt and opt.m, opt and opt.v)
            self.trainings.append(Training([r.loss for r in result.history],
                                           result.steps_per_epoch, epoch_s, len(examples), state))
            return result

        return recorded

    def _wrap_evaluate(self, evaluate):
        def recorded(params, encoded, *args, **kwargs):
            start = self._clock()
            report = evaluate(params, encoded, *args, **kwargs)
            self.evals.append((len(encoded), self._clock() - start, report.fallback_count))
            return report

        return recorded

    def _wrap_predict(self, predict_label):
        def recorded(*args, **kwargs):
            out = predict_label(*args, **kwargs)
            self.predictions.append(out)
            return out

        return recorded


class Tally:
    """Operations and output checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, n: int, ok: bool, what: str) -> None:
        self.attempted += n
        if not ok:
            self.failures.extend([what] * n)

    def check(self, what: str, ok: bool) -> None:
        self.ops(1, ok, what)


def loaded_digest(loaded) -> str:
    return state_digest(loaded.arrays, loaded.adam_t, loaded.adam_m, loaded.adam_v)


def verify_round_trip(path, state: str) -> bool:
    """The checkpoint at `path` loads to the state digested as `state`,
    and saving what was loaded reproduces the file byte for byte."""
    loaded = checkpoint.load_checkpoint(path)
    store = model.ParameterStore(
        {n: tensor.Tensor(a, requires_grad=True, name=n) for n, a in loaded.arrays.items()}
    )
    resave = path.with_name(path.name + ".resave")
    checkpoint.save_checkpoint(resave, store, loaded.config, loaded.vocab_hash, loaded.step,
                               loaded.seed, loaded.restore_optimizer(store), loaded.extra)
    return loaded_digest(loaded) == state and filecmp.cmp(resave, path, shallow=False)


def check_training(t: Training, tally: Tally, what: str) -> None:
    epochs = t.epoch_losses()
    tally.check(f"{what}: losses finite and last epoch below first",
                all(math.isfinite(x) for x in t.losses) and epochs[-1] < epochs[0])


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def training_outputs(trainings) -> dict:
    """What must repeat bit for bit: loss histories and trained states."""
    return {"losses": [np.array(t.losses).tobytes() for t in trainings],
            "states": [t.state for t in trainings]}


def synth_inputs(n_train: int, n_test: int, seed: int):
    raw, registry = synth.generate_corpus(n_train=n_train, n_test=n_test, seed=seed)
    splits = {
        name: corpus.EventSplits(train=corpus.unify_labels(ev.train, corpus.RELEVANCE_MAP),
                                 test=corpus.unify_labels(ev.test, corpus.RELEVANCE_MAP))
        for name, ev in raw.items()
    }
    return splits, registry


def shared_vocab(splits, registry) -> tokenizer.Vocabulary:
    records = [r for ev in splits.values() for r in ev.train + ev.test]
    return tokenizer.build_vocab(experiment.augmented_texts(records, SCENARIO, registry),
                                 min_freq=1)


def long_records(event_id: str, split: str, n: int, seed: int) -> list[corpus.CrisisRecord]:
    """Messages of 20-100 words. The lengths are the same evenly spaced set
    for every seed, in seeded order, so the work per run does not depend on
    the seed; relevant messages carry about one topic word in ten."""
    gen = np.random.Generator(np.random.PCG64(rng.mix_seed(seed, "train_long", split)))
    lengths = gen.permutation(np.linspace(*LONG_WORDS, n).round().astype(int))
    topic, neutral = synth.TOPIC_POOLS["storm"], synth.NEUTRAL_WORDS
    records = []
    for i, length in enumerate(lengths):
        relevant = i % 2 == 0
        words = [neutral[j] for j in gen.integers(len(neutral), size=length)]
        if relevant:
            for pos in gen.choice(length, size=max(2, length // 10), replace=False):
                words[pos] = topic[gen.integers(len(topic))]
        records.append(corpus.CrisisRecord(
            id=f"{event_id}:{split}:{i:04d}", text=" ".join(words),
            raw_label=synth.RAW_RELEVANT if relevant else synth.RAW_NOT_RELEVANT,
            event_id=event_id))
    return corpus.unify_labels(records, corpus.RELEVANCE_MAP)


class Workload:
    name = ""
    ops_per_run = 1  # cells, plans or evaluations in one run
    # False where the seed and the training's bits decide which evaluate()
    # calls fall back; eval_examples_per_s then leaves out every call in
    # which a prediction fell back, and their cost shows only in wall_s
    fixed_fallback_mix = True

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.notes: dict = {}  # reported with the result, not checked
        # opens a named span around a block; the traced run swaps in the tracer's
        self.span = lambda name: nullcontext()

    def setup(self) -> None:
        """Build the inputs; this is what `setup_s` times."""
        raise NotImplementedError

    def check_setup(self, rec: Recorder, tally: Tally) -> dict:
        """Check the set-up's outputs; returns what must repeat across set-ups."""
        return {}

    def run(self):
        """One timed run of the workload."""
        raise NotImplementedError

    def check(self, outcome, rec: Recorder, tally: Tally) -> dict:
        """Check one run's outputs; returns what must repeat across runs."""
        raise NotImplementedError

    def final_check(self, tally: Tally) -> None:
        """Checks that cost memory, run once after the timed runs and after
        peak RSS has been read."""


class MatrixTiny(Workload):
    name = "matrix_tiny"
    ops_per_run = 9
    fixed_fallback_mix = False  # 0-2 of the 9 cells fall back, by seed

    def setup(self):
        self.splits, self.registry = synth_inputs(48, 24, self.seed)
        self.vocab = shared_vocab(self.splits, self.registry)
        self.model_config = model.named_config("tiny", vocab_size=self.vocab.size, dropout=0.0)
        self.train_config = train_mod.TrainConfig(
            peak_lr=1e-3, effective_batch=16, epochs=MATRIX_EPOCHS, seed=self.seed)

    def run(self):
        return experiment.run_matrix(
            self.splits, self.registry, sorted(self.splits), SCENARIO, self.vocab,
            self.model_config, self.train_config, seed=self.seed, jobs=1)

    def check(self, matrix, rec, tally):
        tally.check("matrix complete, every cell in [0, 1]",
                    matrix.complete and all(0.0 <= v <= 1.0 for v in matrix.cells.values()))
        for i, t in enumerate(rec.trainings):
            check_training(t, tally, f"cell {i}")
        tally.check("some cell decoded every prediction greedily",
                    any(fell_back == 0 for _, _, fell_back in rec.evals))
        self.notes = {"fallback_ratio": sum(fb for _, fb in rec.predictions) / len(rec.predictions)}
        return {**training_outputs(rec.trainings), "predictions": rec.predictions}


class TrainLong(Workload):
    name = "train_long"

    def setup(self):
        spec = synth.DEFAULT_EVENTS[0]
        self.event = spec.event_id
        self.registry = {self.event: corpus.EventDescriptor(
            spec.event_id, spec.location_name, spec.crisis_name, spec.event_type)}
        self.splits = {self.event: corpus.EventSplits(
            train=long_records(self.event, "train", LONG_TRAIN, self.seed),
            test=long_records(self.event, "test", LONG_TEST, self.seed))}
        self.vocab = shared_vocab(self.splits, self.registry)
        self.model_config = model.named_config("mini", vocab_size=self.vocab.size, dropout=0.1)
        self.train_config = train_mod.TrainConfig(
            peak_lr=LONG_LR, effective_batch=16, epochs=LONG_EPOCHS, seed=self.seed)

    def run(self):
        plan = corpus.compose_plan({self.event}, self.event, SCENARIO, self.splits, self.seed)
        outcome = experiment.run_plan(plan, self.registry, self.vocab, self.model_config,
                                      self.train_config)
        self.path = self.workdir / "train_long.castckpt"
        checkpoint.save_checkpoint(
            self.path, outcome.params, self.model_config, self.vocab.content_hash,
            outcome.train_result.final_step, plan.seed, outcome.train_result.optimizer)
        loaded = checkpoint.load_checkpoint(self.path, expected_vocab_hash=self.vocab.content_hash)
        return outcome.report, loaded

    def check(self, result, rec, tally):
        report, loaded = result
        self.state = rec.trainings[0].state
        check_training(rec.trainings[0], tally, "plan")
        tally.check("plan evaluated every test record",
                    report.n == LONG_TEST and 0.0 <= report.accuracy <= 1.0)
        tally.check("checkpoint loads to the trained state", loaded_digest(loaded) == self.state)
        self.notes = {"fallback_ratio": report.fallback_rate}
        return {**training_outputs(rec.trainings), "predictions": rec.predictions,
                "checkpoints": [digest(self.path)]}

    def final_check(self, tally):
        tally.check("checkpoint round trip", verify_round_trip(self.path, self.state))


class Rescore(Workload):
    name = "rescore"
    TARGET = "gamma_quake"  # held out of the trained checkpoint's sources
    # checkpoint -> events it is re-scored on
    CHECKPOINTS = {"trained": ("alpha_flood", "beta_flood", TARGET), "untrained": (TARGET,)}
    ops_per_run = 4  # evaluations

    def setup(self):
        self.splits, self.registry = synth_inputs(48, RESCORE_TEST, self.seed)
        self.vocab = shared_vocab(self.splits, self.registry)
        mcfg = model.named_config("tiny", vocab_size=self.vocab.size, dropout=0.0)
        tcfg = train_mod.TrainConfig(peak_lr=RESCORE_LR, effective_batch=16,
                                     epochs=RESCORE_EPOCHS, seed=self.seed)
        plan = corpus.compose_plan({"alpha_flood", "beta_flood"}, self.TARGET, SCENARIO,
                                   self.splits, self.seed)
        trained = experiment.run_plan(plan, self.registry, self.vocab, mcfg, tcfg)
        self.paths = {name: self.workdir / f"rescore_{name}.castckpt" for name in self.CHECKPOINTS}
        checkpoint.save_checkpoint(
            self.paths["trained"], trained.params, mcfg, self.vocab.content_hash,
            trained.train_result.final_step, plan.seed, trained.train_result.optimizer)
        # the weights the trained checkpoint started from
        untrained = model.init_params(mcfg, rng.mix_seed(plan.seed, "init"))
        checkpoint.save_checkpoint(self.paths["untrained"], untrained, mcfg,
                                   self.vocab.content_hash, 0, plan.seed)

    def check_setup(self, rec, tally):
        self.trained_state = rec.trainings[0].state
        check_training(rec.trainings[0], tally, "set-up training")
        return {**training_outputs(rec.trainings),
                "checkpoints": [digest(p) for p in self.paths.values()]}

    def final_check(self, tally):
        tally.check("trained checkpoint round trip",
                    verify_round_trip(self.paths["trained"], self.trained_state))

    def run(self):
        reports = {}
        for name, path in self.paths.items():
            with self.span(f"bench.rescore.{name}"):
                loaded = checkpoint.load_checkpoint(path, expected_vocab_hash=self.vocab.content_hash)
                params = model.init_params(loaded.config, 0)
                params.load_arrays(loaded.arrays)
                reports[name] = []
                for event in self.CHECKPOINTS[name]:
                    encoded, gold = experiment.encode_eval_inputs(
                        self.splits[event].test, SCENARIO, self.registry[event], self.vocab,
                        loaded.config)
                    reports[name].append(
                        evaluation.evaluate(params, encoded, gold, self.vocab, loaded.config))
        return reports

    def check(self, reports, rec, tally):
        ratios, eval_ms = {}, {}
        evals = iter(rec.evals)  # in the order run() evaluated
        for name, reps in reports.items():
            n = sum(r.n for r in reps)
            tally.check(f"{name}: every test record scored",
                        n == len(self.CHECKPOINTS[name]) * RESCORE_TEST)
            ratios[name] = sum(r.fallback_count for r in reps) / n
            eval_ms[name] = 1e3 * sum(next(evals)[1] for _ in reps) / n
        tally.check(f"trained checkpoint fallback ratio {ratios['trained']:.3f} <= "
                    f"{TRAINED_FALLBACK_MAX}", ratios["trained"] <= TRAINED_FALLBACK_MAX)
        tally.check(f"untrained checkpoint fallback ratio {ratios['untrained']:.3f} == 1",
                    ratios["untrained"] == 1.0)
        self.notes = {"fallback_ratio_by_checkpoint": ratios,
                      "eval_ms_per_example_by_checkpoint": eval_ms}
        return {"predictions": rec.predictions}


WORKLOADS = {w.name: w for w in (MatrixTiny, TrainLong, Rescore)}
