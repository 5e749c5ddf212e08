"""Which public functions of the program the traced run wraps, and the
per-layer metrics computed from the spans they record.

Each entry wraps a function under the name its caller looks it up by:
`model.py` calls `T.matmul` through the tensor module, `train.py` calls
the `backward` and `example_loss` it imported, `experiment.py` calls the
`train`, `evaluate`, `construct`, ... it imported, and so on. Nothing in
`src/` changes; the wrappers are removed again after the traced run.
"""

from __future__ import annotations

import math
import os

from crisisadapt import (
    checkpoint,
    corpus,
    evaluation,
    experiment,
    model,
    tensor,
    tokenizer,
)
from crisisadapt import train as train_mod

from spans import END, NAME, PARENT, START, WORK, self_times

TENSOR_OPS = (
    "add", "sub", "mul", "scale", "matmul", "relu", "softmax", "layer_norm",
    "embedding", "reshape", "transpose", "sum_all", "mean_all", "cross_entropy",
    "dropout",
)


def _matmul_gflop(args, result) -> float:
    """Computed, not counted by hardware: 2*M*K*N per output matrix for the
    forward product, times 3 because backward forms one product for each
    operand's gradient."""
    out = result.data.shape
    k = args[0].data.shape[-1]
    return 3 * 2 * math.prod(out) * k / 1e9


def _count(args, result) -> int:
    return len(args[0])


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


# (owner, attribute, span name, work function or None)
TRACE_POINTS = [
    (tensor, op, f"tensor.{op}", _matmul_gflop if op == "matmul" else None) for op in TENSOR_OPS
] + [
    (train_mod, "backward", "tensor.backward", None),
    (train_mod, "example_loss", "model.example_loss", None),
    (model, "encode_source", "model.encode_source", None),
    (model, "decode_logits", "model.decode_logits", None),
    (evaluation, "generate_greedy", "model.generate_greedy", None),
    (evaluation, "score_sequence", "model.score_sequence", None),
    (experiment, "train", "train.train", None),
    (train_mod.AdamState, "apply", "train.adam_apply", None),
    (experiment, "evaluate", "evaluation.evaluate", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "predict_label", "evaluation.predict_label", None),
    (experiment, "run_matrix", "experiment.run_matrix", None),
    (experiment, "run_plan", "experiment.run_plan", None),
    (experiment, "encode_training_examples", "experiment.encode_examples", _count),
    (experiment, "encode_eval_inputs", "experiment.encode_examples", _count),
    (experiment, "encode_augmented", "tokenizer.encode_augmented", None),
    (tokenizer, "build_vocab", "tokenizer.build_vocab", None),
    (experiment, "construct", "prompt.construct", None),
    (experiment, "compose_plan", "corpus.compose_plan", None),
    (corpus, "compose_plan", "corpus.compose_plan", None),
    (checkpoint, "save_checkpoint", "checkpoint.save", _file_bytes),
    (checkpoint, "load_checkpoint", "checkpoint.load", None),
]


def install(tracer, patcher) -> None:
    for owner, attr, name, work in TRACE_POINTS:
        patcher.wrap(owner, attr, lambda fn, name=name, work=work: tracer.wrap(name, fn, work))


# Metric name -> (unit, description). Per-example and per-step figures
# divide by the number of training example-passes (`model.example_loss`
# calls), optimizer steps (`AdamState.apply` calls) or predictions
# (`evaluation.predict_label` calls) seen in the traced window. A figure
# whose denominator is zero reads 0.
PER_LAYER = {
    "tensor.ops_per_train_example": ("count", "tensor op calls inside example_loss"),
    "tensor.op_ms_per_train_example": ("ms", "time inside those op calls"),
    "tensor.backward_ms_per_train_example": ("ms", "time in tensor.backward"),
    "tensor.matmul_calls_per_train_example": ("count", "forward matmul calls inside example_loss"),
    "tensor.matmul_gflop_per_train_example": (
        "GFLOP_computed", "computed from operand shapes: 3 * 2*M*K*N per forward matmul"),
    "model.forward_ms_per_train_example": ("ms", "time in example_loss"),
    "model.encode_calls_per_eval_example": ("count", "encode_source calls per prediction"),
    "model.encode_calls_per_greedy_example": (
        "count", "encode_source calls per prediction that greedy decoding settled"),
    "model.encode_calls_per_fallback_example": (
        "count", "encode_source calls per prediction that fell back to label scoring"),
    "model.decode_calls_per_eval_example": ("count", "decode_logits calls per prediction"),
    "model.encode_ms": ("ms", "mean encode_source call during evaluation"),
    "model.decode_ms": ("ms", "mean decode_logits call during evaluation"),
    "train.adam_ms_per_step": ("ms", "mean AdamState.apply call"),
    "train.loop_self_ms_per_step": (
        "ms", "train() minus example_loss, backward and Adam: gradient summation and glue"),
    "evaluation.greedy_ms_per_example": ("ms", "generate_greedy time per prediction"),
    "evaluation.fallback_ms_per_example": ("ms", "score_sequence time per fallback prediction"),
    "evaluation.fallback_ratio": ("ratio", "fallback predictions / predictions"),
    "experiment.run_plan_self_ms": ("ms", "run_plan minus its traced callees, per call"),
    "experiment.encode_ms_per_example": ("ms", "encode_training_examples/encode_eval_inputs per record"),
    "tokenizer.build_vocab_ms": ("ms", "mean build_vocab call"),
    "tokenizer.encode_us_per_example": ("us", "mean encode_augmented call"),
    "prompt.construct_us_per_example": ("us", "mean construct call"),
    "corpus.compose_plan_ms": ("ms", "mean compose_plan call"),
    "checkpoint.save_ms": ("ms", "mean save_checkpoint call"),
    "checkpoint.load_ms": ("ms", "mean load_checkpoint call"),
    "checkpoint.bytes": ("bytes", "mean size of a saved checkpoint"),
    "trace.overhead_ratio": ("ratio", "traced wall_s / untraced wall_s of one workload run"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics over a traced window of spans."""
    n = len(spans)
    selfs = self_times(spans)
    # calls and nanoseconds per name: everywhere, inside evaluate, and
    # inside example_loss (the training forward pass)
    seen = {"all": {}, "eval": {}, "loss": {}}
    in_loss, in_eval, pred_of = [False] * n, [False] * n, [-1] * n
    fallback: set[int] = set()
    encoded_preds: list[int] = []  # the prediction behind each encode_source call
    matmul_gflop = 0.0
    for i, s in enumerate(spans):
        # a parent always precedes its children in the list
        p, name = s[PARENT], s[NAME]
        in_loss[i] = name == "model.example_loss" or (p >= 0 and in_loss[p])
        in_eval[i] = name == "evaluation.evaluate" or (p >= 0 and in_eval[p])
        pred_of[i] = i if name == "evaluation.predict_label" else (pred_of[p] if p >= 0 else -1)
        if name == "model.score_sequence" and pred_of[i] >= 0:
            fallback.add(pred_of[i])
        if name == "model.encode_source" and pred_of[i] >= 0:
            encoded_preds.append(pred_of[i])
        if name == "tensor.matmul" and in_loss[i]:
            matmul_gflop += s[WORK]
        d = s[END] - s[START]
        for where, inside in (("all", True), ("eval", in_eval[i]), ("loss", in_loss[i])):
            if inside:
                entry = seen[where].setdefault(name, [0, 0])
                entry[0] += 1
                entry[1] += d
    fallback_encodes = sum(1 for j in encoded_preds if j in fallback)
    greedy_encodes = len(encoded_preds) - fallback_encodes

    def calls(name, where="all"):
        return seen[where].get(name, (0, 0))[0]

    def total(name, where="all"):
        return seen[where].get(name, (0, 0))[1]

    def mean_ms(name, where="all"):
        return _ratio(total(name, where), calls(name, where)) / 1e6

    examples = calls("model.example_loss")
    steps = calls("train.adam_apply")
    preds = calls("evaluation.predict_label")
    ops = [name for name in seen["loss"] if name.startswith("tensor.")]
    plan_self = [t for s, t in zip(spans, selfs) if s[NAME] == "experiment.run_plan"]
    train_self = sum(t for s, t in zip(spans, selfs) if s[NAME] == "train.train")
    encoded = sum(s[WORK] for s in spans if s[NAME] == "experiment.encode_examples")
    saved = sum(s[WORK] for s in spans if s[NAME] == "checkpoint.save")

    return {
        "tensor.ops_per_train_example": _ratio(sum(calls(o, "loss") for o in ops), examples),
        "tensor.op_ms_per_train_example": _ratio(sum(total(o, "loss") for o in ops), examples) / 1e6,
        "tensor.backward_ms_per_train_example": _ratio(total("tensor.backward"), examples) / 1e6,
        "tensor.matmul_calls_per_train_example": _ratio(calls("tensor.matmul", "loss"), examples),
        "tensor.matmul_gflop_per_train_example": _ratio(matmul_gflop, examples),
        "model.forward_ms_per_train_example": _ratio(total("model.example_loss"), examples) / 1e6,
        "model.encode_calls_per_eval_example": _ratio(calls("model.encode_source", "eval"), preds),
        "model.encode_calls_per_greedy_example": _ratio(greedy_encodes, preds - len(fallback)),
        "model.encode_calls_per_fallback_example": _ratio(fallback_encodes, len(fallback)),
        "model.decode_calls_per_eval_example": _ratio(calls("model.decode_logits", "eval"), preds),
        "model.encode_ms": mean_ms("model.encode_source", "eval"),
        "model.decode_ms": mean_ms("model.decode_logits", "eval"),
        "train.adam_ms_per_step": mean_ms("train.adam_apply"),
        "train.loop_self_ms_per_step": _ratio(train_self, steps) / 1e6,
        "evaluation.greedy_ms_per_example": _ratio(total("model.generate_greedy", "eval"), preds) / 1e6,
        "evaluation.fallback_ms_per_example":
            _ratio(total("model.score_sequence", "eval"), len(fallback)) / 1e6,
        "evaluation.fallback_ratio": _ratio(len(fallback), preds),
        "experiment.run_plan_self_ms": _ratio(sum(plan_self), len(plan_self)) / 1e6,
        "experiment.encode_ms_per_example":
            _ratio(total("experiment.encode_examples"), encoded) / 1e6,
        "tokenizer.build_vocab_ms": mean_ms("tokenizer.build_vocab"),
        "tokenizer.encode_us_per_example": mean_ms("tokenizer.encode_augmented") * 1e3,
        "prompt.construct_us_per_example": mean_ms("prompt.construct") * 1e3,
        "corpus.compose_plan_ms": mean_ms("corpus.compose_plan"),
        "checkpoint.save_ms": mean_ms("checkpoint.save"),
        "checkpoint.load_ms": mean_ms("checkpoint.load"),
        "checkpoint.bytes": _ratio(saved, calls("checkpoint.save")),
        "trace.overhead_ratio": overhead_ratio,
    }


def group_encode_calls(spans, prefix: str) -> dict[str, float]:
    """encode_source calls per prediction under each benchmark span whose
    name starts with `prefix` (the rescore workload opens one per checkpoint)."""
    group = [None] * len(spans)
    counts: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        group[i] = s[NAME] if s[NAME].startswith(prefix) else (group[p] if p >= 0 else None)
        if group[i] is None:
            continue
        tally = counts.setdefault(group[i], [0, 0])
        if s[NAME] == "model.encode_source":
            tally[0] += 1
        elif s[NAME] == "evaluation.predict_label":
            tally[1] += 1
    return {name[len(prefix):]: _ratio(enc, preds) for name, (enc, preds) in counts.items()}
