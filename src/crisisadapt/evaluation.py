"""Evaluation: label prediction, classification metrics, transfer matrices.

Prediction decodes greedily and falls back to comparing the scores of the
two label sequences whenever the decoder produced anything that is not
exactly a label word; the fallback is counted so drifting decoders are
visible in reports. A test set is decoded and scored in batched chunks,
padded as training pads and packed within four times its token budget.
Matrix cells hold test accuracies of source->target runs; row
correlations compare transfer profiles between source events.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import model
from .files import write_json, write_lines
from .model import ModelConfig, ParameterStore, generate_greedy, score_sequence
from .prompt import LABELS, parse_label
from .tokenizer import EOS, UNK, Vocabulary, decode
from .train import _ACTIVATION_BUDGET, chunk_by_length, pad_sources

DIAGONAL_MODES = ("five_fold_mean", "standard_split")

# Most padded source tokens x d_model in one batched evaluation pass: four
# times training's budget, as evaluation keeps no tape for a backward
# pass (see CHANGES.md for the sweep).
_EVAL_BUDGET = 4 * _ACTIVATION_BUDGET


def predict_label(generated, scores, vocab: Vocabulary) -> tuple[str, bool]:
    """The label of one input and whether it fell back, from its greedy
    output `generated` and, when that output is not exactly a label word,
    the scores of the two label sequences `scores` (in LABELS order): the
    higher-scoring label wins, and a tie resolves to "no". Makes no model
    call."""
    label = parse_label(decode(generated, vocab))
    if label is not None:
        return label, False
    if scores is None:
        raise ValueError("the greedy output is no label word, and no label scores were given")
    by_label = dict(zip(LABELS, scores))
    return ("yes" if by_label["yes"] > by_label["no"] else "no"), True


# ---------------------------------------------------------------------------
# Metrics


def accuracy(gold: list[str], pred: list[str]) -> float:
    if len(gold) != len(pred):
        raise ValueError(f"gold and pred lengths differ: {len(gold)} vs {len(pred)}")
    if not gold:
        raise ValueError("cannot score an empty evaluation set")
    return sum(g == p for g, p in zip(gold, pred)) / len(gold)


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


def class_scores(gold: list[str], pred: list[str]) -> dict[str, ClassScores]:
    """Per-class precision/recall/F1 for every class present in gold.
    A zero denominator yields 0 for that quantity."""
    if len(gold) != len(pred):
        raise ValueError(f"gold and pred lengths differ: {len(gold)} vs {len(pred)}")
    if not gold:
        raise ValueError("cannot score an empty evaluation set")
    out = {}
    for cls in sorted(set(gold)):
        tp = sum(1 for g, p in zip(gold, pred) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(gold, pred) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(gold, pred) if g == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[cls] = ClassScores(precision, recall, f1, tp + fn)
    return out


def weighted_f1(gold: list[str], pred: list[str]) -> float:
    """F1 averaged over classes, weighted by gold support."""
    scores = class_scores(gold, pred)
    total = sum(s.support for s in scores.values())
    return sum(s.f1 * s.support / total for s in scores.values())


@dataclass
class EvalReport:
    n: int
    accuracy: float
    weighted_f1: float
    per_class: dict[str, ClassScores]
    confusion: dict[tuple[str, str], int]
    fallback_count: int

    @property
    def fallback_rate(self) -> float:
        return self.fallback_count / self.n if self.n else 0.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "accuracy": self.accuracy,
            "weighted_f1": self.weighted_f1,
            "per_class": {
                cls: {
                    "precision": s.precision,
                    "recall": s.recall,
                    "f1": s.f1,
                    "support": s.support,
                }
                for cls, s in self.per_class.items()
            },
            "confusion": {f"{g}->{p}": c for (g, p), c in sorted(self.confusion.items())},
            "fallback_count": self.fallback_count,
            "fallback_rate": self.fallback_rate,
        }


def evaluate(
    params: ParameterStore,
    encoded: list[np.ndarray],
    gold: list[str],
    vocab: Vocabulary,
    config: ModelConfig,
) -> EvalReport:
    """Predict every encoded source (a 1-D id array) and score against gold
    labels.

    The inputs run in length-sorted chunks within _EVAL_BUDGET
    (:func:`train.chunk_by_length`). Each chunk is padded
    (:func:`train.pad_sources`) and encoded once, then decoded greedily
    as one batch, which stops each row as soon as its output can no longer
    be a label word.
    The rows whose output is not exactly a label word are scored for both
    label sequences in one more decoder pass. :func:`predict_label` then
    decides each input, in input order. Each chunk's decoder memory
    (what :func:`model.encode_source` returns) serves both. A prediction
    does not depend on the other inputs of its chunk (see
    :func:`model.generate_greedy`)."""
    if len(encoded) != len(gold):
        raise ValueError(f"{len(encoded)} inputs but {len(gold)} gold labels")
    if not encoded:
        raise ValueError("cannot evaluate an empty set")
    label_ids = [vocab.lookup(lab) for lab in LABELS]
    # a label word outside the vocabulary maps to UNK, which decodes to
    # the UNK token and so is never that label
    accept = [[i] for i in label_ids if i != UNK]
    targets = np.array([[i, EOS] for i in label_ids])
    generated: list[list[int]] = [[] for _ in encoded]
    scores: list[np.ndarray | None] = [None] * len(encoded)
    for chunk in chunk_by_length(encoded, range(len(encoded)), config.d_model,
                                 _EVAL_BUDGET):
        # looked up on the module, so that a wrapper installed there (a
        # profiler or a call counter) sees this call
        mem = model.encode_source(params, pad_sources(encoded, chunk), config)
        outs = generate_greedy(params, mem, config, accept)
        rows = [r for r, out in enumerate(outs) if parse_label(decode(out, vocab)) is None]
        if rows:
            row_scores = score_sequence(params, mem.rows(rows), targets, config)
            for r, s in zip(rows, row_scores):
                scores[chunk[r]] = s
        for i, out in zip(chunk, outs):
            generated[i] = out
    preds: list[str] = []
    fallback_count = 0
    for out, s in zip(generated, scores):
        label, used_fallback = predict_label(out, s, vocab)
        preds.append(label)
        fallback_count += used_fallback
    confusion: dict[tuple[str, str], int] = {}
    for g, p in zip(gold, preds):
        confusion[(g, p)] = confusion.get((g, p), 0) + 1
    return EvalReport(
        n=len(gold),
        accuracy=accuracy(gold, preds),
        weighted_f1=weighted_f1(gold, preds),
        per_class=class_scores(gold, preds),
        confusion=confusion,
        fallback_count=fallback_count,
    )


# ---------------------------------------------------------------------------
# Transfer matrices


@dataclass
class AdaptationMatrix:
    """Accuracy per (source event, target event), filled cell by cell.

    Diagonal cells are in-domain results; `diagonal_mode` records whether
    they came from a k-fold mean or from the event's standard split."""

    events: tuple[str, ...]
    diagonal_mode: str = "standard_split"
    cells: dict[tuple[str, str], float] = field(default_factory=dict)
    provenance: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.events) < 2:
            raise ValueError("a transfer matrix needs at least two events")
        if len(set(self.events)) != len(self.events):
            raise ValueError(f"duplicate events: {self.events}")
        if self.diagonal_mode not in DIAGONAL_MODES:
            raise ValueError(
                f"diagonal_mode must be one of {DIAGONAL_MODES}, got {self.diagonal_mode!r}"
            )

    def set_cell(self, source: str, target: str, value: float, info: dict):
        if source not in self.events or target not in self.events:
            raise KeyError(f"cell ({source}, {target}) outside events {self.events}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"cell value must be in [0, 1], got {value}")
        self.cells[(source, target)] = float(value)
        self.provenance[f"{source}->{target}"] = {"value": float(value), **info}

    @property
    def complete(self) -> bool:
        return len(self.cells) == len(self.events) ** 2

    def to_array(self) -> np.ndarray:
        out = np.empty((len(self.events), len(self.events)), dtype=np.float64)
        for i, s in enumerate(self.events):
            for j, t in enumerate(self.events):
                out[i, j] = self.cells[(s, t)]
        return out


def pearson_row_correlation(matrix, exclude_self: bool = False) -> np.ndarray:
    """Pearson correlation between every pair of matrix rows.

    With `exclude_self`, the two self-transfer columns are dropped before
    correlating rows i and j. A zero-variance row pair gets correlation 0
    and a warning naming both rows. The result is symmetric with a unit diagonal.
    """
    arr = matrix.to_array() if isinstance(matrix, AdaptationMatrix) else np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    rows = matrix.events if isinstance(matrix, AdaptationMatrix) else range(n)
    points = n - 2 if exclude_self else n
    if points < 3:
        raise ValueError(
            f"{points} paired points per row pair is too few; need at least 3"
        )
    out = np.ones((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            cols = [k for k in range(n) if not (exclude_self and k in (i, j))]
            x = arr[i, cols]
            y = arr[j, cols]
            xc = x - x.mean()
            yc = y - y.mean()
            den = np.sqrt((xc * xc).sum() * (yc * yc).sum())
            if den == 0.0:
                warnings.warn(
                    f"zero variance when correlating rows {rows[i]} and {rows[j]}; using 0",
                    stacklevel=2,
                )
                r = 0.0
            else:
                r = float((xc * yc).sum() / den)
            out[i, j] = out[j, i] = r
    return out


def write_grid_csv(path, corner: str, events: tuple[str, ...], values: np.ndarray) -> None:
    """`values[i, j]` in row `events[i]`, column `events[j]`, to 4 decimal
    places, under a header whose first cell, `corner`, names the axes."""
    lines = [corner + "," + ",".join(events)]
    for event, row in zip(events, values):
        lines.append(event + "," + ",".join(f"{v:.4f}" for v in row))
    write_lines(path, lines)


def write_matrix_provenance(path, matrix: AdaptationMatrix) -> None:
    write_json(path, {
        "events": list(matrix.events),
        "diagonal_mode": matrix.diagonal_mode,
        "complete": matrix.complete,
        "cells": matrix.provenance,
    })


def loo_table(results: dict[str, EvalReport]) -> dict:
    """Per-target accuracy/F1 rows plus an unweighted mean row."""
    if not results:
        raise ValueError("no leave-one-out results to summarize")
    rows = {
        target: {"accuracy": rep.accuracy, "weighted_f1": rep.weighted_f1, "n": rep.n}
        for target, rep in sorted(results.items())
    }
    accs = [r["accuracy"] for r in rows.values()]
    f1s = [r["weighted_f1"] for r in rows.values()]
    return {
        "per_target": rows,
        "mean": {
            "accuracy": float(np.mean(accs)),
            "weighted_f1": float(np.mean(f1s)),
            "targets": len(rows),
        },
    }
