"""Crisis dataset ingestion, label unification, folds, and adaptation plans.

Datasets are UTF-8 TSV files with LF line endings and the header
``id<TAB>text<TAB>label<TAB>event_id``. Tabs, newlines and backslashes
inside the text field are escaped as ``\\t``, ``\\n`` and ``\\\\`` so that
serialization round-trips byte-for-byte. Event metadata lives in a JSON
registry mapping event ids to their location / crisis names.

A corpus ships as two TSVs (train/test) whose records are grouped per
event by :func:`splits_by_event`. Cross-validation splits are derived, not
shipped: :func:`make_folds` deals an event's pooled records onto k folds
in a deterministic :class:`FoldPlan`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import (
    DataError,
    LabelError,
    PlanError,
    SchemaError,
    SplitError,
    UnknownEventError,
)
from .files import write_atomic
from .rng import mix_seed, shuffle

HEADER = ("id", "text", "label", "event_id")

# Label-unification maps for the two benchmark styles.
RELEVANCE_MAP = {"relevant": "yes", "not_relevant": "no"}
TOPIC_MAP = {"on-topic": "yes", "off-topic": "no"}


@dataclass(frozen=True)
class CrisisRecord:
    """One labeled crisis message."""

    id: str
    text: str
    raw_label: str
    event_id: str
    unified_label: str | None = None  # "yes"/"no" once unified


@dataclass(frozen=True)
class EventDescriptor:
    """Per-event metadata feeding the event description of the input template."""

    event_id: str
    location_name: str
    crisis_name: str
    event_type: str | None = None

    def __post_init__(self):
        if not self.crisis_name:
            raise DataError(f"event {self.event_id!r} has an empty crisis_name")


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic k-fold assignment: record id -> fold index in [0, k)."""

    k: int
    seed: int
    assignments: dict[str, int]


@dataclass(frozen=True)
class EventSplits:
    """Training pool and held-out test set for one event."""

    train: list[CrisisRecord]
    test: list[CrisisRecord]


@dataclass(frozen=True)
class AdaptationPlan:
    """A single adaptation task: train on the source events, test on the target.

    In-domain when the source set is exactly {target}; cross-domain when the
    target is outside the source set. A target inside a multi-event source
    set is rejected.
    """

    task_id: str
    source_events: frozenset[str]
    target_event: str
    scenario: str
    source_dataset: list[CrisisRecord]
    target_test_set: list[CrisisRecord]
    seed: int


# ---------------------------------------------------------------------------
# Registry and TSV I/O


def load_registry(path: str | Path) -> dict[str, EventDescriptor]:
    """Load the event registry JSON: {event_id: {location_name, crisis_name, ...}}.
    Each entry must be an object, and its two names strings."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: malformed UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed registry JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: registry must be a JSON object, got {type(raw).__name__}")
    registry = {}
    for event_id, meta in raw.items():
        if not isinstance(meta, dict):
            raise SchemaError(
                f"{path}: event {event_id!r} must be a JSON object, got {type(meta).__name__}"
            )
        names = {key: meta.get(key, "") for key in ("location_name", "crisis_name")}
        for key, value in names.items():
            if not isinstance(value, str):
                raise SchemaError(f"{path}: event {event_id!r}: {key} must be a string, "
                                  f"got {value!r}")
        try:
            registry[event_id] = EventDescriptor(event_id, **names,
                                                 event_type=meta.get("event_type"))
        except DataError as exc:
            raise SchemaError(f"{path}: {exc}") from None
    return registry


def write_registry(registry: dict[str, EventDescriptor], path: str | Path) -> None:
    payload = {}
    for event_id, ev in registry.items():
        meta = {"location_name": ev.location_name, "crisis_name": ev.crisis_name}
        if ev.event_type is not None:
            meta["event_type"] = ev.event_type
        payload[event_id] = meta
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_field(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "t":
                out.append("\t")
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def load_dataset(
    path: str | Path, registry: dict[str, EventDescriptor]
) -> list[CrisisRecord]:
    """Read one TSV dataset file into records, preserving row order.

    Raw labels are kept untouched; unified labels are assigned later by
    :func:`unify_labels`. Schema violations report the 1-based line number.
    """
    path = Path(path)
    try:
        content = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: malformed UTF-8: {exc}") from None

    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    if not lines:
        raise SchemaError(f"{path}: empty file, expected a header line")

    header = tuple(lines[0].split("\t"))
    if header != HEADER:
        raise SchemaError(
            f"{path}:1: bad header {list(header)!r}, expected {list(HEADER)!r}"
        )

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split("\t")
        if len(cols) != len(HEADER):
            raise SchemaError(
                f"{path}:{lineno}: expected {len(HEADER)} columns, got {len(cols)}"
            )
        rec_id, text, label, event_id = cols
        if event_id not in registry:
            raise UnknownEventError(
                f"{path}:{lineno}: unknown event_id {event_id!r} not in registry"
            )
        records.append(
            CrisisRecord(
                id=rec_id,
                text=unescape_field(text),
                raw_label=label,
                event_id=event_id,
            )
        )
    return records


def write_dataset(records: list[CrisisRecord], path: str | Path) -> None:
    """Serialize records to the canonical TSV form (raw labels, LF endings)."""
    lines = ["\t".join(HEADER)]
    for rec in records:
        lines.append(
            "\t".join((rec.id, escape_field(rec.text), rec.raw_label, rec.event_id))
        )
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# Label unification


def unify_labels(
    records: list[CrisisRecord], mapping: dict[str, str]
) -> list[CrisisRecord]:
    """Map raw labels onto the shared {yes, no} targets.

    The mapping must cover every raw label present; otherwise the error
    lists each offending label with its count.
    """
    unmapped: dict[str, int] = {}
    for rec in records:
        if rec.raw_label not in mapping:
            unmapped[rec.raw_label] = unmapped.get(rec.raw_label, 0) + 1
    if unmapped:
        detail = ", ".join(f"{lbl!r} x{n}" for lbl, n in sorted(unmapped.items()))
        raise LabelError(f"unmapped raw labels: {detail}")
    for target in mapping.values():
        if target not in ("yes", "no"):
            raise LabelError(f"unification targets must be yes/no, got {target!r}")
    return [replace(rec, unified_label=mapping[rec.raw_label]) for rec in records]


# ---------------------------------------------------------------------------
# Folds


def make_folds(records: list[CrisisRecord], k: int, seed: int) -> FoldPlan:
    """Assign each record to one of k folds, stratified by label within event.

    Within each (event_id, unified_label) stratum, record ids are sorted,
    Fisher-Yates shuffled with a seed derived from (seed, event, label),
    and dealt onto a fold counter that runs across strata. Both the global
    fold sizes and the per-stratum counts then differ by at most one, and
    the assignment depends only on (record ids, k, seed).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(records) < k:
        raise ValueError(f"cannot split {len(records)} records into {k} folds")
    missing = [rec.id for rec in records if rec.unified_label is None]
    if missing:
        raise LabelError(
            f"{len(missing)} records missing unified_label (first: {missing[0]!r})"
        )

    strata: dict[tuple[str, str], list[str]] = {}
    for rec in records:
        strata.setdefault((rec.event_id, rec.unified_label), []).append(rec.id)

    assignments: dict[str, int] = {}
    counter = 0
    for (event_id, label) in sorted(strata):
        ids = shuffle(sorted(strata[(event_id, label)]), mix_seed(seed, event_id, label))
        for rec_id in ids:
            assignments[rec_id] = counter % k
            counter += 1
    return FoldPlan(k=k, seed=seed, assignments=assignments)


def fold_split(
    records: list[CrisisRecord], plan: FoldPlan, test_fold: int
) -> tuple[list[CrisisRecord], list[CrisisRecord]]:
    """Partition records into (train, test) with `test_fold` held out."""
    if not 0 <= test_fold < plan.k:
        raise ValueError(f"test_fold {test_fold} outside [0, {plan.k})")
    train = [r for r in records if plan.assignments[r.id] != test_fold]
    test = [r for r in records if plan.assignments[r.id] == test_fold]
    return train, test


# ---------------------------------------------------------------------------
# Adaptation plans


def compose_plan(
    source_events: set[str] | frozenset[str],
    target_event: str,
    scenario: str,
    splits: dict[str, EventSplits],
    seed: int,
) -> AdaptationPlan:
    """Build an adaptation plan from per-event splits.

    The source dataset concatenates the training portions of all source
    events (sorted by event id) and shuffles them with the plan seed; the
    target test set is the target event's test portion.
    """
    from .prompt import parse_scenario

    scenario = parse_scenario(scenario)
    if not source_events:
        raise PlanError("source event set is empty")
    sources = frozenset(source_events)
    if target_event in sources and len(sources) > 1:
        raise PlanError(
            f"target {target_event!r} inside multi-event source set {sorted(sources)}"
        )
    for event_id in sorted(sources | {target_event}):
        if event_id not in splits:
            raise SplitError(f"no splits available for event {event_id!r}")

    pooled: list[CrisisRecord] = []
    for event_id in sorted(sources):
        train = splits[event_id].train
        if not train:
            raise SplitError(f"source event {event_id!r} has no training data")
        bad = [r.id for r in train if r.event_id != event_id]
        if bad:
            raise SplitError(
                f"split for {event_id!r} contains foreign record {bad[0]!r}"
            )
        pooled.extend(train)

    test = splits[target_event].test
    if not test:
        raise SplitError(f"target event {target_event!r} has no test data")
    bad = [r.id for r in test if r.event_id != target_event]
    if bad:
        raise SplitError(
            f"test split for {target_event!r} contains foreign record {bad[0]!r}"
        )

    task_id = f"{'+'.join(sorted(sources))}->{target_event}/{scenario}"
    return AdaptationPlan(
        task_id=task_id,
        source_events=sources,
        target_event=target_event,
        scenario=scenario,
        source_dataset=shuffle(pooled, seed),
        target_test_set=list(test),
        seed=seed,
    )


def splits_by_event(
    train: list[CrisisRecord],
    test: list[CrisisRecord],
) -> dict[str, EventSplits]:
    """Group standard train/test record lists into per-event splits."""
    events = {r.event_id for r in train} | {r.event_id for r in test}
    return {
        ev: EventSplits(
            train=[r for r in train if r.event_id == ev],
            test=[r for r in test if r.event_id == ev],
        )
        for ev in sorted(events)
    }
