"""Dataset ingestion, label unification, folds, and adaptation plans."""

import json

import pytest

from conftest import make_record
from crisisadapt.corpus import (
    HEADER,
    RELEVANCE_MAP,
    TOPIC_MAP,
    CrisisRecord,
    EventDescriptor,
    EventSplits,
    compose_plan,
    escape_field,
    load_dataset,
    load_registry,
    make_folds,
    splits_by_event,
    unescape_field,
    unify_labels,
    write_dataset,
    write_registry,
)
from crisisadapt.errors import (
    DataError,
    LabelError,
    PlanError,
    SchemaError,
    UnknownEventError,
)

REGISTRY = {
    "nq_flood": EventDescriptor("nq_flood", "Queensland", "Floods"),
    "np_quake": EventDescriptor("np_quake", "Nepal", "Earthquake"),
}


# ---------------------------------------------------------------------------
# Field escaping and TSV round-trips


@pytest.mark.parametrize(
    "text",
    [
        "plain words",
        "tab\there",
        "newline\nhere",
        "backslash \\ here",
        "wicked \\t literal backslash-t",
        "\\n\\t\\\\",
        "",
        "trailing backslash \\",
    ],
)
def test_escape_round_trip(text):
    assert unescape_field(escape_field(text)) == text


def test_escaped_fields_are_single_line():
    assert "\t" not in escape_field("a\tb")
    assert "\n" not in escape_field("a\nb")


def test_dataset_round_trip_byte_exact(tmp_path):
    records = [
        make_record(0, "nq_flood", "water rising\tfast", "relevant"),
        make_record(1, "np_quake", "line one\nline two", "not_relevant"),
        make_record(2, "nq_flood", "plain", "relevant"),
    ]
    p = tmp_path / "data.tsv"
    write_dataset(records, p)
    loaded = load_dataset(p, REGISTRY)
    assert [(r.id, r.text, r.raw_label, r.event_id) for r in loaded] == [
        (r.id, r.text, r.raw_label, r.event_id) for r in records
    ]
    p2 = tmp_path / "again.tsv"
    write_dataset(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_load_dataset_reports_one_based_line_numbers(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text(
        "\t".join(HEADER) + "\nrec1\ttext\trelevant\tnq_flood\nrec2\tmissing columns\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match=":3:"):
        load_dataset(p, REGISTRY)


def test_load_dataset_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("id\ttext\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=":1:"):
        load_dataset(p, REGISTRY)


def test_load_dataset_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError, match="empty"):
        load_dataset(p, REGISTRY)


def test_load_dataset_rejects_unknown_event(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text(
        "\t".join(HEADER) + "\nrec1\ttext\trelevant\tnowhere\n", encoding="utf-8"
    )
    with pytest.raises(UnknownEventError, match="nowhere"):
        load_dataset(p, REGISTRY)


def test_load_dataset_rejects_malformed_utf8(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_bytes(b"\xff\xfe broken")
    with pytest.raises(SchemaError, match="UTF-8"):
        load_dataset(p, REGISTRY)


# ---------------------------------------------------------------------------
# Registry


def test_registry_round_trip(tmp_path):
    p = tmp_path / "registry.json"
    write_registry(REGISTRY, p)
    assert load_registry(p) == REGISTRY


def test_registry_rejects_malformed_json(tmp_path):
    p = tmp_path / "registry.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="malformed"):
        load_registry(p)
    p.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_registry(p)


def test_descriptor_requires_crisis_name():
    with pytest.raises(DataError):
        EventDescriptor("evt", "Somewhere", "")


def test_descriptor_allows_empty_location():
    d = EventDescriptor("np_quake", "", "Nepal Earthquake")
    assert d.location_name == ""


# ---------------------------------------------------------------------------
# Label unification


def test_unify_labels_relevance_scheme():
    records = [
        make_record(0, label="relevant"),
        make_record(1, label="not_relevant"),
    ]
    out = unify_labels(records, RELEVANCE_MAP)
    assert [r.unified_label for r in out] == ["yes", "no"]
    assert [r.raw_label for r in out] == ["relevant", "not_relevant"]
    assert records[0].unified_label is None  # input untouched


def test_unify_labels_topic_scheme():
    out = unify_labels(
        [make_record(0, label="on-topic"), make_record(1, label="off-topic")],
        TOPIC_MAP,
    )
    assert [r.unified_label for r in out] == ["yes", "no"]


def test_unify_labels_lists_unmapped_with_counts():
    records = [
        make_record(0, label="weird"),
        make_record(1, label="weird"),
        make_record(2, label="stranger"),
    ]
    with pytest.raises(LabelError) as exc:
        unify_labels(records, RELEVANCE_MAP)
    assert "'weird' x2" in str(exc.value)
    assert "'stranger' x1" in str(exc.value)


def test_unify_labels_rejects_non_binary_targets():
    with pytest.raises(LabelError, match="yes/no"):
        unify_labels([make_record(0, label="relevant")], {"relevant": "maybe"})


# ---------------------------------------------------------------------------
# Folds


def balanced_records(n_yes: int, n_no: int, event: str) -> list[CrisisRecord]:
    recs = [make_record(i, event, label="yes") for i in range(n_yes)]
    recs += [make_record(1000 + i, event, label="no") for i in range(n_no)]
    return recs


def held_out_ids(folds) -> list[set[str]]:
    """The ids of each fold's test split, in fold order."""
    return [{r.id for r in test} for _, test in folds]


def test_make_folds_partitions_everything():
    records = balanced_records(13, 12, "nq_flood")
    folds = make_folds(records, 5, seed=3)
    assert len(folds) == 5
    held_out = [r.id for _, test in folds for r in test]
    assert sorted(held_out) == sorted(r.id for r in records)


def test_make_folds_global_sizes_differ_by_at_most_one():
    records = (
        [make_record(i, "nq_flood", label="yes") for i in range(13)]
        + [make_record(100 + i, "nq_flood", label="no") for i in range(12)]
        + [make_record(200 + i, "np_quake", label="yes") for i in range(8)]
        + [make_record(300 + i, "np_quake", label="no") for i in range(9)]
    )
    sizes = [len(test) for _, test in make_folds(records, 5, seed=3)]
    assert max(sizes) - min(sizes) <= 1


def test_make_folds_stratum_counts_differ_by_at_most_one():
    records = (
        [make_record(i, "nq_flood", label="yes") for i in range(13)]
        + [make_record(100 + i, "nq_flood", label="no") for i in range(12)]
    )
    folds = make_folds(records, 5, seed=3)
    for label in ("yes", "no"):
        counts = [sum(1 for r in test if r.unified_label == label) for _, test in folds]
        assert max(counts) - min(counts) <= 1


def test_make_folds_depends_only_on_ids_k_seed():
    records = balanced_records(10, 10, "nq_flood")
    a = held_out_ids(make_folds(records, 4, seed=9))
    b = held_out_ids(make_folds(list(reversed(records)), 4, seed=9))
    assert a == b
    assert a != held_out_ids(make_folds(records, 4, seed=10))


def test_make_folds_validation():
    records = balanced_records(3, 3, "nq_flood")
    with pytest.raises(ValueError, match="k must be"):
        make_folds(records, 1, seed=0)
    with pytest.raises(ValueError, match="cannot split"):
        make_folds(records[:2], 3, seed=0)
    raw = [make_record(i, label="relevant") for i in range(4)]  # no unified label
    with pytest.raises(LabelError, match="unified_label"):
        make_folds(raw, 2, seed=0)


def test_make_folds_splits_cover_and_exclude():
    records = balanced_records(10, 10, "nq_flood")
    for train, test in make_folds(records, 5, seed=1):
        assert len(train) + len(test) == len(records)
        assert {r.id for r in train} & {r.id for r in test} == set()
        # each split keeps input order
        assert train == [r for r in records if r in train]
        assert test == [r for r in records if r in test]


# ---------------------------------------------------------------------------
# Adaptation plans


def two_event_splits() -> dict[str, EventSplits]:
    return {
        "nq_flood": EventSplits(
            train=[make_record(i, "nq_flood") for i in range(6)],
            test=[make_record(50 + i, "nq_flood") for i in range(3)],
        ),
        "np_quake": EventSplits(
            train=[make_record(100 + i, "np_quake") for i in range(6)],
            test=[make_record(150 + i, "np_quake") for i in range(3)],
        ),
    }


def test_compose_plan_cross_domain():
    splits = two_event_splits()
    plan = compose_plan({"nq_flood"}, "np_quake", "postq", splits, seed=4)
    assert plan.task_id == "nq_flood->np_quake/postq"
    assert plan.source_events != frozenset({plan.target_event})
    assert {r.event_id for r in plan.source_dataset} == {"nq_flood"}
    assert {r.event_id for r in plan.target_test_set} == {"np_quake"}
    assert len(plan.source_dataset) == 6


def test_compose_plan_in_domain():
    plan = compose_plan({"nq_flood"}, "nq_flood", "standard", two_event_splits(), 0)
    assert plan.source_events == frozenset({plan.target_event})
    assert plan.task_id == "nq_flood->nq_flood/standard"


def test_compose_plan_pools_sources_deterministically():
    splits = two_event_splits()
    splits["third"] = EventSplits(
        train=[make_record(900, "third")], test=[make_record(901, "third")]
    )
    a = compose_plan({"nq_flood", "np_quake"}, "third", "postq", splits, 7)
    b = compose_plan({"np_quake", "nq_flood"}, "third", "postq", splits, 7)
    assert [r.id for r in a.source_dataset] == [r.id for r in b.source_dataset]
    assert len(a.source_dataset) == 12
    assert a.task_id == "np_quake+nq_flood->third/postq"
    c = compose_plan({"nq_flood", "np_quake"}, "third", "postq", splits, 8)
    assert [r.id for r in a.source_dataset] != [r.id for r in c.source_dataset]
    assert sorted(r.id for r in a.source_dataset) == sorted(r.id for r in c.source_dataset)


def test_compose_plan_rejects_empty_sources():
    with pytest.raises(PlanError, match="empty"):
        compose_plan(frozenset(), "nq_flood", "postq", two_event_splits(), 0)


def test_compose_plan_rejects_target_inside_multi_source():
    with pytest.raises(PlanError, match="inside"):
        compose_plan(
            {"nq_flood", "np_quake"}, "np_quake", "postq", two_event_splits(), 0
        )


def test_compose_plan_rejects_missing_event():
    with pytest.raises(DataError, match="ghost"):
        compose_plan({"ghost"}, "np_quake", "postq", two_event_splits(), 0)


def test_compose_plan_rejects_empty_training_split():
    splits = two_event_splits()
    splits["nq_flood"] = EventSplits(train=[], test=splits["nq_flood"].test)
    with pytest.raises(DataError, match="no training data"):
        compose_plan({"nq_flood"}, "np_quake", "postq", splits, 0)


def test_compose_plan_rejects_foreign_records():
    splits = two_event_splits()
    splits["nq_flood"].train.append(make_record(999, "np_quake"))
    with pytest.raises(DataError, match="foreign"):
        compose_plan({"nq_flood"}, "np_quake", "postq", splits, 0)


def test_compose_plan_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="scenario"):
        compose_plan({"nq_flood"}, "np_quake", "sideways", two_event_splits(), 0)


def test_splits_by_event_groups_and_sorts():
    train = [make_record(i, ev) for ev in ("b_ev", "a_ev") for i in range(2)]
    test = [make_record(10 + i, "a_ev") for i in range(2)]
    grouped = splits_by_event(train, test)
    assert list(grouped) == ["a_ev", "b_ev"]
    assert len(grouped["a_ev"].train) == 2
    assert len(grouped["a_ev"].test) == 2
    assert grouped["b_ev"].test == []
