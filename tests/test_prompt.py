"""Input augmentation templates, byte-for-byte."""

import pytest

from conftest import make_record
from crisisadapt.corpus import EventDescriptor
from crisisadapt.prompt import (
    LABELS,
    SCENARIOS,
    construct,
    event_phrase,
    parse_label,
    parse_scenario,
    target_text,
)

QLD = EventDescriptor("nq_flood", "Queensland", "Floods")
NEPAL_NOLOC = EventDescriptor("np_quake", "", "Nepal Earthquake")
WTX = EventDescriptor("wt_expl", "West Texas", "Explosion")
ALBERTA = EventDescriptor("ab_flood", "Alberta", "Floods")

# (text, scenario, event, expected) — exact bytes, no normalization anywhere
CASES = [
    # standard passes text through untouched
    ("water rising fast", "standard", ALBERTA, "water rising fast"),
    ("", "standard", QLD, ""),
    ("Tabs\tand CAPS stay", "standard", WTX, "Tabs\tand CAPS stay"),
    ("ends with period.", "standard", NEPAL_NOLOC, "ends with period."),
    # postq embeds location + crisis
    ("water rising fast", "postq", ALBERTA,
     "Content: water rising fast. Question: Is this message relevant to Alberta Floods?"),
    ("roads cut off", "postq", QLD,
     "Content: roads cut off. Question: Is this message relevant to Queensland Floods?"),
    ("", "postq", NEPAL_NOLOC,
     "Content: . Question: Is this message relevant to Nepal Earthquake?"),
    ("tremors felt again", "postq", NEPAL_NOLOC,
     "Content: tremors felt again. Question: Is this message relevant to Nepal Earthquake?"),
    # the ". " glue is always inserted, even after punctuation
    ("it flooded!", "postq", QLD,
     "Content: it flooded!. Question: Is this message relevant to Queensland Floods?"),
    # variant1 keeps only the crisis name
    ("water rising fast", "variant1", ALBERTA,
     "Content: water rising fast. Question: Is this message relevant to Floods?"),
    ("", "variant1", WTX,
     "Content: . Question: Is this message relevant to Explosion?"),
    ("dust everywhere", "variant1", NEPAL_NOLOC,
     "Content: dust everywhere. Question: Is this message relevant to Nepal Earthquake?"),
    # variant2 rearranges into "a {C} event that occurred in {L}"
    ("boom heard downtown", "variant2", WTX,
     "Content: boom heard downtown. Question: Is this message relevant to a Explosion "
     "event that occurred in West Texas?"),
    ("water rising fast", "variant2", ALBERTA,
     "Content: water rising fast. Question: Is this message relevant to a Floods "
     "event that occurred in Alberta?"),
    ("", "variant2", QLD,
     "Content: . Question: Is this message relevant to a Floods event that occurred "
     "in Queensland?"),
    # variant3 drops the task description
    ("water rising fast", "variant3", ALBERTA,
     "Content: water rising fast. Question: Alberta Floods?"),
    ("roads cut off", "variant3", QLD,
     "Content: roads cut off. Question: Queensland Floods?"),
    ("", "variant3", NEPAL_NOLOC, "Content: . Question: Nepal Earthquake?"),
    ("shaking stopped", "variant3", NEPAL_NOLOC,
     "Content: shaking stopped. Question: Nepal Earthquake?"),
    ("boom heard downtown", "variant3", WTX,
     "Content: boom heard downtown. Question: West Texas Explosion?"),
]


def test_fixture_has_twenty_cases_across_all_scenarios():
    assert len(CASES) == 20
    assert {scenario for _, scenario, _, _ in CASES} == set(SCENARIOS)


@pytest.mark.parametrize("text,scenario,event,expected", CASES)
def test_templates_byte_exact(text, scenario, event, expected):
    aug = construct(make_record(0, event.event_id, text), scenario, event)
    assert aug.text == expected


@pytest.mark.parametrize("text,scenario,event,expected", CASES)
def test_content_span_recovers_original_text(text, scenario, event, expected):
    aug = construct(make_record(0, event.event_id, text), scenario, event)
    start, end = aug.content_span
    assert aug.text[start:end] == text


def test_variant2_requires_location():
    rec = make_record(0, "np_quake", "any text")
    with pytest.raises(ValueError, match="location"):
        construct(rec, "variant2", NEPAL_NOLOC)
    with pytest.raises(ValueError, match="location"):
        event_phrase(NEPAL_NOLOC, "variant2")


def test_template_constancy_outside_content_span():
    for scenario in SCENARIOS:
        a = construct(make_record(0, "nq_flood", "first message"), scenario, QLD)
        b = construct(make_record(1, "nq_flood", "a different text"), scenario, QLD)
        assert a.text[: a.content_span[0]] == b.text[: b.content_span[0]]
        assert a.text[a.content_span[1]:] == b.text[b.content_span[1]:]


def test_variant3_is_postq_without_task_description():
    rec = make_record(0, "nq_flood", "roads cut off")
    postq = construct(rec, "postq", QLD).text
    variant3 = construct(rec, "variant3", QLD).text
    assert postq.replace("Is this message relevant to ", "", 1) == variant3


def test_event_phrase_examples():
    assert event_phrase(QLD, "postq") == "Queensland Floods"
    assert event_phrase(NEPAL_NOLOC, "postq") == "Nepal Earthquake"
    assert event_phrase(ALBERTA, "variant1") == "Floods"
    assert event_phrase(QLD, "standard") == ""
    assert event_phrase(WTX, "variant3") == "West Texas Explosion"
    assert event_phrase(WTX, "variant2") == "a Explosion event that occurred in West Texas"


def test_parse_scenario_normalizes_and_rejects():
    assert parse_scenario(" PostQ ") == "postq"
    assert parse_scenario("STANDARD") == "standard"
    with pytest.raises(ValueError, match="unknown scenario"):
        parse_scenario("question-first")


def test_target_text_round_trip():
    for label in LABELS:
        assert target_text(label) == label
        assert parse_label(target_text(label)) == label
    with pytest.raises(ValueError):
        target_text("maybe")


def test_parse_label_rejects_non_labels():
    assert parse_label("yes") == "yes"
    assert parse_label("no") == "no"
    assert parse_label("") is None
    assert parse_label("yes no") is None
    assert parse_label("Yes") is None
