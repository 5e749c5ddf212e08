"""Event-aware input construction: wraps each message with a task
description and an event description before it reaches the model.

Five scenarios are supported. `standard` feeds the raw message. The
others embed the message in a fixed question template whose event phrase
is built from the event's location and crisis names; the appended text is
constant across records for a fixed (scenario, event), so the message
content is the only varying part of the input.

In cross-domain runs the event phrase comes from each record's own source
event at training time and from the target event at testing time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import CrisisRecord, EventDescriptor

STANDARD = "standard"
POSTQ = "postq"
VARIANT1 = "variant1"
VARIANT2 = "variant2"
VARIANT3 = "variant3"

SCENARIOS = (STANDARD, POSTQ, VARIANT1, VARIANT2, VARIANT3)

TASK_DESCRIPTION = "Is this message relevant to"

LABELS = ("yes", "no")


@dataclass(frozen=True)
class AugmentedInput:
    """A constructed model input and the location of the message inside it."""

    text: str
    content_span: tuple[int, int]  # [start, end) of the original message


def parse_scenario(name: str) -> str:
    """Normalize a CLI-facing scenario name (case-insensitive)."""
    canonical = name.strip().lower()
    if canonical not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIOS)}"
        )
    return canonical


def event_phrase(event: EventDescriptor, scenario: str) -> str:
    """The event-description substring exactly as it appears in the template.

    Location and crisis name are joined with a single space, omitting an
    empty location. `standard` appends no event text, so its phrase is
    empty; `variant2` embeds the names in a longer clause.
    """
    scenario = parse_scenario(scenario)
    loc, crisis = event.location_name, event.crisis_name
    joined = " ".join(part for part in (loc, crisis) if part)
    if scenario == STANDARD:
        return ""
    if scenario in (POSTQ, VARIANT3):
        return joined
    if scenario == VARIANT1:
        return crisis
    # variant2
    if not loc:
        raise ValueError(
            f"scenario variant2 requires a location_name; event {event.event_id!r} has none"
        )
    return f"a {crisis} event that occurred in {loc}"


def construct(
    record: CrisisRecord, scenario: str, event: EventDescriptor
) -> AugmentedInput:
    """Build the augmented input for one record under the given scenario.

    Templates (L = location_name, C = crisis_name, E = space-joined
    non-empty parts of (L, C)), reproduced byte-for-byte:

        standard  "{text}"
        postq     "Content: {text}. Question: Is this message relevant to {E}?"
        variant1  "Content: {text}. Question: Is this message relevant to {C}?"
        variant2  "Content: {text}. Question: Is this message relevant to a {C} event that occurred in {L}?"
        variant3  "Content: {text}. Question: {E}?"

    The glue ". " after {text} is always inserted, even when the message
    already ends in punctuation.
    """
    scenario = parse_scenario(scenario)
    text = record.text
    if scenario == STANDARD:
        return AugmentedInput(text, (0, len(text)))

    phrase = event_phrase(event, scenario)
    if scenario in (POSTQ, VARIANT1, VARIANT2):
        question = f"{TASK_DESCRIPTION} {phrase}?"
    else:  # variant3 drops the task description
        question = f"{phrase}?"
    prefix = "Content: "
    built = f"{prefix}{text}. Question: {question}"
    return AugmentedInput(built, (len(prefix), len(prefix) + len(text)))


def target_text(unified_label: str) -> str:
    """Map a unified label onto the exact target string the decoder learns."""
    if unified_label not in LABELS:
        raise ValueError(f"unified_label must be yes/no, got {unified_label!r}")
    return unified_label


def parse_label(text: str) -> str | None:
    """Inverse of target_text: exact match against the label strings, else None."""
    return text if text in LABELS else None
