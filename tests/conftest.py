import numpy as np
import pytest

from crisisadapt.corpus import CrisisRecord, EventDescriptor


def make_record(i: int, event_id: str = "evt", text: str | None = None,
                label: str = "yes") -> CrisisRecord:
    return CrisisRecord(
        id=f"{event_id}:{i:04d}",
        text=text if text is not None else f"message number {i}",
        raw_label=label,
        event_id=event_id,
        unified_label=label if label in ("yes", "no") else None,
    )


@pytest.fixture
def flood_event() -> EventDescriptor:
    return EventDescriptor("nq_flood", "Queensland", "Floods")


@pytest.fixture
def quake_event() -> EventDescriptor:
    return EventDescriptor("np_quake", "Nepal", "Earthquake")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(20240817))


def scripted_decoder(decode_logits, script, rows=None):
    """Wrap a `model.decode_logits` so that greedy decoding emits the ids
    in `script` first: at position t, every row's logit for script[t] is
    raised by 100. Positions past the script keep the model's logits.
    With `rows`, only the rows where `rows(src_mask)` is true are
    scripted (`src_mask` is the decoder's [B, S] source mask)."""
    def scripted(params, enc_states, src_mask, *args, **kwargs):
        logits = decode_logits(params, enc_states, src_mask, *args, **kwargs)
        picked = slice(None) if rows is None else rows(np.asarray(src_mask))
        for t, tok in enumerate(script[: logits.data.shape[1]]):
            logits.data[picked, t, tok] += 100.0
        return logits
    return scripted
