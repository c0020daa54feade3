from __future__ import annotations

import pytest

import diagideal.replay as replay
from diagideal.errors import FormatError
from diagideal.replay import (
    GOLDEN_FILES,
    golden_text,
    load_case,
    replay_colon_mismatch,
    replay_product,
    replay_redistribute,
    replay_window_quotients,
    run_paper_replay,
)


def test_all_golden_files_parse():
    for name in GOLDEN_FILES:
        case = load_case(name)
        assert case.shape is not None
        assert case.windows


def test_golden_text_is_ascii_and_commented():
    for name in GOLDEN_FILES:
        text = golden_text(name)
        text.encode("ascii")
        assert text.lstrip().startswith("#")


def test_window_quotients_replay():
    records = replay_window_quotients()
    assert len(records) == 10  # generators + nine colon steps
    assert all(r["ok"] for r in records)


def test_redistribute_replay():
    records = replay_redistribute()
    assert len(records) == 5
    assert all(r["ok"] for r in records)


def test_product_replay():
    (record,) = replay_product()
    assert record["ok"]


def test_colon_mismatch_replays():
    for name in ("colon_mismatch_3x9.txt", "colon_mismatch_3x8.txt"):
        (record,) = replay_colon_mismatch(name)
        assert record["ok"], record


def test_full_replay_names_unique_and_pass():
    records = run_paper_replay()
    names = [r["name"] for r in records]
    assert len(names) == len(set(names))
    assert len(records) == 18
    assert all(r["ok"] for r in records)
    for record in records:
        assert set(record) == {"name", "ok", "expected", "got"}



@pytest.mark.parametrize(
    "replay_one, name, drop",
    [
        (replay_window_quotients, "window_2_6_quotients.txt", "generators"),
        (replay_redistribute, "redistribute_6x16.txt", None),
        (replay_product, "product_1x3.txt", "product"),
        (lambda: replay_colon_mismatch("colon_mismatch_3x9.txt"), "colon_mismatch_3x9.txt", "claimed"),
        (lambda: replay_colon_mismatch("colon_mismatch_3x9.txt"), "colon_mismatch_3x9.txt", "expect"),
    ],
)
def test_replay_rejects_incomplete_golden_case(replay_one, name, drop, monkeypatch):
    # drop one key's lines from the golden file, or empty it when drop is None
    real = replay.golden_text
    lines = real(name).splitlines() if drop else []
    text = "\n".join(line for line in lines if not line.startswith(drop + " "))
    monkeypatch.setattr(replay, "golden_text", lambda n: text if n == name else real(n))
    with pytest.raises(FormatError):
        replay_one()
