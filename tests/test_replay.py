from __future__ import annotations

from importlib import resources

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
        assert case["shape"]
        assert case["window"]


def test_shipped_golden_directory_holds_exactly_the_golden_files():
    golden = resources.files("diagideal").joinpath("data").joinpath("golden")
    assert sorted(entry.name for entry in golden.iterdir()) == sorted(GOLDEN_FILES)


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


def test_full_replay_reads_every_golden_file_and_pins_record_names(monkeypatch):
    read = []
    real = replay.golden_text
    monkeypatch.setattr(replay, "golden_text", lambda name: read.append(name) or real(name))
    records = run_paper_replay()
    assert sorted(read) == sorted(GOLDEN_FILES)
    assert [r["name"] for r in records] == [
        "window (2,6) generators",
        *(f"window (2,6) colon step {index}" for index in range(1, 10)),
        *(f"redistribute 6x16 factor {position}" for position in range(1, 6)),
        "product 1x3 windows (1,2)*(2,3)",
        "colon_mismatch_3x9 stays unequal",
        "colon_mismatch_3x8 stays unequal",
    ]


@pytest.mark.parametrize(
    "replay_one, name, drop",
    [
        (replay_window_quotients, "window_2_6_quotients.txt", "generators"),
        (replay_window_quotients, "window_2_6_quotients.txt", "window"),
        (replay_window_quotients, "window_2_6_quotients.txt", "step"),
        (replay_redistribute, "redistribute_6x16.txt", None),
        (replay_redistribute, "redistribute_6x16.txt", "window"),
        (replay_redistribute, "redistribute_6x16.txt", "factor"),
        (replay_redistribute, "redistribute_6x16.txt", "result"),
        (replay_product, "product_1x3.txt", "product"),
        (replay_product, "product_1x3.txt", "window"),
        (lambda: replay_colon_mismatch("colon_mismatch_3x9.txt"), "colon_mismatch_3x9.txt", "claimed"),
        (lambda: replay_colon_mismatch("colon_mismatch_3x9.txt"), "colon_mismatch_3x9.txt", "expect"),
        (lambda: replay_colon_mismatch("colon_mismatch_3x9.txt"), "colon_mismatch_3x9.txt", "window"),
        (lambda: replay_colon_mismatch("colon_mismatch_3x8.txt"), "colon_mismatch_3x8.txt", "window"),
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


@pytest.mark.parametrize(
    "text",
    [
        "shape 1 3\nwindow 1\nproduct <x[1,1]>",
        "shape 1 x\nwindow 1 2\nproduct <x[1,1]>",
        "shape 1 3\nwindow 1 2 3\nproduct <x[1,1]>",
        "shape 1 3\nwindow 1 two\nproduct <x[1,1]>",
    ],
    ids=["window-one-value", "shape-not-integer", "window-three-values", "window-not-integer"],
)
def test_load_case_rejects_a_malformed_value(text, monkeypatch):
    real = replay.golden_text
    monkeypatch.setattr(replay, "golden_text", lambda n: text if n == "product_1x3.txt" else real(n))
    with pytest.raises(FormatError, match="product_1x3.txt: bad"):
        replay_product()


@pytest.mark.parametrize(
    "name, field, broken",
    [
        ("colon_mismatch_3x9.txt", "colon_by", "colon_by x[1,3]*x[2,4]*x[3,6]"),
        ("colon_mismatch_3x8.txt", "colon_by", "colon_by x[1,4]*x[2,5]*x[3,8]"),
        ("colon_mismatch_3x9.txt", "claimed", "claimed <x[1,1]*x[2,2]*x[3,3]>"),
        ("colon_mismatch_3x8.txt", "claimed", "claimed <x[1,2], x[1,3], x[2,5]>"),
        ("colon_mismatch_3x8.txt", "prefix_through", "prefix_through x[1,1]*x[2,2]*x[3,3]"),
    ],
    ids=["3x9-colon-by", "3x8-colon-by", "3x9-claimed", "3x8-claimed", "3x8-prefix-through"],
)
def test_colon_mismatch_checks_its_own_golden_fields(name, field, broken, monkeypatch):
    # prefix_through must be a diagonal of the first window, colon_by
    # diagonal number cutoff of it, and claimed that step's closed form: a
    # prefix_through outside the window or a colon_by off by one diagonal is
    # a FormatError, and a claimed ideal that is not the closed form fails
    # the record, though the brute colon still differs from it.
    real = replay.golden_text
    text = "\n".join(
        broken if line.startswith(field + " ") else line for line in real(name).splitlines()
    )
    assert text != real(name)
    monkeypatch.setattr(replay, "golden_text", lambda n: text if n == name else real(n))
    if field == "claimed":
        (record,) = replay_colon_mismatch(name)
        assert not record["ok"]
    else:
        with pytest.raises(FormatError, match=f"{name}: {field} is not"):
            replay_colon_mismatch(name)
