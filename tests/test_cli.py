from __future__ import annotations

import json
from dataclasses import fields

import pytest

from diagideal import checks
from diagideal.caps import Caps, parse_caps_text
from diagideal.cli import EXIT_BROKEN_PIPE, main
from diagideal.errors import DomainError, FormatError
from diagideal.replay import run_paper_replay


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_diagonals_text(capsys):
    code, out = run_cli(
        capsys, "diagonals", "--rows", "1", "--cols", "3", "--window", "1,2"
    )
    assert code == 0
    assert out.splitlines() == ["x[1,1]", "x[1,2]"]


def test_diagonals_single_square_window(capsys):
    code, out = run_cli(
        capsys, "diagonals", "--rows", "2", "--cols", "2", "--window", "1,2"
    )
    assert code == 0
    assert out.splitlines() == ["x[1,1]*x[2,2]"]


def test_diagonals_json(capsys):
    code, out = run_cli(
        capsys,
        "diagonals", "--rows", "3", "--cols", "8", "--window", "2,6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == [3, 8]
    assert len(payload["generators"]) == 10


def test_ideal_product(capsys):
    code, out = run_cli(
        capsys,
        "ideal-product", "--rows", "1", "--cols", "3", "--chain", "1,2:2,3",
    )
    assert code == 0
    assert out.splitlines() == [
        "x[1,1]*x[1,2]",
        "x[1,1]*x[1,3]",
        "x[1,2]^2",
        "x[1,2]*x[1,3]",
    ]


def test_unsorted_chain_gives_sorted_output(capsys):
    # The window product is defined for any order of windows.
    for command in (
        ("ideal-product",),
        ("betti", "--format", "json"),
        ("reg", "--format", "json"),
    ):
        outputs = []
        for chain in ("3,7:1,5", "1,5:3,7"):
            code, out = run_cli(
                capsys, *command, "--rows", "3", "--cols", "9", "--chain", chain
            )
            assert code == 0, (command, chain, out)
            outputs.append(out)
        assert outputs[0] == outputs[1], command


def test_groebner_and_verify_reject_unsorted_chain(capsys):
    for argv in (
        ("groebner", "--rows", "2", "--cols", "5", "--chain", "2,5:1,4"),
        ("verify", "--target", "lemma2", "--rows", "2", "--cols", "5",
         "--chain", "2,5:1,4"),
    ):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 2, argv
        assert "sorted" in json.loads(out)["error"]


def test_colon_step_agrees(capsys):
    code, out = run_cli(
        capsys,
        "colon", "--rows", "3", "--cols", "8", "--chain", "2,6",
        "--step", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["brute"] == "<x[2,3]>"


def test_colon_force_brute_skips_closed_form(capsys):
    code, out = run_cli(
        capsys,
        "colon", "--rows", "3", "--cols", "9", "--chain", "3,7:1,5",
        "--step", "0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] is None and payload["equal"] is None


def test_colon_step_out_of_range(capsys):
    code, _ = run_cli(
        capsys,
        "colon", "--rows", "3", "--cols", "8", "--chain", "2,6", "--step", "99",
    )
    assert code == 2


def test_verify_lemma1_text(capsys):
    code, out = run_cli(
        capsys, "verify", "--target", "lemma1", "--rows", "3", "--cols", "8", "--window", "2,6"
    )
    assert code == 0
    assert out.startswith("PASS")


def test_linquot_verify_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["linquot-verify", "--rows", "3", "--cols", "8", "--window", "2,6"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_betti_json(capsys):
    code, out = run_cli(
        capsys,
        "betti", "--rows", "1", "--cols", "3", "--chain", "1,2:2,3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reg"] == 2
    assert {(r["i"], r["j"]): r["beta"] for r in payload["rows"]} == {
        (0, 2): 4, (1, 3): 4, (2, 4): 1,
    }


def test_betti_oracles_agree(capsys):
    outputs = []
    for oracle in ("homology", "cone"):
        code, out = run_cli(
            capsys,
            "betti", "--rows", "3", "--cols", "8", "--window", "2,6",
            "--oracle", oracle, "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        outputs.append(payload["rows"])
    assert outputs[0] == outputs[1]


# The Stanley-Reisner ideal of the six-vertex real projective plane, with
# x[1,1], x[1,2], x[1,3], x[2,1], x[2,2], x[2,3] as its vertices.
RP2 = (
    "<x[1,1]*x[1,2]*x[2,1], x[1,1]*x[1,2]*x[2,2], x[1,1]*x[1,3]*x[2,2], "
    "x[1,1]*x[1,3]*x[2,3], x[1,1]*x[2,1]*x[2,3], x[1,2]*x[1,3]*x[2,1], "
    "x[1,2]*x[1,3]*x[2,3], x[1,2]*x[2,2]*x[2,3], x[1,3]*x[2,1]*x[2,2], "
    "x[2,1]*x[2,2]*x[2,3]>"
)


@pytest.mark.parametrize("char", [0, 2, 3, 32003])
def test_homology_oracle_sees_torsion_in_char_2(char, capsys):
    # H_1(RP^2) has 2-torsion, so over GF(2) the resolution gains two
    # Betti numbers in degree 6 and regularity 4; every other field agrees
    # with the rationals.
    code, out = run_cli(
        capsys, "betti", "--rows", "2", "--cols", "3", "--oracle", "homology",
        "--char", str(char), "--gens", RP2,
    )
    assert code == 0
    expected = ["beta[0,3] = 10", "beta[1,4] = 15", "beta[2,5] = 6"]
    if char == 2:
        expected += ["beta[2,6] = 1", "beta[3,6] = 1", "reg = 4"]
    else:
        expected += ["reg = 3"]
    assert out.splitlines() == expected


@pytest.mark.parametrize("oracle", ["auto", "cone", "homology"])
def test_every_oracle_honours_char(oracle, capsys):
    source = ("--rows", "2", "--cols", "4", "--chain", "1,3:2,4", "--oracle", oracle)
    code, out = run_cli(capsys, "betti", *source, "--char", "32003", "--format", "json")
    assert code == 0
    assert json.loads(out)["char"] == 32003
    for command in ("betti", "reg"):
        code, out = run_cli(capsys, command, *source, "--char", "4", "--format", "json")
        assert code == 2
        assert "4 is not prime" in json.loads(out)["error"]


def test_reg_from_gens_text(capsys):
    code, out = run_cli(
        capsys,
        "reg", "--rows", "1", "--cols", "4",
        "--gens", "<x[1,1]*x[1,2], x[1,3]*x[1,4]>",
        "--oracle", "homology",
    )
    assert code == 0
    assert "reg = 3" in out
    assert "linear resolution: no" in out
    code, out = run_cli(
        capsys,
        "reg", "--rows", "1", "--cols", "3",
        "--gens", "<x[1,1], x[1,2]*x[1,3]>", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"reg": 2, "degree": None, "linear": None}


def test_reg_requires_exactly_one_source(capsys):
    code, _ = run_cli(
        capsys,
        "reg", "--rows", "1", "--cols", "4",
        "--gens", "<x[1,1]>", "--window", "1,4",
    )
    assert code == 2


def test_zero_ideal_gives_one_message_under_every_oracle(capsys):
    for command in ("betti", "reg"):
        for oracle in ("auto", "cone", "homology"):
            code, out = run_cli(
                capsys,
                command, "--rows", "2", "--cols", "3", "--gens", "<>",
                "--oracle", oracle, "--format", "json",
            )
            assert code == 2, (command, oracle)
            assert json.loads(out)["error"] == "Betti table of the zero ideal is undefined"


def test_groebner_classical_anchor(capsys):
    code, out = run_cli(
        capsys,
        "groebner", "--rows", "2", "--cols", "3", "--chain", "1,3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["basis"]) == 3
    assert len(payload["initial_ideal"]) == 3


def test_conjecture_scan_text(capsys):
    code, out = run_cli(
        capsys,
        "conjecture-scan", "--max-rows", "1", "--max-cols", "4",
        "--max-factors", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("true") for line in lines)


def test_conjecture_scan_bounds_capped(capsys):
    code, _ = run_cli(
        capsys,
        "conjecture-scan", "--max-rows", "9", "--max-cols", "4",
        "--max-factors", "1",
    )
    assert code == 2


def test_verify_remarks(capsys):
    code, out = run_cli(capsys, "verify", "--target", "remarks")
    assert code == 0
    assert out.count("PASS") == 2


def test_remarks_are_the_replay_negative_controls():
    controls = [{"check": "negative-control", **r} for r in run_paper_replay()[-2:]]
    remarks = checks.remarks_report()
    assert remarks == controls
    assert [list(r) for r in remarks] == [list(r) for r in controls]


@pytest.mark.parametrize(
    "target, instances",
    [
        ("lemma2", [
            ([1, 3], [[1, 2], [2, 3]]),
            ([2, 4], [[1, 3], [2, 4]]),
            ([2, 5], [[1, 4], [2, 5]]),
            ([3, 8], [[2, 6], [2, 6]]),
            ([3, 9], [[1, 5], [3, 7]]),
        ]),
        ("theorem", [
            ([1, 3], [[1, 2], [2, 3]]),
            ([2, 4], [[1, 3], [2, 4]]),
            ([2, 4], [[1, 4]]),
            ([3, 6], [[2, 5]]),
            ([2, 5], [[1, 3], [3, 5]]),
        ]),
    ],
)
def test_verify_default_instances(target, instances):
    reports = list(checks.verify_reports(target))
    assert [(r["shape"], r["chain"]) for r in reports] == instances
    assert all(r["ok"] for r in reports)


def test_verify_single_window(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--target", "lemma1", "--rows", "3", "--cols", "8",
        "--window", "2,6", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["steps"]) == 9


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    def fake_reports(*args, **kwargs):
        yield {"check": "stub", "ok": False}

    monkeypatch.setattr(checks, "verify_reports", fake_reports)
    code, out = run_cli(capsys, "verify", "--target", "remarks")
    assert code == 1
    assert out.startswith("FAIL")


def test_text_output_of_every_renderer(tmp_path, capsys, monkeypatch):
    # The exact text lines of each command that renders its own text.
    def text(*argv):
        code, out = run_cli(capsys, *argv)
        return code, out.splitlines()

    assert text("groebner", "--rows", "2", "--cols", "3", "--chain", "1,3") == (0, [
        "reduced basis (3 elements, 2 S-pairs):",
        "  x[1,1]*x[2,2] + 32002*x[1,2]*x[2,1]",
        "  x[1,1]*x[2,3] + 32002*x[1,3]*x[2,1]",
        "  x[1,2]*x[2,3] + 32002*x[1,3]*x[2,2]",
        "initial ideal: <x[1,1]*x[2,2], x[1,1]*x[2,3], x[1,2]*x[2,3]>",
    ])
    assert text("reg", "--rows", "3", "--cols", "9", "--chain", "1,5:3,7") == (
        0, ["reg = 6", "linear resolution: yes"]
    )
    assert text("reg", "--rows", "1", "--cols", "3", "--gens", "<x[1,1], x[1,2]*x[1,3]>") == (
        0, ["reg = 2"]
    )
    config = tmp_path / "caps.txt"
    config.write_text("max_spairs = 1\n")
    code, lines = text(
        "conjecture-scan", "--max-rows", "2", "--max-cols", "3", "--max-factors", "1",
        "--caps", str(config),
    )
    assert code == 0
    assert lines[0] == "true shape=[1, 2] chain=[[1, 2]] spairs=1"
    assert lines[-2] == (
        "SKIP chain=[[1,3]] char=32003 error=S-pair cap 1 reached shape=[2,3] skipped=True"
    )
    assert text("colon", "--rows", "3", "--cols", "8", "--chain", "2,6", "--step", "3") == (
        0, ["INFO brute=<x[2,3]> chain=[[2,6]] closed=<x[2,3]> equal=True shape=[3,8] u=3"]
    )
    code, lines = text("paper-replay")
    assert code == 0 and lines[0] == "PASS window (2,6) generators"

    def failing_report(*args, **kwargs):
        yield {
            "check": "stub", "shape": [2, 4], "ok": False,
            "steps": [
                {"u": 1, "brute": "<x[1,1]>", "closed": "<x[1,2]>", "equal": False},
                {"u": 2, "brute": "<x[1,1]>", "closed": "<x[1,1]>", "equal": True},
            ],
        }

    monkeypatch.setattr(checks, "verify_reports", failing_report)
    assert text("verify", "--target", "remarks") == (1, [
        "FAIL check=stub shape=[2,4]",
        "  step u=1 brute=<x[1,1]> closed=<x[1,2]>",
    ])


def test_paper_replay_exit_zero(capsys):
    code, out = run_cli(capsys, "paper-replay")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_json_output_is_deterministic(capsys):
    argv = (
        "verify", "--target", "lemma2", "--rows", "2", "--cols", "5",
        "--chain", "1,4:2,5", "--format", "json",
    )
    code_a, out_a = run_cli(capsys, *argv)
    code_b, out_b = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out = run_cli(
        capsys,
        "paper-replay", "--format", "json", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 18
    assert all(json.loads(line)["ok"] for line in lines)


def test_unopenable_output_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out = run_cli(capsys, "paper-replay", "--format", "json", "--output", str(target))
    assert code == 2
    record = json.loads(out)
    assert record["ok"] is False and "report.txt" in record["error"]
    assert not target.exists()


def verify_exit_code(capsys, monkeypatch, *flags):
    def no_reports(*args, **kwargs):
        raise AssertionError("verify ran despite its bad flags")

    monkeypatch.setattr(checks, "verify_reports", no_reports)
    code, out = run_cli(capsys, "verify", "--format", "json", *flags)
    assert json.loads(out)["ok"] is False
    return code


@pytest.mark.parametrize(
    "flags",
    [
        ("--target", "lemma1", "--window", "2,6"),
        ("--target", "theorem", "--chain", "1,3:2,4"),
        ("--target", "lemma1", "--rows", "3", "--window", "2,6"),
    ],
)
def test_verify_rejects_an_instance_without_its_grid(flags, capsys, monkeypatch):
    assert verify_exit_code(capsys, monkeypatch, *flags) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--target", "lemma1", "--rows", "3", "--cols", "8"),
        ("--target", "all", "--rows", "3", "--cols", "8", "--window", "2,6"),
    ],
)
def test_verify_rejects_a_grid_without_its_instance(flags, capsys, monkeypatch):
    assert verify_exit_code(capsys, monkeypatch, *flags) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--target", "theorem", "--rows", "2", "--cols", "4", "--window", "1,3"),
        ("--target", "lemma1", "--rows", "3", "--cols", "8", "--window", "2,6",
         "--chain", "2,6"),
        ("--target", "remarks", "--rows", "2", "--cols", "4"),
    ],
)
def test_verify_rejects_a_flag_its_target_does_not_read(flags, capsys, monkeypatch):
    assert verify_exit_code(capsys, monkeypatch, *flags) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--target", "lemma1", "--rows", "3", "--cols", "8", "--window", ""),
        ("--target", "theorem", "--rows", "2", "--cols", "4", "--chain", ""),
        ("--target", "lemma2", "--rows", "2", "--cols", "4", "--chain", ":"),
        ("--target", "remarks", "--caps", ""),
        ("--target", "remarks", "--output", ""),
    ],
    ids=["window", "chain", "chain-of-colons", "caps", "output"],
)
def test_verify_rejects_an_empty_flag_value(flags, capsys, monkeypatch):
    # An empty value is given, so it is parsed and rejected with a typed
    # error, never skipped as if the flag were absent.
    assert verify_exit_code(capsys, monkeypatch, *flags) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ("--window", ""),
        ("--chain", ""),
        ("--gens", ""),
        ("--gens-file", ""),
        ("--chain", "1,3:2,4", "--window", ""),
        ("--chain", "1,3:2,4", "--gens", ""),
        ("--chain", "1,3:2,4", "--gens-file", ""),
    ],
)
def test_betti_rejects_an_empty_ideal_source(flags, capsys):
    # An empty source counts as given: it is parsed and rejected, or clashes
    # with the other source, and is never skipped in favour of it.
    code, out = run_cli(capsys, "betti", "--rows", "2", "--cols", "4", "--format", "json", *flags)
    assert code == 2 and json.loads(out)["ok"] is False


@pytest.mark.parametrize("bound", ["--max-rows", "--max-cols", "--max-factors"])
def test_conjecture_scan_rejects_a_bound_below_one(bound, capsys):
    code, out = run_cli(capsys, "conjecture-scan", "--format", "json", bound, "0")
    assert code == 2
    record = json.loads(out)
    assert record["ok"] is False and "at least 1" in record["error"]


def test_caps_file_sets_limits(tmp_path, capsys):
    config = tmp_path / "caps.txt"
    config.write_text("max_conjecture_cols = 3\n")
    code, out = run_cli(
        capsys,
        "conjecture-scan", "--max-rows", "1", "--max-cols", "4",
        "--max-factors", "1", "--caps", str(config),
    )
    # cols bound 4 now exceeds the configured cap 3
    assert code == 2
    code, out = run_cli(
        capsys,
        "conjecture-scan", "--max-rows", "1", "--max-cols", "3",
        "--max-factors", "1", "--caps", str(config), "--format", "json",
    )
    assert code == 0
    for line in out.splitlines():
        json.loads(line)


@pytest.mark.parametrize(
    "line",
    ["format = json", "char = 0", "seed = 5", "max_spairs = x"],
    ids=["format", "char", "seed", "not-an-integer"],
)
def test_caps_file_sets_caps_only(line, tmp_path, capsys):
    config = tmp_path / "caps.txt"
    config.write_text(f"max_spairs = 10\n{line}\n")
    code, out = run_cli(
        capsys,
        "diagonals", "--rows", "1", "--cols", "3", "--window", "1,2",
        "--caps", str(config), "--format", "json",
    )
    assert code == 2
    record = json.loads(out)
    assert record["ok"] is False and "caps line 2" in record["error"]


def test_missing_caps_file_exits_two(tmp_path, capsys):
    code, out = run_cli(
        capsys, "paper-replay", "--caps", str(tmp_path / "no-such-file.txt"),
    )
    assert code == 2
    assert out.startswith("FAIL") and "cannot read caps file" in out


def test_parse_caps_text_rejects_unknown_keys():
    with pytest.raises(FormatError):
        parse_caps_text("max_spairs = 10\nbogus_key = 3\n")


def test_parse_caps_text_types():
    caps = parse_caps_text("max_spairs = 10\nmax_oracle_gens = 7\n")
    assert caps.max_spairs == 10 and caps.max_oracle_gens == 7
    for bad in ("format = json\n", "char = 0\n", "seed = 5\n"):
        with pytest.raises(FormatError):
            parse_caps_text(bad)


def test_caps_must_be_positive_integers():
    # The constructor checks every field; a caps file gives its error as a
    # FormatError.  A wrong type is a TypeError too, an int below 1 not.
    for bad in (0, -3, "x", None, 2.5):
        with pytest.raises(DomainError) as info:
            Caps(max_spairs=bad)
        assert isinstance(info.value, TypeError) is (type(bad) is not int)
    with pytest.raises(FormatError, match="max_spairs must be a positive integer, got 0"):
        parse_caps_text("max_spairs = 0\n")


def test_seed_flag_is_gone(capsys):
    for argv in (
        ["paper-replay", "--seed", "3"],
        ["ideal-product", "--rows", "3", "--cols", "9", "--chain", "3,7:1,5",
         "--force-brute"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_missing_gens_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "no-such-file.txt"
    code, out = run_cli(
        capsys, "reg", "--rows", "1", "--cols", "2", "--gens-file", str(missing),
        "--format", "json",
    )
    assert code == 2
    record = json.loads(out)
    assert record["ok"] is False and "cannot read gens file" in record["error"]


def test_exponent_above_bound_exits_two(tmp_path, capsys):
    code, out = run_cli(
        capsys, "reg", "--rows", "1", "--cols", "2", "--gens", "<x[1,1]^200>",
        "--format", "json",
    )
    assert code == 2
    record = json.loads(out)
    assert record["ok"] is False and "0..127" in record["error"]
    gens = tmp_path / "gens.txt"
    gens.write_text("<x[1,1]^128, x[1,2]>\n")
    code, out = run_cli(
        capsys, "reg", "--rows", "1", "--cols", "2", "--gens-file", str(gens),
        "--format", "json",
    )
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_verify_cap_hit_reports_snapshot(tmp_path, capsys):
    config = tmp_path / "caps.txt"
    config.write_text("max_oracle_gens = 1\n")
    code, out = run_cli(
        capsys, "verify", "--target", "theorem", "--format", "json",
        "--caps", str(config),
    )
    assert code == 2
    record = json.loads(out.splitlines()[-1])
    assert record["ok"] is False
    assert record["snapshot"] == {"generators": 4}


def test_theorem_stops_at_the_product_cap(capsys):
    # The 4x16 product of two full windows has 866,320 generators; it is
    # counted as it forms and refused at the first partial product past
    # max_product_gens (5000), long before the oracle's cap reads it.
    code, out = run_cli(
        capsys, "verify", "--target", "theorem", "--rows", "4", "--cols", "16",
        "--chain", "1,16:1,16", "--format", "json",
    )
    assert code == 2
    assert json.loads(out) == {
        "error": "window product reached 5454 generators, cap is 5000",
        "ok": False,
        "snapshot": {"chain": "1,16:1,16", "gens": 5454},
    }


@pytest.mark.parametrize(
    "command",
    [
        ("ideal-product",),
        ("colon", "--step", "1"),
        ("betti",),
        ("reg",),
        ("verify", "--target", "lemma2"),
        ("verify", "--target", "theorem"),
        ("groebner",),
    ],
    ids=["ideal-product", "colon", "betti", "reg", "verify-lemma2", "verify-theorem", "groebner"],
)
def test_every_window_product_stops_at_the_product_cap(command, tmp_path, capsys):
    # Each command that forms a window product, or the natural products of
    # its minors, counts it against max_product_gens: the second generator
    # passes a cap of 1.
    config = tmp_path / "caps.txt"
    config.write_text("max_product_gens = 1\n")
    code, out = run_cli(
        capsys, *command, "--rows", "2", "--cols", "4", "--chain", "1,3:2,4",
        "--format", "json", "--caps", str(config),
    )
    assert code == 2
    assert json.loads(out) == {
        "error": "window product reached 2 generators, cap is 1",
        "ok": False,
        "snapshot": {"chain": "1,3:2,4", "gens": 2},
    }


def test_minor_rows_cap_reaches_groebner_and_conjecture_scan(tmp_path, capsys):
    config = tmp_path / "caps.txt"
    config.write_text("max_minor_rows = 1\n")
    code, out = run_cli(
        capsys, "groebner", "--rows", "2", "--cols", "2", "--chain", "1,2",
        "--format", "json", "--caps", str(config),
    )
    assert code == 2
    record = json.loads(out)
    assert record["ok"] is False and record["snapshot"] == {"rows": 2}
    code, out = run_cli(
        capsys, "conjecture-scan", "--max-rows", "2", "--max-cols", "2",
        "--max-factors", "1", "--format", "json", "--caps", str(config),
    )
    assert code == 0
    verdicts = [json.loads(line) for line in out.splitlines()]
    assert [v["shape"] for v in verdicts] == [[1, 2], [2, 2]]
    assert "skipped" not in verdicts[0]
    assert verdicts[1]["skipped"] and "capped at 1 rows" in verdicts[1]["error"]


_HOMOLOGY_RUN = ("betti", "--oracle", "homology", "--rows", "2", "--cols", "3", "--window", "1,3")

# One small run per cap that the cap stops when set to 1.
_CAP_RUNS = {
    "max_minor_rows": ("groebner", "--rows", "2", "--cols", "2", "--chain", "1,2"),
    "max_product_gens": (
        "verify", "--target", "lemma2", "--rows", "2", "--cols", "4", "--chain", "1,3:2,4",
    ),
    "max_oracle_gens": _HOMOLOGY_RUN,
    "max_lcm_candidates": _HOMOLOGY_RUN,
    "max_koszul_faces": _HOMOLOGY_RUN,
    "max_spairs": ("groebner", "--rows", "2", "--cols", "4", "--chain", "1,4"),
    "max_conjecture_rows": (
        "conjecture-scan", "--max-rows", "2", "--max-cols", "2", "--max-factors", "1",
    ),
    "max_conjecture_cols": (
        "conjecture-scan", "--max-rows", "1", "--max-cols", "2", "--max-factors", "1",
    ),
    "max_conjecture_factors": (
        "conjecture-scan", "--max-rows", "1", "--max-cols", "2", "--max-factors", "2",
    ),
}


@pytest.mark.parametrize("name", [f.name for f in fields(Caps)])
def test_every_cap_set_to_one_stops_a_small_run(name, tmp_path, capsys):
    argv = _CAP_RUNS[name]
    assert run_cli(capsys, *argv)[0] == 0
    config = tmp_path / "caps.txt"
    config.write_text(f"{name} = 1\n")
    code, out = run_cli(capsys, *argv, "--format", "json", "--caps", str(config))
    assert code == 2
    assert json.loads(out.splitlines()[-1])["ok"] is False


def test_lcm_candidates_cap_before_any_table(tmp_path, capsys):
    # 64 generators: a table of all 2^64 subset lcms cannot be allocated, so
    # the candidate cap must stop the closure long before that.
    config = tmp_path / "caps.txt"
    config.write_text("max_oracle_gens = 64\n")
    gens = ", ".join(f"x[{i},{j}]" for i in range(1, 9) for j in range(1, 9))
    code, out = run_cli(
        capsys, "betti", "--rows", "8", "--cols", "8", "--gens", f"<{gens}>",
        "--oracle", "homology", "--caps", str(config),
    )
    assert code == 2
    assert "more than 4096 candidate multidegrees" in out


def test_bad_window_flag(capsys):
    code, _ = run_cli(
        capsys, "diagonals", "--rows", "1", "--cols", "3", "--window", "12"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("groebner", "--rows", "2", "--cols", "4", "--chain", "1,3:2,4", "--char", "0"),
        ("diagonals", "--rows", "3", "--cols", "6", "--window", "2,6"),
        ("ideal-product", "--rows", "2", "--cols", "5", "--chain", "1,4:2,5"),
    ],
    ids=["groebner", "diagonals", "ideal-product"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_generator_lists_render_from_keys(capsys, argv, fmt):
    # Polynomials and generator lists are written from their keys: no
    # GridMonomial is built only to be printed.
    import sys

    from diagideal.monomials import GridMonomial, _from_key

    built = {_from_key.__code__, GridMonomial.__init__.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in built:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        code, out = run_cli(capsys, *argv, "--format", fmt)
    finally:
        sys.setprofile(None)
    assert code == 0 and "x[" in out
    assert calls == []


def test_conjecture_scan_engine_fault_exits_two(capsys, monkeypatch):
    import diagideal.groebner as groebner

    # only the Buchberger fallback builds the initial ideal
    real = groebner.initial_ideal
    monkeypatch.setattr(groebner, "_certificate", lambda *args: None)
    monkeypatch.setattr(groebner, "initial_ideal", lambda basis: real(list(basis)[1:]))
    code, out = run_cli(
        capsys, "conjecture-scan", "--max-rows", "2", "--max-cols", "3",
        "--max-factors", "1", "--format", "json",
    )
    assert code == 2
    record = json.loads(out.splitlines()[-1])
    assert record["ok"] is False and "engine" in record["error"]


def test_broken_pipe_stays_quiet():
    import os
    import subprocess
    import sys

    import diagideal

    # the writer imports the same package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(diagideal.__file__))
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    # 8008 diagonals, ~350 kB: far more than a pipe buffer holds, so the
    # writer is still writing when head exits and must see the broken pipe
    writer = subprocess.Popen(
        [sys.executable, "-m", "diagideal.cli", "diagonals",
         "--rows", "6", "--cols", "16", "--window", "1,16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    head = subprocess.Popen(
        ["head", "-1"], stdin=writer.stdout, stdout=subprocess.PIPE, text=True
    )
    writer.stdout.close()
    out, _ = head.communicate()
    err = writer.stderr.read()
    writer.stderr.close()
    assert head.wait() == 0
    assert out.splitlines() == ["x[1,1]*x[2,2]*x[3,3]*x[4,4]*x[5,5]*x[6,6]"]
    assert writer.wait() == EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in err


def test_three_factor_scan_is_true_and_repeats_byte_for_byte(tmp_path, capsys):
    # Every three-factor chain up to 2x4 keeps in(P) = J with the natural
    # generators as basis; the second scan in the process reads its
    # products from the cache and must print the same records.
    config = tmp_path / "caps.txt"
    config.write_text("max_conjecture_factors = 3\n")
    argv = (
        "conjecture-scan", "--max-rows", "2", "--max-cols", "4", "--max-factors", "3",
        "--caps", str(config), "--format", "json",
    )
    runs = []
    for _ in range(2):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert any(len(r["chain"]) == 3 for r in records)
        assert all(r["ini_equals_J"] and r["natural_gens_are_GB"] for r in records)
        for r in records:
            del r["millis"]
        runs.append("\n".join(json.dumps(r) for r in records))
    assert runs[0] == runs[1]
