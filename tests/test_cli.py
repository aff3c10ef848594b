import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bisector_words import cli, enumeration
from bisector_words.geometry import PointConfig, occupancy_word
from bisector_words import words


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_realizable_word(self):
        code, out, _ = run_cli("check", "101100")
        assert code == 0
        assert out.strip() == "realizable=true signature=201"

    def test_unrealizable_word(self):
        code, out, _ = run_cli("check", "010101")
        assert code == 0
        assert "realizable=false" in out

    def test_invalid_word(self):
        code, _, err = run_cli("check", "10a100")
        assert code == 1 and "error" in err


class TestRealize:
    def test_roundtrip_through_serialization(self):
        code, out, _ = run_cli("realize", "101100")
        assert code == 0
        payload = json.loads(out)
        cfg = PointConfig.from_strings(payload["positions"])
        got = words.canonical_bracelet(occupancy_word(cfg))
        assert got == words.canonical_bracelet(words.word_from_string("101100"))

    def test_unrealizable_exits_1(self):
        code, _, err = run_cli("realize", "010101")
        assert code == 1 and "interlace" in err

    def test_golden_words_output_unchanged(self):
        # sha256 of the concatenated output for all 844 words of n = 3..6,
        # recorded on the Fraction-arithmetic construction
        golden = Path(__file__).parent / "golden"
        out = []
        for n in range(3, 7):
            for line in (golden / f"words_n{n}.txt").read_text().split():
                code, text, _ = run_cli("realize", line)
                assert code == 0
                out.append(text)
        digest = hashlib.sha256("".join(out).encode()).hexdigest()
        assert digest == "befa2f5b7b30c013e7b2eee9d1de2812b6249ee7d9f61b7098be3796defb4d7e"


class TestCountAndEnumerate:
    def test_count_csv(self):
        code, out, _ = run_cli("count", "--n", "3..5")
        assert code == 0
        assert out.splitlines() == ["n,words,bracelets", "3,12,1", "4,50,5", "5,180,9"]

    def test_count_json(self):
        code, out, _ = run_cli("count", "--n", "4", "--format", "json")
        assert json.loads(out) == [{"n": 4, "words": 50, "bracelets": 5}]

    def test_enumerate_words(self):
        code, out, _ = run_cli("enumerate", "--n", "3")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 12
        assert all(words.is_realizable(words.word_from_string(s)) for s in lines)

    def test_enumerate_bracelets(self):
        code, out, _ = run_cli("enumerate", "--n", "4", "--bracelets")
        assert code == 0 and len(out.splitlines()) == 5

    def test_bad_range(self):
        code, _, err = run_cli("count", "--n", "nope")
        assert code == 1

    def test_count_table_unchanged(self):
        table = {3: 1, 4: 5, 5: 9, 6: 30, 7: 69, 8: 203, 9: 519, 10: 1466}
        rows = [{"n": n, "words": 3**n - 2 ** (n + 1) + 1, "bracelets": b} for n, b in table.items()]
        code, out, _ = run_cli("count", "--n", "3..10")
        assert code == 0
        assert out.splitlines() == ["n,words,bracelets"] + [
            f"{r['n']},{r['words']},{r['bracelets']}" for r in rows
        ]
        code, out, _ = run_cli("count", "--n", "3..10", "--format", "json")
        assert code == 0 and out == json.dumps(rows) + "\n"

    def test_enumerate_matches_golden_streams(self):
        golden = Path(__file__).parent / "golden"
        code, out, _ = run_cli("enumerate", "--n", "3..6")
        assert code == 0
        assert out == "".join((golden / f"words_n{n}.txt").read_text() for n in range(3, 7))

    def test_enumerate_bracelets_matches_per_word_canonical_form(self):
        lines = []
        for n in range(3, 8):
            seen = set()
            for w in enumeration.enumerate_words(n):
                b = words.canonical_bracelet(w)
                if b.word not in seen:
                    seen.add(b.word)
                    lines.append(words.word_to_string(b.word) + "\n")
        code, out, _ = run_cli("enumerate", "--n", "3..7", "--bracelets")
        assert code == 0 and out == "".join(lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--n", "13..15"),
            ("enumerate", "--n", "13..15", "--bracelets"),
            ("count", "--n", "4999..5001"),
            ("count", "--n", f"3..{10**12}"),
        ],
    )
    def test_range_checked_before_any_output(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == "" and "3 <= n <=" in err


class TestSample:
    def test_words_deterministic(self):
        a = run_cli("sample", "--n", "4", "--count", "5", "--kind", "word", "--seed", "9")
        b = run_cli("sample", "--n", "4", "--count", "5", "--kind", "word", "--seed", "9")
        assert a == b
        for line in a[1].splitlines():
            assert words.is_realizable(words.word_from_string(line))

    def test_bracelets(self):
        code, out, _ = run_cli("sample", "--n", "3", "--count", "3", "--kind", "bracelet")
        assert code == 0
        assert out.splitlines() == ["001011"] * 3

    def test_bracelet_n_above_count_range_exits_1(self):
        code, out, err = run_cli("sample", "--kind", "bracelet", "--n", str(enumeration.MAX_COUNT_N + 1))
        assert code == 1 and out == "" and "3 <= n <=" in err

    def test_negative_count_exits_1(self):
        code, out, err = run_cli("sample", "--n", "4", "--count", "-3")
        assert code == 1 and out == "" and "--count" in err

    def test_points(self):
        code, out, _ = run_cli("sample", "--n", "5", "--count", "2", "--kind", "points")
        assert code == 0
        for line in out.splitlines():
            positions = json.loads(line)
            assert len(positions) == 5
            assert positions == sorted(positions)


class TestEstimate:
    def test_json_payload(self):
        code, out, _ = run_cli(
            "estimate", "--n", "4", "--stat", "pb", "--trials", "20000", "--seed", "7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["stat"] == "pb" and payload["n"] == 4
        assert payload["target"] == pytest.approx(1 / 3)
        assert abs(payload["z"]) <= 4

    def test_csv_format(self):
        code, out, _ = run_cli(
            "estimate", "--n", "3", "--stat", "h2", "--trials", "5000", "--format", "csv"
        )
        header, row = out.splitlines()
        assert header.split(",")[:3] == ["stat", "n", "estimate"]
        assert row.split(",")[0] == "h2"

    def test_workers_below_one_exits_1(self):
        code, out, err = run_cli("estimate", "--n", "4", "--stat", "h2", "--workers", "0")
        assert code == 1 and out == "" and "workers" in err

    def test_n_below_three_exits_1(self):
        code, out, err = run_cli("estimate", "--n", "2", "--stat", "h2")
        assert code == 1 and out == "" and "n >= 3" in err

    def test_seed_outside_64_bits_exits_1(self):
        code, out, err = run_cli("estimate", "--n", "4", "--stat", "h2", "--seed", "-1")
        assert code == 1 and out == "" and "seed" in err

    def test_pb_at_packed_limit(self):
        code, out, _ = run_cli("estimate", "--n", "32", "--stat", "pb", "--trials", "2000")
        assert code == 0 and json.loads(out)["trials"] == 2000

    def test_pb_above_packed_limit_exits_1(self):
        code, out, err = run_cli("estimate", "--n", "33", "--stat", "pb", "--trials", "2000")
        assert code == 1 and out == "" and "n <= 32" in err

    def test_worker_count_invisible(self):
        args = ["estimate", "--n", "3", "--stat", "le", "--trials", "50000", "--seed", "3"]
        a = run_cli(*args, "--workers", "1")
        b = run_cli(*args, "--workers", "4")
        assert a == b


class TestStats:
    def test_worked_example(self):
        code, out, _ = run_cli("stats", "--positions", "0,1/10,3/10", "--t-grid", "1/2,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["types"] == [2, 1, 0, 2, 1, 0]
        assert payload["H"] == [2, 2, 2]
        assert payload["Le"] == pytest.approx(0.2)

    def test_nongeneric_exits_1(self):
        code, _, err = run_cli("stats", "--positions", "0,1/2,3/4")
        assert code == 1

    def test_t_outside_unit_interval_exits_1(self):
        code, out, err = run_cli("stats", "--positions", "0,1/10,3/10", "--t-grid", "2,-1")
        assert code == 1 and out == "" and "0 <= t <= 1" in err


class TestVerify:
    def test_single_fast_criterion(self):
        code, out, _ = run_cli("verify", "--criteria", "13")
        assert code == 0
        assert "PASS criterion 13" in out
        assert out.strip().endswith("OK: 0 criteria failed")

    def test_unknown_criterion_exits_before_running_any(self, monkeypatch):
        from bisector_words import acceptance

        called = []

        def record(num):
            def fn():
                called.append(num)
                return True, "recorded"

            return fn

        monkeypatch.setattr(
            acceptance, "CRITERIA", tuple((num, name, record(num)) for num, name, _ in acceptance.CRITERIA)
        )
        code, out, err = run_cli("verify", "--criteria", "7..15")
        assert code == 1 and out == "" and called == []
        assert "no criterion numbered 15" in err
