import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bisector_words import cli, enumeration, geometry, random_points, realization, sampler
from bisector_words.geometry import PointConfig, occupancy_word
from bisector_words import words

T_RULE = f"need the t-grid to be a flat sequence of at most {geometry.MAX_T_GRID} reals in [0, 1], got"
NUMBER_RULE = "need a decimal or p/q with |exponent| < 10**5 and at most 4300 digits per part, got"


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

    def test_n_above_realize_limit_exits_1_before_construction(self, monkeypatch):
        def no_construction(*args):
            raise AssertionError("constructed before checking n")

        monkeypatch.setattr(realization, "_construct", no_construction)
        word = words.word_to_string(words.run_word(realization.MAX_REALIZE_N + 1))
        code, out, err = run_cli("realize", word)
        assert code == 1 and out == "" and f"n <= {realization.MAX_REALIZE_N}" in err

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

    @pytest.mark.parametrize("command", ["enumerate", "count"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("nope", "need an integer or a range a..b, got 'nope'"),
            ("3..", "need an integer or a range a..b, got '3..'"),
            ("3.." + "9" * 5000, "need an integer or a range a..b, got a value of type str"),
            ("5..3", "empty range '5..3'"),
        ],
        ids=["word", "open", "beyond-text", "empty"],
    )
    def test_range_is_read_by_argparse_and_names_its_flag(self, command, text, message):
        assert run_cli(command, "--n", text) == (1, "", f"error: argument --n: {message}\n")

    def test_range_options_arrive_as_ranges(self):
        parser = cli.build_parser()
        assert parser.parse_args(["count", "--n", "3..5"]).n == range(3, 6)
        assert parser.parse_args(["enumerate", "--n", "4"]).n == range(4, 5)
        assert parser.parse_args(["verify", "--criteria", "2..3"]).criteria == range(2, 4)
        assert parser.parse_args(["verify"]).criteria is None

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
        # each class is listed at its canonical word, in stream order
        lines = [
            words.word_to_string(w) + "\n"
            for n in range(3, 8)
            for w in enumeration.enumerate_words(n)
            if words.canonical_bracelet(w).word == w
        ]
        code, out, _ = run_cli("enumerate", "--n", "3..7", "--bracelets")
        assert code == 0 and out == "".join(lines)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("enumerate", "--n", "11..12"), "914e84c7e82cd482800774550be0f4bede9c57eafd9a5ce43b8d4ae12b7cc670"),
            (
                ("enumerate", "--n", "3..12", "--bracelets"),
                "f95409e612ebd0d4f3519315bd02704026537813337cb5ceb48843aa7276109e",
            ),
        ],
    )
    def test_enumerate_digest_beyond_the_oracles(self, argv, digest):
        # sha256 of the output; the word stream's was recorded on the
        # per-signature Python expansion, the bracelets' when classes moved
        # to their canonical word's place in the stream (the same set of
        # lines as the first-member order before); the product oracle stops
        # at n = 10, the golden files at 6
        code, out, _ = run_cli(*argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

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


    def test_count_above_bracelet_limit_names_the_bound(self):
        code, out, err = run_cli("count", "--n", str(words.MAX_BRACELET_N + 1))
        assert code == 1 and out == ""
        assert f"3 <= n <= {words.MAX_BRACELET_N}" in err


class TestArgumentErrors:
    # argparse exits with 2 on bad arguments; 2 is reserved for failed verification
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "4", "--bogus"),
            ("estimate", "--n", "4", "--stat", "xx"),
            ("estimate", "--stat", "h2"),
            ("enumerate", "--n", "5..3"),
        ],
        ids=["unknown-flag", "bad-choice", "missing-required", "empty-range"],
    )
    def test_exit_1_with_message_and_no_output(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == "" and err.startswith("error:")

    # argparse quotes the offending text whole: these printed up to 100 086 characters
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "4", "z" * 100_000),
            ("sample", "--kind", "k" * 100_000),
            ("sample", "--n", "9" * 5000),
            ("estimate", "--n", "4", "--stat", "h2", "--trials", "9" * 5000),
            ("verify", "--criteria", "1..100000"),
            ("stats", "--positions", "0,1/" + "9" * 5001 + ",1/2"),
        ],
        ids=["unrecognized", "choice", "int", "trials", "criteria", "denominator"],
    )
    def test_every_error_is_one_short_line(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
        assert "Exceeds the limit" not in err


# sha256 of the stdout of ``sample --n N --count 3000 --kind KIND`` (seed 0),
# recorded with one scalar sampler call per line, before the command drew
# through the batch samplers in blocks.
PINNED_SAMPLE_COUNT_3000 = {
    ("word", 3): "9deb456cff3f9c03531e3a464180e30c1b40ebe89e9752b2f9715fc1c61dbc8b",
    ("word", 4): "092abc1ff742fffabf9602d2c4c40e6be07450ef71fa96ce450e7e4f245c0840",
    ("word", 5): "b0cd73498d29164fe519d5e5cf5bacbe8732c4a2e0bd24f53fe533becdad21bc",
    ("word", 6): "ec8448d58177e4e7ec8207f6d90f20cae9d6d477cc1a544e92d9e0a2297b2075",
    ("word", 7): "f57b7debde945fdbb6ef17434bd4a56130916e97500b60da42ebd59c7dce8240",
    ("word", 8): "bbe0b9ce2023d1fb436380e81d64f3636dc470545e417786cfb2c04ee7db9dc9",
    ("bracelet", 3): "ae6a1e74b2dc29218d11c8b00f8990129c30e1e54b8e8b5b3af12f5651162278",
    ("bracelet", 4): "7f4779f7b0660c902158aa036e6f208562cfb70d3111569ddbbc7fdae74fbbe9",
    ("bracelet", 5): "02e4312a86ea4d720f3b2dbd5305e75376c38f25e33d7b0fcbeb3cda313e39b0",
    ("bracelet", 6): "eae4655c02bec8d27a99c0e88a191b8cbc7d1be42be19fcd5ee92dd311cea0df",
    ("bracelet", 7): "22322d715c8baadebb6d3e70b48088ef056e29dbf75179cc3ed8cbecdbd27506",
    ("bracelet", 8): "b85322586f2065625389cae8e9ee5387e482bf82aff0ec0f69191557c9c85364",
}


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
        code, out, err = run_cli("sample", "--kind", "bracelet", "--n", str(words.MAX_BRACELET_N + 1))
        assert code == 1 and out == "" and "3 <= n <=" in err

    @pytest.mark.parametrize(
        "kind, n",
        [
            ("word", 2),
            ("word", sampler.MAX_WORD_N + 1),
            ("bracelet", 2),
            ("bracelet", 6000),
            ("points", 2),
        ],
    )
    def test_n_checked_before_the_loop(self, kind, n):
        code, out, err = run_cli("sample", "--kind", kind, "--n", str(n), "--count", "0")
        assert code == 1 and out == "" and f"got {n}" in err

    def test_points_n_bounded_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before checking n")

        monkeypatch.setattr(random_points, "batch_rng", no_draws)
        n = random_points.MAX_CONFIG_N + 1
        code, out, err = run_cli("sample", "--kind", "points", "--n", str(n))
        assert code == 1 and out == "" and f"3 <= n <= {random_points.MAX_CONFIG_N}, got {n}" in err

    def test_negative_count_exits_1(self):
        code, out, err = run_cli("sample", "--n", "4", "--count", "-3")
        assert code == 1 and out == "" and "--count" in err

    @pytest.mark.parametrize("kind, n", sorted(PINNED_SAMPLE_COUNT_3000))
    def test_count_3000_is_pinned(self, kind, n):
        code, out, _ = run_cli("sample", "--n", str(n), "--count", "3000", "--kind", kind)
        assert code == 0 and out.count("\n") == 3000
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SAMPLE_COUNT_3000[kind, n]

    @pytest.mark.parametrize("kind, n", [("word", 4), ("word", 7), ("bracelet", 5), ("bracelet", 8)])
    def test_each_block_is_printed_before_the_next_is_drawn(self, monkeypatch, kind, n):
        # blocks of 8 // n draws, at 8 letters per batch draw: the same lines as one block
        _, whole, _ = run_cli("sample", "--n", str(n), "--count", "23", "--kind", kind, "--seed", "4")
        monkeypatch.setattr(sampler, "MAX_SAMPLE_LETTERS", 8)
        name = {"word": "sample_uniform_words", "bracelet": "sample_uniform_bracelets"}[kind]
        batch, sizes = getattr(sampler, name), []
        out = io.StringIO()

        def recording(n, size, rng):
            assert out.getvalue().count("\n") == sum(sizes)  # the blocks so far are printed
            sizes.append(size)
            return batch(n, size, rng)

        monkeypatch.setattr(sampler, name, recording)
        with redirect_stdout(out):
            assert cli.main(["sample", "--n", str(n), "--count", "23", "--kind", kind, "--seed", "4"]) == 0
        block = 8 // n
        assert sizes == [block] * (23 // block) + ([23 % block] if 23 % block else [])
        assert out.getvalue() == whole

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
        assert code == 1 and out == "" and "3 <= n" in err

    def test_n_above_geometry_limit_exits_1(self):
        n = str(random_points.MAX_GEOMETRY_N + 1)
        code, out, err = run_cli("estimate", "--n", n, "--stat", "h2", "--trials", "1")
        assert code == 1 and out == "" and f"n <= {random_points.MAX_GEOMETRY_N}" in err

    def test_seed_outside_64_bits_exits_1(self):
        code, out, err = run_cli("estimate", "--n", "4", "--stat", "h2", "--seed", "-1")
        assert code == 1 and out == "" and "seed" in err

    def test_pb_at_packed_limit(self):
        code, out, _ = run_cli("estimate", "--n", "32", "--stat", "pb", "--trials", "2000")
        assert code == 0 and json.loads(out)["trials"] == 2000

    @pytest.mark.parametrize("n", [33, 10**6])
    def test_pb_above_packed_limit_exits_1(self, monkeypatch, n):
        def no_bracelet(*args):
            raise AssertionError("built the run word's bracelet before checking n")

        monkeypatch.setattr(words, "canonical_bracelet", no_bracelet)
        code, out, err = run_cli("estimate", "--n", str(n), "--stat", "pb", "--trials", "2000")
        assert code == 1 and out == "" and "n <= 32" in err

    def test_worker_count_invisible(self):
        args = ["estimate", "--n", "3", "--stat", "le", "--trials", "50000", "--seed", "3"]
        a = run_cli(*args, "--workers", "1")
        b = run_cli(*args, "--workers", "4")
        assert a == b

    @pytest.mark.parametrize("stat", ["h2", "pb"])
    @pytest.mark.parametrize("trials", ["1", "0", "-5"])
    def test_trials_below_two_exit_1_before_anything_is_built(self, monkeypatch, stat, trials):
        def not_yet(*args):
            raise AssertionError("built or drew before checking trials")

        monkeypatch.setattr(random_points, "batch_rng", not_yet)
        monkeypatch.setattr(words, "canonical_bracelet", not_yet)
        code, out, err = run_cli("estimate", "--n", "4", "--stat", stat, "--trials", trials)
        assert code == 1 and out == "" and f"need 2 <= --trials <= {random_points.MAX_TRIALS}, got {trials}" in err

    @pytest.mark.parametrize("stat", ["h2", "pb"])
    @pytest.mark.parametrize("trials", [str(2**53 + 1), "1000000000000000000000000"])
    def test_trials_above_the_bound_exit_1_before_anything_is_built(self, monkeypatch, stat, trials):
        # 10^24 trials raised OverflowError from len(range(...)) with a pool,
        # and ran without end on one worker
        def not_yet(*args):
            raise AssertionError("built or drew before checking trials")

        monkeypatch.setattr(random_points, "batch_rng", not_yet)
        monkeypatch.setattr(words, "canonical_bracelet", not_yet)
        code, out, err = run_cli("estimate", "--n", "3", "--stat", stat, "--trials", trials, "--workers", "2")
        assert (code, out) == (1, "")
        assert err == f"error: need 2 <= --trials <= {random_points.MAX_TRIALS}, got {trials}\n"

    def test_infinite_z_prints_as_null(self):
        # both trials have two two-dot regions, and the target is 20/9
        code, out, _ = run_cli("estimate", "--n", "4", "--stat", "h2", "--trials", "2")
        payload = json.loads(out)
        assert code == 0 and payload["std_error"] == 0.0 and payload["z"] is None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "3..5", "--format", "json"),
        ("realize", "101100"),
        ("sample", "--n", "5", "--kind", "points", "--count", "3", "--seed", "2"),
        ("estimate", "--n", "4", "--stat", "h2", "--trials", "2"),
        ("estimate", "--n", "4", "--stat", "pb", "--trials", "2"),
        ("estimate", "--n", "5", "--stat", "le", "--trials", "1000"),
        ("stats", "--positions", "0,1/10,3/10", "--t-grid", "1/2,1"),
    ],
    ids=" ".join,
)
def test_every_json_line_is_standard_json(argv):
    code, out, _ = run_cli(*argv)
    assert code == 0 and out
    for line in out.splitlines():
        json.loads(line, parse_constant=_reject_constant)


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
        assert code == 1 and out == "" and "reals in [0, 1], got Fraction(2, 1) at position 0" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--positions", "0,1/0,1/2"), "zero denominator in '1/0'"),
            (("--positions", "0,1/10,3/10", "--t-grid", "1/2,1/0"), "zero denominator in '1/0'"),
            (("--positions", "0,1/10,3/10", "--t-grid", "1e400"), f"{T_RULE} a value of type Fraction at position 0"),
            (("--positions", "0,1/10,3/10", "--t-grid", "1e5000"), f"{T_RULE} a value of type Fraction at position 0"),
            (("--positions", "0,1/10,3/10", "--t-grid", "1e99999"), f"{T_RULE} a value of type Fraction at position 0"),
            (("--positions", "0,1/10,3/10", "--t-grid", "1e100000"), f"{NUMBER_RULE} '1e100000'"),
            (("--positions", "0,1/3,1e-100000"), f"{NUMBER_RULE} '1e-100000'"),
            (("--positions", "0,1/3," + "x" * 100_000), f"{NUMBER_RULE} a value of type str"),
        ],
        ids=[
            "positions-zero-denominator",
            "t-grid-zero-denominator",
            "t-grid-beyond-floats",
            "t-grid-beyond-text",
            "t-grid-largest-exponent",
            "t-grid-exponent-too-large",
            "positions-exponent-too-large",
            "positions-invalid-literal",
        ],
    )
    def test_unreadable_values_exit_1_with_no_output(self, argv, message):
        assert run_cli("stats", *argv) == (1, "", f"error: {message}\n")


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
        assert err == "error: need 1 <= criterion <= 14, got 15\n"
