"""The weilrank/1 JSON contract of the command line: keys, exit codes, batch lines."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weilrank.classify
from weilrank.cli import main
from weilrank.newton import newton_polygon
from weilrank.relfinder import OracleRank
from weilrank.search import SearchSpec, enumerate_weil


def _is_integral(polygon):
    """Reference: slope * length is an integer on every segment."""
    return all((s * l).denominator == 1 for s, l in polygon.segments)


REPORT_KEYS = {
    "schema", "q", "coeffs", "g", "neat", "rank", "gamma_rank", "newton",
    "newton_labels", "polygon", "simple", "conditions", "witness",
    "components", "rank_source", "sufficiency_degree", "notes",
}

GOLDEN_ENUMERATE = Path(__file__).resolve().parent / "data" / "enumerate_g2_q3.jsonl"
SRC = Path(__file__).resolve().parent.parent / "src"

ELLIPTIC = "5,-1,1"  # t^2 - t + 5 over F_5
PRODUCT = "25,-15,12,-3,1"  # (t^2 - t + 5)(t^2 - 2t + 5) over F_5
NOT_WEIL = "5,-9,1"  # roots of absolute value > sqrt(5)
NOT_WEIL_QUARTIC = "25,0,-11,0,1"  # traces +-sqrt(21): both eigenvalue pairs off the circle
NON_NEAT = "729,-324,72,-18,8,-4,1"  # the non-neat sextic over F_9
ORACLE_NON_NEAT = ["oracle", "--q", "9", "--poly", NON_NEAT]
ENUMERATE_G1_Q3 = ["enumerate", "--g", "1", "--q", "3"]
SEARCH_F9 = ["search-nonneat", "--p", "3", "--q", "9"]
INVALID_RECORD = {
    "schema": "weilrank/1",
    "valid": False,
    "q": "5",
    "coeffs": ["5", "-9", "1"],
    "error": "RiemannHypothesisFails",
    "detail": "1 root pair(s) exceed absolute value sqrt(5)",
}
RH_FAILS = "invalid: RiemannHypothesisFails: 1 root pair(s) exceed absolute value sqrt(5)\n"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def run_err(capsys, *argv):
    """Exit code, stdout lines and the whole of stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestClassifyJson:
    def test_golden_elliptic(self, capsys):
        code, out = run(capsys, "classify", "--q", "5", "--poly", ELLIPTIC)
        assert code == 0 and len(out) == 1
        assert json.loads(out[0]) == {
            "schema": "weilrank/1",
            "q": "5",
            "coeffs": ["5", "-1", "1"],
            "g": 1,
            "neat": True,
            "rank": 1,
            "gamma_rank": 2,
            "newton": "ordinary",
            "newton_labels": ["k3_type", "ordinary"],
            "polygon": [["0", 1], ["1", 1]],
            "simple": True,
            "conditions": {"i": False, "ii": False, "iii": False},
            "witness": None,
            "components": [
                {"pmin": ["5", "-1", "1"], "e": 1, "pairs": 1,
                 "newton": "ordinary", "supersingular": False}
            ],
            "rank_source": "theorem",
            "sufficiency_degree": 1,
            "notes": [],
        }

    def test_product_keys_and_constants(self, capsys):
        # the oracle runs, and its key appears, only under --oracle-check
        code, out = run(capsys, "classify", "--q", "5", "--poly", PRODUCT)
        assert code == 0 and set(json.loads(out[0])) == REPORT_KEYS
        code, out = run(capsys, "classify", "--q", "5", "--poly", PRODUCT, "--oracle-check")
        rec = json.loads(out[0])
        assert code == 0
        assert set(rec) == REPORT_KEYS | {"oracle"}
        assert rec["rank_source"] == "theorem" and rec["notes"] == []
        assert rec["rank"] == 2 and rec["oracle"]["agrees"]
        assert set(rec["oracle"]) == {"rank", "confidence", "basis", "exponent_bound", "agrees"}

    def test_auto_extend_keys(self, capsys):
        code, out = run(capsys, "classify", "--q", "5", "--poly", "5,0,1", "--auto-extend")
        rec = json.loads(out[0])
        assert code == 0
        assert set(rec) == REPORT_KEYS | {"extension"}
        assert rec["extension"] == {"from_q": "5", "degree": 2}
        assert rec["rank_source"] == "theorem" and rec["notes"] == []


class TestSubcommandGolden:
    """Output of the other subcommands, stdout and stderr, with exit codes."""

    def test_analyze_human(self, capsys):
        code, out, err = run_err(capsys, "analyze", "--q", "5", "--poly", ELLIPTIC)
        assert code == 0 and err == ""
        assert out == [
            "Weil polynomial over F_5: valid (g = 1)",
            "  p = 5, v = 1",
            "  simple: True",
            "  component 5,-1,1 e=1 pairs=1 sqrt_root=none",
            "  endomorphism rank: 2",
            "  newton: ordinary [['0', 1], ['1', 1]]",
            "  sufficiency degree: 1",
        ]

    def test_analyze_json(self, capsys):
        code, out, err = run_err(capsys, "analyze", "--q", "5", "--poly", PRODUCT, "--json")
        assert code == 0 and err == "" and len(out) == 1
        assert json.loads(out[0]) == {
            "schema": "weilrank/1",
            "valid": True,
            "q": "5",
            "coeffs": ["25", "-15", "12", "-3", "1"],
            "g": 2,
            "p": "5",
            "v": 1,
            "simple": False,
            "components": [
                {"pmin": ["5", "-2", "1"], "e": 1, "pairs": 1, "sqrt_root": "none"},
                {"pmin": ["5", "-1", "1"], "e": 1, "pairs": 1, "sqrt_root": "none"},
            ],
            "end_rank": 4,
            "newton": "ordinary",
            "newton_labels": ["ordinary"],
            "polygon": [["0", 2], ["1", 2]],
            "sufficiency_degree": 1,
        }

    def test_analyze_invalid(self, capsys):
        code, out, err = run_err(capsys, "analyze", "--q", "5", "--poly", NOT_WEIL, "--json")
        assert code == 2 and err == ""
        assert [json.loads(o) for o in out] == [INVALID_RECORD]
        assert run_err(capsys, "analyze", "--q", "5", "--poly", NOT_WEIL) == (2, [], RH_FAILS)

    def test_analyze_batch_invalid_line(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        path.write_text('{"coeffs": [5, -9, 1], "q": 5}\n')
        code, out, err = run_err(capsys, "analyze", "--batch", str(path))
        assert code == 2 and err == ""
        assert [json.loads(o) for o in out] == [INVALID_RECORD]

    def test_oracle(self, capsys):
        code, out, err = run_err(capsys, "oracle", "--q", "9", "--poly", NON_NEAT)
        assert code == 0 and err == "" and len(out) == 1
        assert json.loads(out[0]) == {
            "schema": "weilrank/1",
            "q": "9",
            "coeffs": ["729", "-324", "72", "-18", "8", "-4", "1"],
            "rank": 2,
            "confidence": "certified_relations_only",
            "representatives": [0, 2, 4],
            "basis": [[1, 1, -1]],
            "exponent_bound": 20,
        }
        assert run_err(capsys, "oracle", "--q", "5", "--poly", NOT_WEIL) == (2, [], RH_FAILS)

    def test_oracle_beyond_double_range(self, capsys):
        # t^2 - 3^695 t + 2^2202: the trace and Im alpha are beyond double range, so the
        # brackets come from the Sturm isolator and the angle from a rescaled disk center
        q, t = 2**2202, 3**695
        code, out, err = run_err(capsys, "oracle", "--q", str(q), "--poly", f"{q},-{t},1")
        assert code == 0 and err == "" and len(out) == 1
        rec = json.loads(out[0])
        assert (rec["rank"], rec["confidence"], rec["basis"]) == (1, "certified_exact", [])

    def test_base_change(self, capsys):
        code, out, err = run_err(capsys, "base-change", "--n", "2", "--q", "5", "--poly", ELLIPTIC)
        assert code == 0 and err == ""
        assert [json.loads(o) for o in out] == [
            {"schema": "weilrank/1", "coeffs": ["25", "9", "1"], "q": "25"}
        ]
        assert run_err(capsys, "base-change", "--n", "2", "--q", "5", "--poly", NOT_WEIL) == (
            2, [], RH_FAILS,
        )

    def test_cubic_field(self, capsys):
        code, out, err = run_err(capsys, "cubic-field", "--p", "5", "--l", "3")
        assert code == 0 and err == ""
        assert [json.loads(o) for o in out] == [
            {
                "schema": "weilrank/1",
                "p": "5",
                "l": "3",
                "cleared_coeffs": ["15", "-196608", "0", "65536"],
                "eisenstein_at_l": True,
                "real_root_count": 3,
                "mod_p_shape": True,
                "all_checks_pass": True,
            }
        ]
        assert run_err(capsys, "cubic-field", "--p", "5", "--l", "5") == (
            2, [], "rejected: PreconditionViolation: l = 5 must be a prime different from p\n",
        )

    def test_search_nonneat(self, capsys):
        code, out, err = run_err(
            capsys, "search-nonneat", "--p", "2", "--q", "4", "--m", "-1", "--limit", "1"
        )
        assert code == 0 and err == "found 1 non-neat sextics\n"
        assert [json.loads(o) for o in out] == [
            {
                "schema": "weilrank/1",
                "coeffs": ["64", "-32", "4", "4", "1", "-2", "1"],
                "q": "4",
                "witness": {"m": "-1", "g": [["8", "0"], ["-2", "4"], ["-1", "-2"], ["1", "0"]]},
            }
        ]

    def test_search_nonneat_half_integer_witness(self, capsys):
        # m = -3 is 1 mod 4, so A and B may have denominator 2
        code, out, err = run_err(capsys, *SEARCH_F9, "--m", "-3", "--limit", "1")
        assert code == 0 and err == "found 1 non-neat sextics\n"
        assert [json.loads(o) for o in out] == [
            {
                "schema": "weilrank/1",
                "coeffs": ["729", "-405", "-18", "51", "-2", "-5", "1"],
                "q": "9",
                "witness": {
                    "m": "-3",
                    "g": [["27", "0"], ["-15/2", "9/2"], ["-5/2", "-3/2"], ["1", "0"]],
                },
            }
        ]

    def test_search_nonneat_limit_zero(self, capsys):
        code, out, err = run_err(capsys, *SEARCH_F9, "--m", "-1", "--limit", "0")
        assert (code, out, err) == (0, [], "found 0 non-neat sextics\n")

    def test_search_nonneat_wrong_characteristic(self, capsys):
        # 3 splits in Q(sqrt(-2)); the gate must test p = 3, not the given 5
        code, out, err = run_err(
            capsys, "search-nonneat", "--p", "5", "--q", "9", "--m", "-2"
        )
        assert (code, out) == (2, [])
        assert err == "invalid: PreconditionViolation: q = 9 is not a power of p = 5\n"


    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["search-nonneat", "--p", "3", "--q", "9", "--m", "-2"],
                "invalid: BSplitAtP: p = 3 splits in Q(sqrt(-2))\n",
            ),
            (
                ["search-nonneat", "--p", "2", "--q", "8", "--m", "-1"],
                "invalid: QNotSquare: q = 8 is not a perfect square\n",
            ),
            (
                ["cubic-field", "--p", "5", "--l", "11"],
                "rejected: ResidueConditionFails: 11 is a quadratic residue mod 5\n",
            ),
        ],
        ids=["BSplitAtP", "QNotSquare", "ResidueConditionFails"],
    )
    def test_refusals(self, capsys, argv, err):
        assert run_err(capsys, *argv) == (2, [], err)


class TestExitCodes:
    def test_invalid_weil_polynomial(self, capsys):
        assert run_err(capsys, "classify", "--q", "5", "--poly", NOT_WEIL) == (2, [], RH_FAILS)

    def test_invalid_counts_every_pair_off_the_circle(self, capsys):
        # the two traces -+sqrt(21) have the same square; each is one pair
        detail = "2 root pair(s) exceed absolute value sqrt(5)"
        code, out, err = run_err(capsys, "classify", "--q", "5", "--poly", NOT_WEIL_QUARTIC)
        assert (code, out, err) == (2, [], f"invalid: RiemannHypothesisFails: {detail}\n")
        code, out, err = run_err(capsys, "analyze", "--q", "5", "--poly", NOT_WEIL_QUARTIC, "--json")
        assert code == 2 and err == ""
        assert json.loads(out[0]) == {
            **INVALID_RECORD, "coeffs": ["25", "0", "-11", "0", "1"], "detail": detail
        }

    def test_usage_errors(self, capsys):
        assert main(["classify", "--q", "5"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--q", "5", "--poly", "5,x,1"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, value",
        [
            (ORACLE_NON_NEAT + ["--bound", "0"], "positive_int value: '0'"),
            (ORACLE_NON_NEAT + ["--bound", "-3"], "positive_int value: '-3'"),
            (ORACLE_NON_NEAT + ["--bound", "x"], "positive_int value: 'x'"),
            (ORACLE_NON_NEAT + ["--bound", "2.5"], "positive_int value: '2.5'"),
            (ENUMERATE_G1_Q3 + ["--bound-override", "x"], "index_bound value: 'x'"),
            (ENUMERATE_G1_Q3 + ["--bound-override", "1=x"], "index_bound value: '1=x'"),
            (ENUMERATE_G1_Q3 + ["--bound-override", "7=0"], "--bound-override index 7"),
            (ENUMERATE_G1_Q3 + ["--bound-override", "0=1"], "--bound-override index 0"),
            (
                ["enumerate", "--g", "2", "--q", "3", "--bound-override", "3=1"]
                + ["--bound-override", "1=2"],
                "--bound-override index 1",
            ),
            (
                ["base-change", "--n", "0", "--q", "5", "--poly", ELLIPTIC],
                "positive_int value: '0'",
            ),
            (
                ["base-change", "--n", "-2", "--q", "5", "--poly", ELLIPTIC],
                "positive_int value: '-2'",
            ),
            (ENUMERATE_G1_Q3 + ["--limit", "-1"], "nonnegative_int value: '-1'"),
            (ENUMERATE_G1_Q3 + ["--limit", "x"], "nonnegative_int value: 'x'"),
            (SEARCH_F9 + ["--m", "-1", "--limit", "-1"], "nonnegative_int value: '-1'"),
            (ENUMERATE_G1_Q3 + ["--newton", "ordinay"], "choice: 'ordinay'"),
        ],
    )
    def test_bad_option_values(self, capsys, argv, value):
        # a bound below 1 would scan no candidates and report a vacuous rank
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == "" and f"invalid {value}" in captured.err
        assert "Traceback" not in captured.err

    def test_classify_takes_no_bound(self, capsys):
        # the exponent box is the oracle's own setting: `oracle --bound` keeps it
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--q", "5", "--poly", ELLIPTIC, "--bound", "5"])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == "" and "unrecognized arguments: --bound 5" in captured.err
        assert main(ORACLE_NON_NEAT + ["--bound", "5"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["exponent_bound"], rec["basis"]) == (5, [[1, 1, -1]])

    def test_oracle_disagreement(self, capsys, monkeypatch):
        real = weilrank.classify.oracle_rank

        def wrong(w, **kwargs):
            o = real(w, **kwargs)
            return OracleRank(rank=o.rank + 1, confidence=o.confidence, lattice=o.lattice)

        monkeypatch.setattr(weilrank.classify, "oracle_rank", wrong)
        code, out = run(capsys, "classify", "--q", "5", "--poly", PRODUCT, "--oracle-check")
        assert code == 3 and out == []


class TestBatch:
    def _batch(self, tmp_path, capsys, lines):
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return run(capsys, "classify", "--batch", str(path))

    def test_line_alignment(self, tmp_path, capsys):
        lines = [
            '{"coeffs": ["5", "-1", "1"], "q": "5"}',
            "not json",
            "",
            '{"q": 5}',
            '{"coeffs": [5, 1.5, 1], "q": 5}',
            '{"coeffs": [5, -9, 1], "q": 5}',
            '{"coeffs": [5, -2, 1], "q": 5}',
        ]
        code, out = self._batch(tmp_path, capsys, lines)
        assert len(out) == len(lines)
        recs = [json.loads(o) for o in out]
        assert recs[0]["rank"] == 1 and recs[0]["coeffs"] == ["5", "-1", "1"]
        for i in (1, 3, 4):
            assert recs[i]["error"] == "MalformedInput"
        assert recs[2] == {}
        assert recs[5]["valid"] is False and recs[5]["error"] == "RiemannHypothesisFails"
        assert recs[6]["rank"] == 1 and recs[6]["coeffs"] == ["5", "-2", "1"]
        assert code == 2  # the worst line: an invalid Weil polynomial

    def test_malformed_line_gives_exit_one(self, tmp_path, capsys):
        lines = [
            '{"coeffs": ["5", "-1", "1"], "q": "5"}',
            "not json",
            '{"coeffs": [5, -2, 1], "q": 5}',
        ]
        code, out = self._batch(tmp_path, capsys, lines)
        assert code == 1 and len(out) == 3
        assert json.loads(out[1])["error"] == "MalformedInput"
        assert json.loads(out[2])["rank"] == 1

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        code, out = run(capsys, "classify", "--batch", str(tmp_path / "missing.jsonl"))
        assert code == 1 and out == []

    def test_fourfold_diagnostic(self, tmp_path, capsys):
        # each line gets the record of the single-input run: (t^2 - t + 5)^2 (t^2 - 2t + 5)^2
        # over F_5, and a fourfold over F_2 that needs an extension of degree 4
        fourfold = "625,-750,825,-510,284,-102,33,-6,1"
        argv = ["classify", "--fourfold-diagnostic"]
        code, single = run(capsys, *argv, "--q", "5", "--poly", fourfold)
        assert code == 0 and json.loads(single[0])["oracle_rank"] == 2
        path = tmp_path / "in.jsonl"
        lines = [f'{{"coeffs": [{fourfold}], "q": 5}}', '{"coeffs": [16,0,0,0,1,0,0,0,1], "q": 2}']
        path.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, *argv, "--batch", str(path))
        assert code == 2 and out[0] == single[0]
        assert json.loads(out[1])["error"] == "NotSufficientlyLarge"


class TestEnumerateGolden:
    """`weilrank enumerate` output, recorded from the full-box enumerator."""

    def _enumerate(self, capsys, *argv):
        code = main(["enumerate", "--g", "2", "--q", "3", *argv])
        captured = capsys.readouterr()
        return code, captured.out.splitlines(), captured.err

    def test_g2_q3(self, capsys):
        code, out, err = self._enumerate(capsys)
        assert code == 0
        assert out == GOLDEN_ENUMERATE.read_text().splitlines()
        assert len(out) == 63 and err == "enumerated 63 polynomials\n"

    def test_limit(self, capsys):
        code, out, err = self._enumerate(capsys, "--limit", "5")
        assert code == 0
        assert out == GOLDEN_ENUMERATE.read_text().splitlines()[:5]
        assert err == "enumerated 5 polynomials\n"

    def test_bound_override(self, capsys):
        code, out, _ = self._enumerate(capsys, "--bound-override", "2=1", "--bound-override", "3=2")
        recs = [json.loads(line) for line in out]
        assert code == 0
        assert {(rec["schema"], rec["q"]) for rec in recs} == {("weilrank/1", "3")}
        assert [rec["coeffs"] for rec in recs] == [
            ["9", "-6", "1", "-2", "1"],
            ["9", "-3", "-1", "-1", "1"],
            ["9", "-3", "0", "-1", "1"],
            ["9", "-3", "1", "-1", "1"],
            ["9", "0", "-1", "0", "1"],
            ["9", "0", "0", "0", "1"],
            ["9", "0", "1", "0", "1"],
            ["9", "3", "-1", "1", "1"],
            ["9", "3", "0", "1", "1"],
            ["9", "3", "1", "1", "1"],
            ["9", "6", "1", "2", "1"],
        ]


NON_INTEGRAL_F4 = "64,-48,0,10,0,-3,1"  # over F_4: slope 1/4 of length 2


class TestNonIntegralPolygon:
    def test_classify_exits_two_naming_the_slope(self, capsys):
        code, out, err = run_err(capsys, "classify", "--q", "4", "--poly", NON_INTEGRAL_F4)
        assert code == 2 and out == []
        assert err == (
            "invalid: NonIntegralPolygon: Newton polygon slope 1/4 has length 2, and"
            " 1/4 * 2 is not an integer: no abelian variety of dimension 3 has these"
            " eigenvalues\n"
        )

    def test_every_non_integral_quartic_over_f4(self, tmp_path, capsys):
        quartics = [
            w.poly.coeffs
            for w in enumerate_weil(SearchSpec(g=2, q=4))
            if not _is_integral(newton_polygon(w))
        ]
        assert len(quartics) == 10
        for coeffs in quartics:
            argv = ["classify", "--auto-extend", "--q", "4", "--poly", ",".join(map(str, coeffs))]
            code, out, err = run_err(capsys, *argv)
            assert code == 2 and out == []
            assert err.startswith("invalid: NonIntegralPolygon: Newton polygon slope ")
        path = tmp_path / "in.jsonl"
        path.write_text("".join(json.dumps({"coeffs": c, "q": 4}) + "\n" for c in quartics))
        code, out, err = run_err(capsys, "classify", "--auto-extend", "--batch", str(path))
        assert code == 2 and err == ""
        assert [json.loads(o)["error"] for o in out] == ["NonIntegralPolygon"] * 10


class TestEnumerateStream:
    def test_negative_dimension_is_invalid(self, capsys):
        code, out = run(capsys, "enumerate", "--g", "-1", "--q", "3")
        assert code == 2 and out == []

    def test_reader_closing_early(self):
        # g = 3, q = 4 writes about 130 KB, more than a pipe holds, so the
        # writer is still printing when the reader closes its end
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        argv = [sys.executable, "-m", "weilrank.cli", "enumerate", "--g", "3", "--q", "4"]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert json.loads(first)["q"] == "4"
        assert "Traceback" not in err and "BrokenPipeError" not in err
