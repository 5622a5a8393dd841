"""CLI behaviour: parsing, exit codes, schema stability."""
import argparse
import hashlib
import json
import runpy
import sys
import warnings

import pytest

from orbiforge import cli
from orbiforge.cli import main
from orbiforge.fixtures import fixture_text
from orbiforge.presfile import (ParseError, parse_presentation, parse_word,
                                render_presentation)


@pytest.fixture()
def p6_file(tmp_path):
    path = tmp_path / "p6.txt"
    path.write_text(fixture_text("p6"))
    return str(path)


class TestParser:
    def test_p6_parse(self):
        p = parse_presentation(fixture_text("p6"))
        assert p.name == "p6"
        assert p.generators == ("a", "b")
        assert [r.letters for r in p.relators] == [
            (1,) * 6, (2,) * 3, (1, 2, 1, 2)]

    def test_unknown_generator_position(self):
        with pytest.raises(ParseError, match="unknown generator 'c'$") as err:
            parse_presentation("group t\ngens a b\nrel a c\n")
        assert err.value.line == 3
        assert "c" in err.value.message

    def test_missing_gens(self):
        with pytest.raises(ParseError, match="missing 'gens' line$") as err:
            parse_presentation("group t\nrel a\n")
        assert (err.value.line, err.value.col) == (1, 1)

    def test_empty_generator_list(self):
        with pytest.raises(ParseError, match="empty generator list$"):
            parse_presentation("group t\ngens\n")

    def test_negative_and_nested_powers(self):
        p = parse_presentation("group t\ngens a b\nrel (a b^-1)^2\n")
        assert p.relators[0].letters == (1, -2, 1, -2)

    def test_render_parse_roundtrip_on_bundled_corpus(self):
        for name in ("p6", "p4", "tetrahedral", "figure8"):
            p = parse_presentation(fixture_text(name))
            assert parse_presentation(render_presentation(p)) == p

    def test_render_is_normal_form(self):
        text = "group t\ngens a b\nrel (a b)^2\nrel a a a\n"
        p = parse_presentation(text)
        rendered = render_presentation(p)
        assert rendered == "group t\ngens a b\nrel a b a b\nrel a^3\n"
        assert parse_presentation(rendered) == p

    def test_nesting_is_bounded_by_the_letter_cap_alone(self):
        # groups are parsed with an explicit stack; a recursive parser ended
        # in RecursionError at about 500 levels
        p = parse_presentation(fixture_text("p6"))
        depth = 5000
        assert parse_word("(" * depth + "a b" + ")" * depth + "^-1", p).letters == (-2, -1)
        pres = parse_presentation(f"group t\ngens a\nrel {'(' * depth}a^2{')' * depth}\n")
        assert pres.relators[0].letters == (1, 1)

    @pytest.mark.parametrize("text, message, col", [
        ("(a b))", "unbalanced ')'", 6),
        ("((a b)", "missing closing parenthesis", 7),
        ("(a (b)^2", "missing closing parenthesis", 9),
        (")", "unbalanced ')'", 1),
        ("(" * 5000 + "a" + ")" * 4999, "missing closing parenthesis", 10001),
        ("(" * 4999 + "a" + ")" * 5000, "unbalanced ')'", 10000),
    ], ids=["extra-close", "missing-close", "missing-close-after-power", "lone-close",
            "deep-missing-close", "deep-extra-close"])
    def test_unbalanced_parentheses(self, text, message, col):
        p = parse_presentation(fixture_text("p6"))
        with pytest.raises(ParseError) as err:
            parse_word(text, p)
        assert (err.value.message, err.value.line, err.value.col) == (message, 1, col)
        # in a file the word starts after "rel " on line 3
        with pytest.raises(ParseError) as err:
            parse_presentation(f"group t\ngens a b\nrel {text}\n")
        assert (err.value.message, err.value.line, err.value.col) == (message, 3, col + 4)

    @pytest.mark.parametrize("text, message, col", [
        ("a^", "unexpected token '^'", 2),
        ("(a b)^ a", "unexpected token '^'", 6),
        ("^2 a", "unexpected token '^2'", 1),
        ("a^2^3", "unexpected token '^3'", 4),
    ], ids=["bare-power", "bare-power-after-group", "power-before-any-term", "power-of-power"])
    def test_power_needs_digits_and_a_term_before_it(self, text, message, col):
        # `a^` once read as a^0 and `(a b)^ a` as `a`
        p = parse_presentation(fixture_text("p6"))
        with pytest.raises(ParseError) as err:
            parse_word(text, p)
        assert (err.value.message, err.value.line, err.value.col) == (message, 1, col)
        with pytest.raises(ParseError) as err:
            parse_presentation(f"group t\ngens a b\nrel {text}\n")
        assert (err.value.message, err.value.line, err.value.col) == (message, 3, col + 4)

    def test_bad_generator_name_column(self):
        # the column of the bad name itself, not of its first occurrence as a substring
        with pytest.raises(ParseError, match="bad generator name '1'$") as err:
            parse_presentation("group t\ngens a1 1\n")
        assert (err.value.message, err.value.line, err.value.col) == (
            "bad generator name '1'", 2, 9)

    def test_duplicate_generator_name_position(self):
        # the repeat is a positioned ParseError, not an unpositioned
        # PresentationError from building the Presentation
        with pytest.raises(ParseError, match="duplicate generator name 'a'$") as err:
            parse_presentation("group t\ngens a  b a\nrel a b\n")
        assert (err.value.message, err.value.line, err.value.col) == (
            "duplicate generator name 'a'", 2, 11)

    @pytest.mark.parametrize("text, message, line, col", [
        ("group t\ngroup u\ngens a\n", "duplicate 'group' line", 2, 1),
        ("group \ngens a\n", "missing group name", 1, 6),
        ("group t\ngens a\ngens b\n", "duplicate 'gens' line", 3, 1),
        ("group t\ngens a\n  relator a\n", "unknown directive 'relator'", 3, 3),
        ("gens a\nrel a\n", "missing 'group' line", 1, 1),
        ("group t\ngens a\nrel a)\n", r"unbalanced '\)'", 3, 6),
        ("group t\ngens a\nrel (a\n", "missing closing parenthesis", 3, 7),
        ("group t\ngens a\nrel a^\n", r"unexpected token '\^'", 3, 6),
        # lines break at \n, \r\n and \r alone: \x85, U+2028 and the other
        # separators that str.splitlines() knows are whitespace in their line
        ("group t\r\ngens a\r\nrel a c\r\n", "unknown generator 'c'", 3, 7),
        ("group t\rgens a\rrel a c\r", "unknown generator 'c'", 3, 7),
        ("group t\ngens a\nrel a\u2028b\n", "unknown generator 'b'", 3, 7),
        ("group t\ngens a\nrel a\x85b\n", "unknown generator 'b'", 3, 7),
    ], ids=["duplicate-group", "group-name", "duplicate-gens", "directive", "no-group",
            "unbalanced", "unclosed", "bare-power", "crlf", "cr", "u2028", "x85"])
    def test_file_errors(self, text, message, line, col):
        with pytest.raises(ParseError, match=f"{message}$") as err:
            parse_presentation(text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_texts_parse_as_lf_texts(self, newline):
        text = fixture_text("p6")
        assert parse_presentation(text.replace("\n", newline)) == parse_presentation(text)

    def test_unknown_fixture(self):
        with pytest.raises(KeyError, match="no bundled fixture 'p5'; have "):
            fixture_text("p5")

    def test_parse_word_against_presentation(self):
        p = parse_presentation(fixture_text("p6"))
        assert parse_word("b a^-2", p).letters == (2, -1, -1)

    def test_power_past_the_word_cap_is_refused_before_expansion(self):
        # 99999999999 letters would not fit in memory: the parser must
        # compare len(inner) * power with the cap before building anything
        with pytest.raises(ParseError) as err:
            parse_presentation("group t\ngens a b\nrel (a b)^-99999999999\n")
        assert (err.value.line, err.value.col) == (3, 10)
        assert "longer than 1000000 letters" in err.value.message
        # int() refuses a 5000-digit string, so such a power is not converted
        p = parse_presentation(fixture_text("p6"))
        for sign in ("", "-"):
            with pytest.raises(ParseError, match="longer than 1000000 letters"):
                parse_word(f"a^{sign}{'9' * 5000}", p)
        assert parse_word(f"()^{'9' * 5000} a^-{'0' * 5000}2", p).letters == (-1, -1)

    def test_word_cap_bounds_powers_and_sums_of_terms(self, monkeypatch):
        from orbiforge import presfile

        monkeypatch.setattr(presfile, "MAX_WORD_LETTERS", 10)
        p = parse_presentation(fixture_text("p6"))
        assert len(parse_word("(a b)^5", p)) == 10
        # letters are counted as written, before free reduction
        assert parse_word("a^4 b^3 (a b)^-1 a", p).letters == (1,) * 4 + (2,) * 2
        for text in ("(a b)^6", "a^-11", "(a b)^5 a", "(a^6 b^6)", "a^4 b^3 (a b)^-1 a b"):
            with pytest.raises(ParseError, match="longer than 10 letters"):
                parse_word(text, p)

    def test_word_cap_is_an_input_error(self, p6_file, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("group t\ngens a\nrel a^99999999999\n")
        assert main(["abelianize", str(big)]) == 2
        assert main(["cosets", p6_file, "--subgroup", "b a^99999999999"]) == 2
        err = capsys.readouterr().err
        assert err.count("longer than 1000000 letters") == 2


    def test_deep_nesting_in_both_entry_points(self, p6_file, tmp_path, capsys):
        depth = 5000
        deep = tmp_path / "deep.txt"
        deep.write_text(f"group deep\ngens a\nrel {'(' * depth}a^6{')' * depth}\n")
        assert main(["abelianize", str(deep)]) == 0
        assert capsys.readouterr().out == "deep: Z/6\n"
        sub = f"{'(' * depth}b a^-2{')' * depth}; b^-1 a^2"
        assert main(["cosets", p6_file, "--subgroup", sub]) == 0
        assert "index: 6" in capsys.readouterr().out
        deep.write_text(f"group deep\ngens a\nrel {'(' * depth}a^6{')' * (depth - 1)}\n")
        assert main(["abelianize", str(deep)]) == 2
        assert main(["cosets", p6_file, "--subgroup", sub[:-len("; b^-1 a^2") - 1]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].endswith(f"line 3, column {2 * depth + 7}: missing closing parenthesis")
        assert err[1].endswith(f"line 1, column {2 * depth + 6}: missing closing parenthesis")


class TestSubcommands:
    def test_abelianize(self, p6_file, capsys):
        assert main(["abelianize", p6_file]) == 0
        assert "Z/6" in capsys.readouterr().out

    def test_abelianize_without_entry_blowup(self, tmp_path, capsys):
        # exponent sums [49,6,6,-20,2,0,6], [-2,2,3,-2,3,2,42], ...: elimination
        # by quotient and swap never finished on this presentation
        path = tmp_path / "blowup.txt"
        path.write_text("group blowup\ngens a b c d e f g\n"
                        "rel a^49 b^6 c^6 d^-20 e^2 g^6\n"
                        "rel a^-2 b^2 c^3 d^-2 e^3 f^2 g^42\n"
                        "rel a^-2 b^-43 c^6 d^-1 f^-2 g^3\n"
                        "rel a^-2 b^-4 c^3 d g^3\n"
                        "rel a^-4 d^-4 f^6\n"
                        "rel a b^-2 c d^-37 e^2 f^-4 g\n")
        assert main(["abelianize", str(path)]) == 0
        assert capsys.readouterr().out == "blowup: Z x Z/2 x Z/2\n"

    def test_cosets(self, p6_file, capsys):
        rc = main(["cosets", p6_file, "--subgroup", "b a^-2; b^-1 a^2"])
        assert rc == 0
        assert "index: 6" in capsys.readouterr().out

    def test_classify_model(self, capsys):
        assert main(["classify", "p6"]) == 0
        assert "S2(2,3,6)" in capsys.readouterr().out

    def test_classify_kernel(self, capsys):
        assert main(["classify", "p6", "--sign", "a=-1"]) == 0
        assert "S2(3,3,3)" in capsys.readouterr().out

    def test_double_cover(self, capsys):
        assert main(["double-cover", "p4m"]) == 0
        assert "S2(2,4,4)" in capsys.readouterr().out

    def test_rhombic(self, capsys):
        assert main(["rhombic", "1,0", "1/2,1/2*rt3"]) == 0
        assert "yes" in capsys.readouterr().out
        assert main(["rhombic", "2,0", "0,1"]) == 0
        assert "no" in capsys.readouterr().out

    @pytest.mark.parametrize("v2", ["10000000000000000000000000000000000000000+rt3,1",
                                    "1" + "0" * 400 + "+rt3,1"])
    def test_rhombic_with_huge_components(self, v2, capsys):
        # exceed float precision and float range respectively
        assert main(["rhombic", "1,0", v2]) == 0
        assert "no" in capsys.readouterr().out

    def test_verdict(self, capsys):
        assert main(["verdict", "S2(2,4,4)"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "excluded"
        assert record["reason"] == "four_torsion"
        assert all(c["pass"] for c in record["checks"])

    def test_verdict_realizable(self, capsys):
        assert main(["verdict", "D2(3;3)", "--no-checks"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "realizable"
        assert "figure-eight" in record["witness"]


    @pytest.mark.parametrize("signature, failing", [
        ("S2(2,4,4)", ["h-map-order-2"]), ("S2(2,3,6)", ["collapse-order-2"])])
    def test_failing_certificate_is_a_failed_verdict_check(self, signature, failing,
                                                           capsys, monkeypatch):
        from orbiforge import knotcusp

        def broken(p, extras, name):
            raise knotcusp.TheoremCheckError(f"quotient {name} has order 1")

        monkeypatch.setattr(knotcusp, "_certify_order_two", broken)
        assert main(["verdict", signature]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == failing
        assert all("has order 1" in c["detail"] for c in checks if not c["pass"])


class TestExitCodes:
    def test_unknown_model_is_input_error(self, capsys):
        assert main(["classify", "p7"]) == 2

    def test_unknown_signature_is_input_error(self, capsys):
        assert main(["verdict", "S2(9,9,9)"]) == 2

    def test_unknown_check_id_is_input_error(self, capsys):
        assert main(["verify-paper", "--only", "no-such-check"]) == 2

    @pytest.mark.parametrize("only", ["", ",", " , "])
    def test_empty_check_selection_is_input_error(self, only, capsys):
        # an empty --only used to run every check
        assert main(["verify-paper", "--only", only]) == 2
        err = capsys.readouterr().err
        assert "no check ids given" in err and "available: rep-236" in err

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("group t\ngens a\nrel a c\n")
        assert main(["abelianize", str(bad)]) == 2

    def test_non_ascii_power_digits_are_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "digits.txt"
        bad.write_text("group t\ngens a\nrel a^\u0663\n", encoding="utf-8")
        assert main(["abelianize", str(bad)]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: line 3, column 6: unexpected token '^'\n"

    def test_duplicate_generator_name_is_a_positioned_input_error(self, tmp_path, capsys):
        bad = tmp_path / "dup.txt"
        bad.write_text("group t\ngens a a\n")
        assert main(["abelianize", str(bad)]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: line 2, column 8: duplicate generator name 'a'\n"

    def test_resource_limit_is_exit_3(self, p6_file, capsys, monkeypatch):
        monkeypatch.setenv("ORBIFORGE_MAX_COSETS", "2")
        assert main(["cosets", p6_file, "--subgroup", "b a^-2; b^-1 a^2"]) == 3

    def test_resource_limit_quotes_the_allowance_in_force(self, p6_file, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("ORBIFORGE_MAX_COSETS", "2")
        assert main(["cosets", p6_file, "--subgroup", "b a^-2"]) == 3
        assert "(current allowance 2)" in capsys.readouterr().err
        assert main(["cosets", p6_file, "--subgroup", "b a^-2", "--max-cosets", "5"]) == 3
        assert "(current allowance 5)" in capsys.readouterr().err

    def test_resource_limit_says_how_far_it_got(self, p6_file, capsys):
        assert main(["cosets", p6_file, "--subgroup", "b a^-2", "--max-cosets", "5"]) == 3
        err = capsys.readouterr().err
        assert "after defining 5 rows, 5 still live; index unknown" in err
        assert err.rstrip().endswith("(current allowance 5)")

    # int() reads these too, but the integer options take ASCII digits only,
    # and no more of them than int() reads
    NOT_ASCII_INTEGERS = ["\u0663", "\uff15\uff10", "1_0", " 3 ", "1" * 4301]

    @pytest.mark.parametrize("value", ["abc", "0", "-5"] + NOT_ASCII_INTEGERS)
    def test_bad_allowance_environment_is_input_error(self, value, p6_file, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("ORBIFORGE_MAX_COSETS", value)
        assert main(["cosets", p6_file]) == 2
        assert main(["classify", "p6"]) == 2
        assert main(["verify-paper", "--only", "rigid-index"]) == 2
        assert "ORBIFORGE_MAX_COSETS" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"] + NOT_ASCII_INTEGERS)
    def test_bad_max_cosets_flag_is_input_error(self, value, p6_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cosets", p6_file, "--max-cosets", value])
        assert exc.value.code == 2
        assert "argument --max-cosets: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x"] + NOT_ASCII_INTEGERS)
    def test_bad_seed_is_input_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--only", "rigid-index", "--seed", value])
        assert exc.value.code == 2
        assert "argument --seed: " in capsys.readouterr().err

    @pytest.mark.parametrize("v1", ["1/0,0", "0,1+1/0*rt3"])
    def test_zero_denominator_is_input_error(self, v1, capsys):
        assert main(["rhombic", v1, "0,1"]) == 2
        assert "zero denominator in" in capsys.readouterr().err

    @pytest.mark.parametrize("v1, v2", [("\u0661,0", "0,\u0661"), ("1,0", "0,\uff11"),
                                        ("1,0", "0,1/\u0662*rt3")])
    def test_non_ascii_digits_are_input_error(self, v1, v2, capsys):
        # a component's digits are ASCII, so ARABIC-INDIC and FULLWIDTH
        # digits are not read as 1 and 2
        assert main(["rhombic", v1, v2]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("v2", ["1/2,1/2rt3", "1/2,1/2 rt3", "0,2rt3"])
    def test_rt3_term_without_operator_is_input_error(self, v2, capsys):
        # `1/2rt3` was read as 1/2+rt3, so the hexagonal lattice came out "no"
        assert main(["rhombic", "1,0", v2]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["abelianize"], ["cosets", "--subgroup", "a"]])
    def test_non_utf8_presentation_file_is_input_error(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfegroup t\ngens a\n")
        assert main([command[0], str(bad), *command[1:]]) == 2
        assert f"cannot read {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_invalid_sign_is_input_error(self, capsys):
        assert main(["classify", "p6", "--sign", "b=-1"]) == 2

    @pytest.mark.parametrize("signs", ["a=1,a=-1", "a=-1,a=1", "a=-1, a=-1", "a=-1,b=1,a=+1"])
    def test_repeated_sign_generator_is_input_error(self, signs, capsys):
        # the last value used to win: a=1,a=-1 classified as S2(3,3,3), and
        # a=-1,a=1 as the whole group
        assert main(["classify", "p6", "--sign", signs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: generator 'a' is given more than one sign\n"

    def test_internal_key_error_is_not_an_input_error(self, capsys, monkeypatch):
        from orbiforge import verify

        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(verify, "run_verification", broken)
        assert main(["verify-paper", "--only", "no-such-check"]) == 2
        with pytest.raises(KeyError):
            main(["verify-paper", "--only", "rigid-index"])


def _run(argv):
    """Run a subcommand as main does, but let its input error propagate."""
    args = cli.build_parser().parse_args(argv)
    return args.fn(args)


class TestInputErrors:
    @pytest.mark.parametrize("call, exc, message", [
        (lambda tmp: cli._positive_int("0"), argparse.ArgumentTypeError,
         "^must be a positive integer, got '0'$"),
        (lambda tmp: cli._read_presentation(str(tmp / "missing.txt")), cli.InputError,
         r"^cannot read .*missing\.txt: "),
        (lambda tmp: cli._read_presentation(str(tmp / "bad.txt")), cli.InputError,
         r"bad\.txt: line"),
        (lambda tmp: cli._parse_vector("1,2,3"), cli.InputError,
         "^vector must be 'x,y', got '1,2,3'$"),
        (lambda tmp: cli._parse_signs("a=-1,b"), cli.InputError,
         "^sign assignment must look like gen=-1, got 'b'$"),
        (lambda tmp: cli._parse_signs("a=2"), cli.InputError,
         r"^sign must be \+1 or -1, got '2'$"),
        (lambda tmp: cli._parse_signs("a=1, a=1"), cli.InputError,
         "^generator 'a' is given more than one sign$"),
        (lambda tmp: _run(["cosets", str(tmp / "p6.txt"), "--subgroup", "a; q"]), cli.InputError,
         "^subgroup word 'q': line"),
        (lambda tmp: _run(["rhombic", "1,0", "2,0"]), cli.InputError, "^degenerate basis "),
    ], ids=["max-cosets", "unreadable-file", "parse-error", "vector", "sign-item", "sign-value",
            "repeated-sign", "subgroup-word", "degenerate-basis"])
    def test_input_errors(self, call, exc, message, tmp_path):
        (tmp_path / "bad.txt").write_text("group t\ngens a\nrel a c\n")
        (tmp_path / "p6.txt").write_text(fixture_text("p6"))
        with pytest.raises(exc, match=message):
            call(tmp_path)

    def test_empty_sign_items_are_skipped(self, capsys):
        assert cli._parse_signs(" a=-1, ,b=+1,") == {"a": -1, "b": 1}
        assert main(["classify", "p6", "--sign", "a=-1,"]) == 0
        assert "S2(3,3,3)" in capsys.readouterr().out

    def test_module_runs_as_a_script(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["orbiforge", "classify", "p6"])
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
            # runpy warns that the test session has imported orbiforge.cli already
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("orbiforge.cli", run_name="__main__")
        assert exc.value.code == 0
        assert "signature: S2(2,3,6)" in capsys.readouterr().out


class TestVerifyRunner:
    def test_single_check_selection(self, capsys):
        assert main(["verify-paper", "--only", "rigid-index"]) == 0
        out = capsys.readouterr().out
        assert "rigid-index" in out
        assert "1 pass" in out

    def test_json_deterministic_across_runs(self, capsys):
        assert main(["verify-paper", "--only", "rep-236,rep-244,degree-metadata",
                     "--format", "json", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["verify-paper", "--only", "rep-236,rep-244,degree-metadata",
                     "--format", "json", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["summary"]["fail"] == 0
        assert all(set(c) == {"id", "anchor", "status", "detail", "wall_time_ms"}
                   for c in payload["checks"])

    def test_full_report_is_byte_stable(self):
        # the hash of the seed-0 report as first published; any change to a
        # verdict, a detail text or the JSON layout shows up here
        from orbiforge import verify

        text = verify.report_json(verify.run_verification(seed=0))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "b211b0928ef92206e7bd11fe4c0d0d59870b4bd6a3b3005c48fc834e5d327e88"

    @pytest.mark.parametrize("selection, what", [
        ([], "no check ids given"),
        (["rigid-index", "no-such-check"], "unknown check ids: ['no-such-check']"),
    ])
    def test_library_refuses_empty_or_unknown_selection(self, selection, what):
        # an empty list used to run every check; None still means all of them
        from orbiforge import verify

        with pytest.raises(KeyError, match="; available: rep-236") as exc:
            verify.run_verification(selection)
        message = str(exc.value)
        assert what in message
        assert "available: " + ", ".join(verify.CHECK_IDS) in message

    def test_lattice_identities_skip_a_zero_multiplier(self, monkeypatch):
        # seed 6 is the least seed whose seed + 2 stream draws z = 0 among its
        # multipliers; sublattice_index refuses 0, so the check draws again
        # and still indexes the 100 multipliers its detail text names
        from orbiforge import verify

        indexed = []

        def counting(z, index=verify.sublattice_index):
            indexed.append(z)
            return index(z)

        monkeypatch.setattr(verify, "sublattice_index", counting)
        report = verify.run_verification(["lattice-identities"], seed=6)
        assert [o.status for o in report.outcomes] == ["pass"]
        assert len(indexed) == 100 and not any(z.is_zero() for z in indexed)

    def test_lattice_identities_multiply_little_in_q_sqrt3(self, monkeypatch):
        # the rotation identities are proved on integer matrices and the
        # samples checked in integer coordinates, so the Q(sqrt3) products
        # are those of the conversions and the lattice verdicts: a fixed
        # count, whatever the seed draws (seed 6 draws a zero multiplier)
        from orbiforge import verify
        from orbiforge.exactgeom import QuadNum

        mul = QuadNum.__mul__
        counts = []
        for seed in (0, 6):
            verify.run_verification(["lattice-identities"], seed=seed)
            calls = 0

            def counted(self, other):
                nonlocal calls
                calls += 1
                return mul(self, other)

            monkeypatch.setattr(QuadNum, "__mul__", counted)
            monkeypatch.setattr(QuadNum, "__rmul__", counted)
            report = verify.run_verification(["lattice-identities"], seed=seed)
            monkeypatch.undo()
            assert [o.status for o in report.outcomes] == ["pass"]
            counts.append(calls)
        assert counts[0] == counts[1] and 0 < counts[0] < 300, counts

    def test_cited_checks_reported(self, capsys):
        assert main(["verify-paper", "--only", "cited-ab-upgrade"]) == 0
        assert "CITED" in capsys.readouterr().out

    def test_resource_limit_during_verify_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBIFORGE_MAX_COSETS", "2")
        assert main(["verify-paper", "--only", "rigid-index"]) == 3

    def test_collapse_check_enumerates_nothing(self, capsys, monkeypatch):
        # the order-2 certificate reads exponent sums, so an allowance of 1
        # passes collapse-236; rigid-index still enumerates
        monkeypatch.setenv("ORBIFORGE_MAX_COSETS", "1")
        assert main(["verify-paper", "--only", "collapse-236"]) == 0
        assert main(["verify-paper", "--only", "rigid-index"]) == 3

    def test_model_presentations_roundtrip(self):
        from orbiforge.fixtures import model_presentation_text
        from orbiforge.wallpaper import MODEL_NAMES, model

        for name in MODEL_NAMES:
            text = model_presentation_text(name)
            assert parse_presentation(text) == model(name).presentation

    def test_verdict_records_signature_note(self, capsys):
        assert main(["verdict", "D2(2,2;R)", "--no-checks"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert "typo" in record.get("signature_note", "")
