import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorseq.cli
from anchorseq import SolutionFamily, family_from_json_dict, solution_tuple, solve_scheme
from anchorseq.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _parse_int,
    main,
)
from anchorseq.construction import DefaultScheme
from anchorseq.variants import SCHEMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_golden_range(self, capsys):
        code, out, _ = run(capsys, "table", "--scheme", "default", "--range", "-12..12")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 25
        assert lines[0].split() == ["-12", "5^2"]
        assert lines[-1].split() == ["12", "23"]
        assert any(l.split() == ["11", "2^5·3·7"] for l in lines)

    def test_zero_range(self, capsys):
        code, out, _ = run(capsys, "table", "--range", "0..0")
        assert code == EXIT_OK
        assert out.split() == ["0", "1"]

    def test_no_prime_all_nontrivial(self, capsys):
        code, out, _ = run(
            capsys, "table", "--scheme", "no_prime", "--range", "-20..20", "--format", "tsv"
        )
        assert code == EXIT_OK
        for line in out.strip().splitlines():
            s, value, factored = line.split("\t")
            assert int(value) > 1

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--range", "10..11", "--format", "json")
        rows = json.loads(out)
        assert rows == [
            {"s": 10, "value": "19", "factors": [[19, 1]]},
            {"s": 11, "value": "672", "factors": [[2, 5], [3, 1], [7, 1]]},
        ]

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table", "--range", "5")
        assert code == EXIT_USAGE


class TestVerify:
    def test_condition_c(self, capsys):
        code, out, _ = run(capsys, "verify", "C", "--scheme", "default", "--range", "200")
        assert code == EXIT_OK and "pass" in out

    def test_condition_e(self, capsys):
        code, out, _ = run(
            capsys, "verify", "E", "--scheme", "euler_prime", "--range", "60"
        )
        assert code == EXIT_OK and "pass" in out

    def test_condition_d(self, capsys):
        code, out, _ = run(capsys, "verify", "D", "--scheme", "default", "--q", "3")
        assert code == EXIT_OK
        assert "{2, 3, 5, 7}" in out

    def test_condition_d_failure_exits_nonzero(self, capsys):
        # the all-composite scheme is legitimately inadmissible at p = 2
        code, out, _ = run(capsys, "verify", "D", "--scheme", "no_prime", "--q", "2")
        assert code == EXIT_CHECK_FAILED
        assert "FAIL at p = 2" in out

    def test_broken_scheme_fixture_fails_e(self, capsys, monkeypatch):
        from anchorseq.construction import DefaultScheme, anchor_default

        class Broken(DefaultScheme):
            scheme_id = "broken"

            def anchor(self, p, n):
                # frozen at the first level, out of step with the default
                # limit: the spacing witness built from anchor(p, n+1) only
                # ever carries p^1, never the p^(n+1) it needs
                return anchor_default(p, 1)

        monkeypatch.setitem(SCHEMES, "broken", Broken())
        code, out, _ = run(capsys, "verify", "E", "--scheme", "broken", "--range", "10")
        assert code == EXIT_CHECK_FAILED and "FAIL" in out


class TestSolve:
    def test_q1_text(self, capsys):
        code, out, _ = run(capsys, "solve", "--q", "1")
        assert code == EXIT_OK
        assert "base = 11" in out and "modulus = 12" in out

    def test_q3_modulus(self, capsys):
        code, out, _ = run(capsys, "solve", "--q", "3")
        assert "modulus = 840" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "solve", "--q", "2", "--format", "json")
        fam = family_from_json_dict(json.loads(out))
        direct = solve_scheme(SCHEMES["default"], 2)
        assert fam == direct
        assert solution_tuple(fam, 5) == solution_tuple(direct, 5)
        assert json.dumps(fam.to_json_dict()) == json.dumps(direct.to_json_dict())

    def test_json_past_the_int_str_limit(self, capsys, monkeypatch):
        # 5,000 digits: more than Python 3.11+ converts to str by default
        modulus = 10**4999
        family = SolutionFamily(q=1, base=1, modulus=modulus, moduli={-1: 1, 0: 1, 1: modulus})
        monkeypatch.setattr(anchorseq.cli, "solve_scheme", lambda scheme, q: family)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "solve", "--q", "1", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        data = json.loads(out)
        assert data["modulus"] == "1" + "0" * 4999
        assert family_from_json_dict(data) == family  # reads past the limit too
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


class TestSearch:
    def test_desk_scale_witness(self, capsys):
        code, out, _ = run(capsys, "search", "--q", "1", "--k", "0..100", "--rmin", "1")
        assert code == EXIT_OK
        lines = [json.loads(l) for l in out.strip().splitlines()]
        witnesses = [l for l in lines if "values" in l]
        summary = [l for l in lines if "summary" in l]
        assert witnesses[0]["k"] == "1"
        assert witnesses[0]["values"]["0"] == "23"
        assert summary and summary[0]["summary"]["witnesses"] == len(witnesses)

    def test_scientific_notation_range(self, capsys):
        code, out, _ = run(
            capsys, "search", "--q", "1", "--k", "0..1e3", "--rmin", "1000",
            "--max-witnesses", "1",
        )
        assert code == EXIT_OK

    def test_huge_window_stops_early(self, capsys):
        code, out, _ = run(capsys, "search", "--q", "1", "--k", "0..1e400", "--max-witnesses", "1")
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[-1])["summary"]["k_range"] == ["0", "1" + "0" * 400]

    def test_unwritable_output_fails_before_search(self, capsys, monkeypatch):
        def searched(*args, **kwargs):
            raise RuntimeError("searched before opening -o")

        monkeypatch.setattr("anchorseq.cli.search_tuples", searched)
        code, _, err = run(capsys, "search", "--q", "1", "--k", "0..10", "-o", "/nonexistent/x")
        assert code == EXIT_USAGE
        assert "cannot write /nonexistent/x" in err

    def test_inadmissible_scheme_fails(self, capsys):
        code, _, err = run(capsys, "search", "--scheme", "no_prime", "--q", "2", "--k", "0..10")
        assert code == EXIT_CHECK_FAILED
        assert "divisible by 2" in err

    def test_output_deterministic_across_workers(self, capsys):
        _, out1, _ = run(capsys, "search", "--q", "2", "--k", "0..20000", "--workers", "1")
        _, out2, _ = run(capsys, "search", "--q", "2", "--k", "0..20000", "--workers", "3")
        assert out1 == out2


class TestGalaxy:
    def test_from_search_stream(self, capsys, tmp_path):
        code, out, _ = run(capsys, "search", "--q", "1", "--k", "0..10", "--rmin", "1")
        stream = tmp_path / "witnesses.jsonl"
        stream.write_text(out)
        code, out, _ = run(capsys, "galaxy", "--witness-file", str(stream))
        assert code == EXIT_OK
        assert "23" in out and out.count("prime") >= 2

    def test_inline_witness_json(self, capsys):
        witness = {"k": "1", "values": {"-1": "2", "0": "23", "1": "11"}}
        code, out, _ = run(capsys, "galaxy", "--witness", json.dumps(witness), "--format", "json")
        report = json.loads(out)
        assert report["omega"] == "23"
        assert [r["prime"] for r in report["rows"]] == [False, True, False]

    def test_tampered_witness_rejected(self, capsys, tmp_path):
        witness = {"k": "1", "values": {"-1": "2", "0": "29", "1": "11"}}
        stream = tmp_path / "bad.json"
        stream.write_text(json.dumps(witness))
        code, _, err = run(capsys, "galaxy", "--witness-file", str(stream))
        assert code == EXIT_CHECK_FAILED
        assert "verification failed" in err


def test_scheme_info(capsys):
    code, out, _ = run(capsys, "scheme-info", "--scheme", "euler_prime")
    assert code == EXIT_OK
    info = json.loads(out)
    assert info["anchors_n1"]["7"] == "3"
    assert any(c["p"] == 7 and c["s1"] == "3" for c in info["qnr_choices"])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "anchorseq.cli", "table", "--range", "1..2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["1", "2", "2", "3"]


def test_import_leaves_the_process_pool_out():
    # only search --workers N > 1 needs the pool, and importing
    # concurrent.futures pulls in multiprocessing, which slows every command
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, anchorseq.cli; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.strip().strip("[]").replace("'", "").split(", ")
    assert "anchorseq.cli" in modules
    assert "concurrent.futures" not in modules and "multiprocessing" not in modules


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


EXACT_INTS = {
    "17": 17,
    "-3": -3,
    "1e6": 10**6,
    "1e23": 10**23,
    "12345678901234567e3": 12345678901234567000,
    "1e400": 10**400,
    "150e-1": 15,
    "-2E3": -2000,
}


@pytest.mark.parametrize("text", list(EXACT_INTS))
def test_parse_int_is_exact(text):
    assert _parse_int(text) == EXACT_INTS[text]


@pytest.mark.parametrize("text", ["1.5", "1e-1", "inf", "-inf", "nan", "x", "", "1e4300"])
def test_parse_int_rejects(text):
    with pytest.raises(UsageError):
        _parse_int(text)


class _Crashing(DefaultScheme):
    scheme_id = "crashing"

    def anchor(self, p, n):
        raise RuntimeError("unexpected")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["search", "--q", "1", "--k", "0..10", "--workers", "-3"], EXIT_USAGE),
        (["search", "--q", "1", "--k", "0..10", "--workers", "0"], EXIT_USAGE),
        (["search", "--q", "1", "--k", "0..10", "--max-witnesses", "-1"], EXIT_USAGE),
        (["search", "--q", "1", "--k", "0..10", "--max-witnesses", "0"], EXIT_USAGE),
        (["search", "--q", "1", "--k", "0..10", "--sieve-bound", "100"], EXIT_USAGE),
        (["search", "--q", "1", "--k", "0..1e5000"], EXIT_USAGE),
        (["search", "--q", "1", "--k", "0..nan"], EXIT_USAGE),
        (["search", "--q", "1", "--k", "0..2.5"], EXIT_USAGE),
        (["galaxy", "--witness", '{"values":{}}'], EXIT_USAGE),
        (["galaxy", "--witness", '{"k":"1","values":[]}'], EXIT_USAGE),
        (["galaxy", "--witness", '{"k":null,"values":{"0":"23"}}'], EXIT_USAGE),
        (["galaxy", "--witness", '{"k":"1","values":{"1":"11"}}'], EXIT_USAGE),
        (["galaxy", "--witness", "not json"], EXIT_USAGE),
        (["galaxy", "--witness-file", "/nonexistent/witness.json"], EXIT_USAGE),
        (["scheme-info", "--scheme", "crashing"], EXIT_INTERNAL),
        (["table", "--range", "1..2", "-o", "/nonexistent/table.txt"], EXIT_USAGE),
        (["solve", "--q", "1", "-o", "/nonexistent/solve.txt"], EXIT_USAGE),
        (["verify", "C", "--range", "1e2"], EXIT_OK),
        (["verify", "E", "--range", "2E1"], EXIT_OK),
        (["verify", "D", "--q", "3e0"], EXIT_OK),
        (["verify", "C", "--range", "1.5"], EXIT_USAGE),
        (["verify", "D", "--q", "nan"], EXIT_USAGE),
        (["solve", "--q", "x"], EXIT_USAGE),
        (["search", "--q", "1e0", "--k", "0..10"], EXIT_OK),
        (["search", "--q", "1", "--k", "0..10", "--rmin", "1e1", "--workers", "1e0"], EXIT_OK),
        (["search", "--q", "1", "--k", "0..10", "--max-witnesses", "2e0"], EXIT_OK),
        (["search", "--q", "1", "--k", "0..10", "--extra-rounds", "2e0"], EXIT_OK),
        (["search", "--q", "1", "--k", "0..100", "--extra-rounds", "-5"], EXIT_USAGE),
        (["search", "--q", "1", "--k", "0..10", "--extra-rounds", "0.5"], EXIT_USAGE),
        (["search", "--q", "2.5", "--k", "0..10"], EXIT_USAGE),
        (["search", "--q", "1", "--k", "0..10", "--rmin", "inf"], EXIT_USAGE),
        pytest.param(
            ["galaxy", "--witness", '{"k":"1","values":{"0":"%s"}}' % ("1" * 5000)],
            EXIT_USAGE,
            marks=pytest.mark.skipif(
                sys.version_info < (3, 11), reason="no int <-> str digit limit before 3.11"
            ),
        ),
    ],
)
def test_exit_code_contract(capsys, monkeypatch, argv, code):
    monkeypatch.setitem(SCHEMES, "crashing", _Crashing())
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert err == ""
    elif not err.startswith("usage:"):  # argparse prints its usage line first
        assert len(err.strip().splitlines()) == 1


# Argv fuzzing.  Every number is small and every window short: `table` and
# `verify` allocate one row per index, so a huge range would only test memory.
# Values are valid three times in four, so many runs get past argparse.
SMALL_INTS = st.integers(-60, 60).map(str)
JUNK = st.sampled_from(["x", "1.5", "nan", "", "--bogus", "1e1", "-0", "..", "3..", "..3"])


def _mostly(valid):
    return st.one_of(valid, valid, valid, JUNK)


NUMBER = _mostly(SMALL_INTS)
SCHEME = _mostly(st.sampled_from(["default", "no_prime", "euler_prime"]))
FORMAT = st.sampled_from(["text", "json", "tsv", "jsonl", "xml"])
WITNESS = st.sampled_from(
    [
        '{"k": "1", "values": {"-1": "2", "0": "23", "1": "11"}}',
        '{"k": "1", "values": {"-1": "2", "0": "29", "1": "11"}}',
        '{"k": "1", "values": {"0": "23"}}',
        '{"values": []}',
        "[]",
        "{",
        "",
    ]
)


def _window(max_width):
    return st.builds(
        lambda lo, width: f"{lo}..{lo + width}", st.integers(-60, 60), st.integers(-3, max_width)
    )


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _usually(flag, values):
    return st.one_of(values.map(lambda v: [flag, v]), _opt(flag, values))


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [token for part in ps for token in part])


OUTPUT = _opt("-o", st.sampled_from(["-", "/nonexistent/out.txt"]))  # never a real file
ARGV = st.one_of(
    _command(
        "table", _opt("--scheme", SCHEME), _opt("--format", FORMAT),
        _usually("--range", _mostly(_window(200))), OUTPUT,
    ),
    _command(
        "verify", st.sampled_from([["C"], ["E"], ["D"], ["F"], []]), _opt("--scheme", SCHEME),
        _opt("--range", NUMBER), _usually("--q", NUMBER),
    ),
    _command(
        "solve", _opt("--scheme", SCHEME), _opt("--format", FORMAT), _usually("--q", NUMBER),
        OUTPUT,
    ),
    _command(
        "search", _opt("--scheme", SCHEME), _usually("--q", _mostly(st.integers(1, 8).map(str))),
        _usually("--k", _mostly(_window(1000))), _opt("--rmin", NUMBER),
        _opt("--max-witnesses", _mostly(st.integers(0, 5).map(str))),
        _opt("--extra-rounds", _mostly(st.integers(-1, 3).map(str))),
        _opt("--workers", _mostly(st.sampled_from(["0", "1", "2"]))),
        st.sampled_from([[], ["--no-sieve"]]), OUTPUT,
    ),
    _command(
        "galaxy", _opt("--scheme", SCHEME), _opt("--format", FORMAT),
        _usually("--witness", _mostly(WITNESS)),
        _opt("--witness-file", st.sampled_from(["/nonexistent/w.json", ""])),
    ),
    _command("scheme-info", _opt("--scheme", SCHEME)),
    st.lists(
        st.one_of(
            st.sampled_from(["table", "verify", "search", "C", "--q", "--k", "--range", "-h"]),
            SMALL_INTS,
            JUNK,
        ),
        max_size=6,
    ),
)


@settings(max_examples=50, deadline=None)
@given(ARGV)
def test_any_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_INTERNAL)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code != EXIT_OK and not err.getvalue().startswith("usage:"):
        assert len(err.getvalue().splitlines()) <= 1


def test_workers_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("ANCHORSEQ_WORKERS", "x")
    code, out, _ = run(capsys, "table", "--range", "1..2")
    assert code == EXIT_OK and out.split() == ["1", "2", "2", "3"]
