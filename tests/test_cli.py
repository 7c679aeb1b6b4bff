"""Tests for the bkl4 command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bkl4
import bkl4.cli
from bkl4.cli import main
from bkl4.engine import conjugate
from bkl4.words import MAX_WORD_LETTERS, beta_word, parse_braid, parse_word
from braids import CAP_CLASSES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_examples(capsys):
    code, out, err = run(capsys, "nf", "s1.s2.s3")
    assert code == 0
    assert out.splitlines()[0] == "d^1"

    code, out, err = run(capsys, "nf", "a12.a23")
    assert code == 0
    assert out.splitlines()[0] == "d^0 . c123"

    code, out, err = run(capsys, "nf", "")
    assert code == 0
    assert out.splitlines()[0] == "d^0"


def test_nf_invariant_line(capsys):
    code, out, err = run(capsys, "nf", "a13^2")
    assert code == 0
    assert (
        out.splitlines()[1]
        == "inf=0 sup=2 len=2 word_len=2 lambda=2 k1=2 k2=0 rigid=true periodic=false"
    )


def test_nf_json_schema(capsys):
    code, out, err = run(capsys, "nf", "--json", "a13^2")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "nf": "d^0 . a13 . a13",
        "inf": 0,
        "sup": 2,
        "len": 2,
        "word_len": 2,
        "lambda": 2,
        "k1": 2,
        "k2": 0,
        "rigid": True,
        "periodic": False,
    }


def test_parse_error_exit_code_and_position(capsys):
    code, out, err = run(capsys, "nf", "a12.a21")
    assert code == 2
    assert out == ""
    assert "position 4" in err and "a21" in err


def test_sc_size(capsys):
    code, out, err = run(capsys, "sc", "--size", "a13^2")
    assert (code, out.strip()) == (0, "6")
    # --size is the default mode.
    code, out, err = run(capsys, "sc", "a13^2")
    assert (code, out.strip()) == (0, "6")

    code, out, err = run(capsys, "sc", "--size", "a34.a23.a12.a13.a14.c124^3.a12^-3")
    assert (code, out.strip()) == (0, "160")


def test_sc_size_json(capsys):
    code, out, err = run(capsys, "sc", "--size", "--json", "a13^2")
    assert code == 0
    data = json.loads(out)
    assert data["sc_size"] == 6
    assert data["rigid"] is True and data["len"] == 2


def test_sc_graph_dot(capsys):
    code, out, err = run(capsys, "sc", "--graph", "dot", "a13^2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph SCG {" and lines[-1] == "}"
    assert sum("label=" in line and "->" not in line for line in lines) == 6
    assert sum("->" in line for line in lines) == 22
    assert '  n0 [label="a13^2"];' in lines


def test_sc_graph_json(capsys):
    code, out, err = run(capsys, "sc", "--graph", "json", "a13^2")
    assert code == 0
    data = json.loads(out)
    assert data["sc_size"] == 6 and data["rigid"] is True
    assert len(data["vertices"]) == 6 and len(data["edges"]) == 22
    base = parse_braid(data["base"])
    for vertex_word, conj_word in data["conjugators"].items():
        assert conjugate(base, parse_braid(conj_word)) == parse_braid(vertex_word)


def test_sc_quotient_dot(capsys):
    code, out, err = run(capsys, "sc", "--quotient", "dot", "a13^2")
    assert code == 0
    assert out == "\n".join(
        [
            "digraph SCQ {",
            '  n0 [label="a12^2 (4)"];',
            '  n1 [label="a13^2 (2)"];',
            '  n0 -> n1 [label="a12,a23,a34", dir=none];',
            "}\n",
        ]
    )


def test_sc_quotient_json_beta1(capsys):
    code, out, err = run(
        capsys, "sc", "--quotient", "json", "a34.a23.a12.a13.a14.c124^3.a12^-3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["vertex_count"] == 5
    assert data["is_path"] is True
    assert sum(orbit["size"] for orbit in data["orbits"]) == 160
    assert len(data["edges"]) == 4


def test_sc_cap_exceeded(capsys):
    code, out, err = run(capsys, "sc", "--cap", "5", "a13^2")
    assert code == 3
    assert "cap exceeded" in err


def test_sc_cap_exceeded_json(capsys):
    for mode in (["--json"], ["--graph", "json"], ["--quotient", "json"]):
        code, out, err = run(capsys, "sc", *mode, "--cap", "5", "a13^2")
        assert code == 3
        data = json.loads(out)
        assert data["outcome"] == "inconclusive"
        assert data["reason"] == "cap-exceeded"
        assert "more than 5 elements" in data["message"]


def test_cap_validation(capsys):
    for cap in ("-1", "abc"):
        code, out, err = run(capsys, "sc", "--cap", cap, "a13^2")
        assert (code, out) == (2, "")
        assert err.strip() == f"--cap must be a non-negative integer, not {cap!r}"
    for cap in ("-1", "abc"):
        code, out, err = run(capsys, "conj", "--json", "--cap", cap, "a12^2", "a13^2")
        assert code == 2
        assert json.loads(out)["reason"] == "usage"


def test_cap_boundaries_on_every_orbit_shape(capsys):
    # `sc --cap` and `conj --json --cap` on each orbit shape: a cap of |SC|
    # fits, and |SC| - 1 exits 3 (for conj, a pair whose search reads all
    # of SC).
    for word, size, other in CAP_CLASSES:
        assert run(capsys, "sc", "--cap", str(size), word)[:2] == (0, f"{size}\n")
        code, out, err = run(capsys, "sc", "--cap", str(size - 1), word)
        assert (code, out) == (3, "")
        assert "cap exceeded" in err
        for cap, code, outcome in (
            (size, 1, "not-conjugate"),
            (size - 1, 3, "inconclusive"),
        ):
            result = run(capsys, "conj", "--json", "--cap", str(cap), word, other)
            assert result[0] == code, (word, cap)
            assert json.loads(result[1])["outcome"] == outcome


def test_parse_error_json(capsys):
    code, out, err = run(capsys, "nf", "--json", "a12.a21")
    assert code == 2
    data = json.loads(out)
    assert data["outcome"] == "error" and data["reason"] == "parse-error"
    assert "position 4" in data["message"]



def test_word_over_the_letter_bound(capsys):
    code, out, err = run(capsys, "nf", "--json", "a12^1000000000")
    assert code == 2
    data = json.loads(out)
    assert data["outcome"] == "error" and data["reason"] == "parse-error"
    assert "more than 10000 letters" in data["message"]
    code, out, err = run(capsys, "sc", "a13^-1000000000")
    assert code == 2 and out == ""
    assert "more than 10000 letters" in err


def test_delta_powers_count_toward_the_letter_bound(capsys):
    # Two 4,300-digit delta exponents convert, but their sum could not be
    # printed; the letter bound rejects the word first.
    n = "9" * 4300
    code, out, err = run(capsys, "nf", "--json", f"d^{n} d^{n}")
    assert code == 2
    data = json.loads(out)
    assert data["outcome"] == "error" and data["reason"] == "parse-error"
    assert "more than 10000 letters" in data["message"]
    code, out, err = run(capsys, "nf", "--json", "d^5000 d^-5000")
    assert code == 0 and json.loads(out)["nf"] == "d^0"


def test_conj_conjugate(capsys):
    code, out, err = run(capsys, "conj", "a12", "a24")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "conjugate"
    assert lines[1].startswith("z = ")
    z = parse_braid(lines[1][4:])
    # x = z^-1 y z
    assert conjugate(parse_braid("a24"), z) == parse_braid("a12")


def test_conj_not_conjugate(capsys):
    code, out, err = run(capsys, "conj", "a12", "a13^2")
    assert code == 1
    assert out.strip() == "not conjugate (lambda-mismatch)"


def test_conj_json(capsys):
    code, out, err = run(capsys, "conj", "--json", "a12^2", "a13^2")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "conjugate"
    z = parse_braid(data["certificate"])
    assert conjugate(parse_braid("a13^2"), z) == parse_braid("a12^2")


def test_conj_assume_pa(capsys):
    beta1 = "a34.a23.a12.a13.a14.c124^3.a12^-3"
    code, out, err = run(capsys, "conj", "--assume-pa", beta1, f"a13^-1.{beta1}.a13")
    assert code == 0
    assert out.splitlines()[0] == "conjugate"


def test_conj_cap_inconclusive(capsys):
    beta1 = "a34.a23.a12.a13.a14.c124^3.a12^-3"
    code, out, err = run(capsys, "conj", "--cap", "1", beta1, f"a13^-1.{beta1}.a13")
    assert code == 3
    assert "inconclusive (cap-exceeded)" in err


def test_conj_cap_inconclusive_json(capsys):
    beta1 = "a34.a23.a12.a13.a14.c124^3.a12^-3"
    code, out, err = run(
        capsys, "conj", "--json", "--cap", "1", beta1, f"a13^-1.{beta1}.a13"
    )
    assert code == 3
    data = json.loads(out)
    assert data["outcome"] == "inconclusive"
    assert data["reason"] == "cap-exceeded"
    assert data["len"] == 8


def test_beta_command(capsys):
    code, out, err = run(capsys, "beta", "1")
    assert (code, out.strip()) == (0, "a34.a23.a12.a13.a14.c124^3.a12^-3")
    code, out, err = run(capsys, "beta", "0")
    assert (code, out.strip()) == (0, "a34.a23.a12.a13.a14.c124^0.a12^0")
    code, out, err = run(capsys, "beta", "-1")
    assert code == 2
    assert ">= 0" in err


def test_beta_index_bound(capsys):
    # beta_k has 6k + 5 letters: k = 1665 is the last index whose word parses.
    code, word, err = run(capsys, "beta", "1665")
    assert code == 0
    assert sum(abs(e) for _, e in parse_word(word.strip())) == 6 * 1665 + 5
    # A digit string too long for int() is out of range too, and text that
    # is no integer reads like argparse's own int type.
    for k in ("1666", "9" * 4300, "9" * 4301):
        code, out, err = run(capsys, "beta", k)
        assert (code, out) == (2, "")
        assert "<= 1665" in err
    code, out, err = run(capsys, "beta", "abc")
    assert (code, out) == (2, "")
    assert err.endswith("argument k: invalid int value: 'abc'\n")


def test_beta_words_feed_nf(capsys):
    for k in (0, 1, 2):
        code, word, err = run(capsys, "beta", str(k))
        code, out, err = run(capsys, "nf", "--json", word.strip())
        data = json.loads(out)
        assert data["len"] == 3 * k + 5
        assert data["inf"] == 0
        assert data["rigid"] is True


def test_help_and_bad_subcommand(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "nf" in out and "conj" in out
    # `bench` is not a subcommand: the benchmark is perfbench/.
    for command in ("frobnicate", "bench"):
        code, out, err = run(capsys, command)
        assert (code, out) == (2, ""), command
        assert "invalid choice" in err
        code, out, err = run(capsys, command, "--json")
        assert code == 2, command
        assert out.count("\n") == 1
        data = json.loads(out)
        assert data["outcome"] == "error" and data["reason"] == "usage"
        assert "invalid choice" in data["message"]


def test_argparse_errors_json(capsys):
    # Errors argparse finds itself, before any command runs, still print one
    # JSON document when JSON output was asked for.
    cases = [
        (["sc", "--json", "--bogus", "a13^2"], "unrecognized arguments: --bogus"),
        (["sc", "--quotient", "json"], "the following arguments are required: word"),
        (["sc", "--graph=json", "--quotient", "xml", "a13^2"], "invalid choice: 'xml'"),
        (["conj", "--json", "a12"], "the following arguments are required: y"),
        (["conj", "--json", "--bogus", "a12", "a24"], "unrecognized arguments: --bogus"),
        (["nf", "--json"], "the following arguments are required: word"),
        (["nf", "--js", "a12", "a13"], "unrecognized arguments: a13"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        data = json.loads(out)
        assert data["outcome"] == "error" and data["reason"] == "usage"
        assert message in data["message"]
        assert err == ""
    # Without JSON output, argparse's usage text and message go to stderr.
    code, out, err = run(capsys, "sc", "--bogus", "a13^2")
    assert (code, out) == (2, "")
    assert err.startswith("usage: bkl4")
    assert err.endswith("bkl4: error: unrecognized arguments: --bogus\n")


def test_double_dash_ends_the_options(capsys):
    # After `--` every word is an argument: `--json` there is a braid word
    # that does not parse, and does not ask for JSON output.
    code, out, err = run(capsys, "nf", "--", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("parse error") and "'--json'" in err
    # A `--json` before the `--` still asks for one JSON document.
    code, out, err = run(capsys, "nf", "--json", "--", "a12")
    assert (code, err) == (0, "")
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["nf"] == "d^0 . a12"


def test_parser_is_reused_across_calls(capsys):
    import bkl4.cli

    calls = [
        ["nf", "--json", "a13^2"],
        ["sc", "--quotient", "json", "a13^2"],
        ["conj", "a12", "a24"],
        ["sc", "--bogus", "a13^2"],
        ["nf", "a12.a23"],
    ]
    fresh = []
    for argv in calls:
        bkl4.cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert bkl4.cli._parser() is bkl4.cli._parser()


def test_internal_errors_exit_4(capsys, monkeypatch):
    # Running out of memory or failing a soundness check is never an answer:
    # `conj` must not exit 1 (not conjugate), and JSON output still gets one
    # document.
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(bkl4.cli, "compute_sc", out_of_memory)
    monkeypatch.setattr(bkl4.solver, "_find_conjugator", out_of_memory)
    beta1 = "a34.a23.a12.a13.a14.c124^3.a12^-3"
    for argv in (
        ["sc", "--json", "a13^2"],
        ["sc", "--quotient", "json", "a13^2"],
        ["conj", "--json", beta1, f"a13^-1.{beta1}.a13"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 4, argv
        assert json.loads(out) == {
            "outcome": "error",
            "reason": "internal-error",
            "message": "internal error: MemoryError()",
        }
    code, out, err = run(capsys, "conj", beta1, f"a13^-1.{beta1}.a13")
    assert (code, out) == (4, "")
    assert err.strip() == "internal error: MemoryError()"
    monkeypatch.undo()
    monkeypatch.setattr(bkl4.solver, "verify_certificate", lambda cert: False)
    code, out, err = run(capsys, "conj", "--json", "a12", "a24")
    assert code == 4
    data = json.loads(out)
    assert data["reason"] == "internal-error"
    assert "certificate failed verification" in data["message"]


def test_json_with_a_dot_mode_is_a_usage_error(capsys):
    # `--json` promises exactly one JSON document, which DOT output is not.
    for mode in (["--graph", "dot"], ["--quotient=dot"]):
        for flags in (["--json", *mode], [*mode, "--json"]):
            argv = ["sc", *flags, "a13^2"]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (2, ""), argv
            assert out.count("\n") == 1
            document = json.loads(out)
            assert (document["outcome"], document["reason"]) == ("error", "usage")
            assert "--json" in document["message"]


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


_CLOSED_MESSAGE = "internal error: stdout closed early (broken pipe)\n"


def test_closed_stdout_exits_4(capsys, monkeypatch):
    # A closed stdout is never an answer: exit 1 would read as "not
    # conjugate".  The message goes to stderr, JSON asked for or not.
    for argv in (
        ["conj", "--json", "a12", "a23"],
        ["conj", "a12", "a24"],
        ["sc", "--graph", "dot", "a13^2"],
        ["sc", "--json", "--bogus", "a13^2"],
    ):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _ClosedStdout())
            code = main(argv)
        assert code == 4, argv
        assert capsys.readouterr().err == _CLOSED_MESSAGE


def test_closed_pipe_exits_4_without_a_traceback():
    # The read end is closed before the command starts, so its first write
    # fails; nothing is left to fail again when the interpreter exits.
    src = os.path.dirname(os.path.dirname(bkl4.__file__))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bkl4.cli", "conj", "--json", "a12", "a23"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (4, _CLOSED_MESSAGE)


def test_beta_200_hits_the_cap_in_bounded_memory():
    # |SC(beta_200)| = 1,456,840 is over the default cap.  Rigid orbits are
    # counted without storing their members, so the cap fires well inside a
    # 512 MiB address space (the search once ran out of memory first).
    src = os.path.dirname(os.path.dirname(bkl4.__file__))
    limit = 512 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "bkl4.cli", "sc", "--size", "--json", beta_word(200)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit_memory,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["reason"] == "cap-exceeded"
    assert proc.stderr == ""


# Short grammar words (so a search stays small), with an exponent past the
# letter bound now and then, and some terms that do not parse.
_names = st.sampled_from(
    "a12 a23 a34 a14 a13 a24 c123 c124 c134 c234 p12-34 p14-23 d s1 s2 s3".split()
)
_small = st.integers(-3, 3)
_exponents = st.one_of(
    _small,
    _small,
    _small,
    st.integers(MAX_WORD_LETTERS + 1, 10**30).map(lambda e: e * (-1) ** (e % 2)),
)
_terms = st.one_of(
    st.builds(lambda name, e: f"{name}^{e}", _names, _exponents),
    _names,
    _names,
    _names,
    st.sampled_from(["x9", "a12^", "^2", "a21", "p12"]),
)
_argv_words = st.builds(
    lambda terms, sep: sep.join(terms),
    st.lists(_terms, min_size=1, max_size=4),
    st.sampled_from([".", " "]),
)
_flags = st.lists(
    st.sampled_from(
        [
            ("--json",),
            ("--size",),
            ("--graph", "json"),
            ("--graph", "dot"),
            ("--graph=json",),
            ("--quotient", "json"),
            ("--quotient", "dot"),
            ("--quotient", "xml"),
            ("--cap", "-1"),
            ("--cap", "abc"),
            ("--cap", "0"),
            ("--cap", "1"),
            ("--cap", "7"),
            ("--cap=100",),
            ("--bogus",),
            ("-z",),
        ]
    ),
    max_size=3,
)
_beta_args = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(10**4, 10**40).map(str),
    st.sampled_from(["", "k", "1.5", "0x10"]),
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["nf", "sc", "conj", "beta"]))
    arity = {"nf": 1, "sc": 1, "conj": 2, "beta": 1}[command]
    count = draw(st.sampled_from([arity, arity, arity, 0, arity + 1]))
    args = _beta_args if command == "beta" else _argv_words
    positionals = [(draw(args),) for _ in range(count)]
    flags = draw(_flags)
    words = draw(st.permutations(positionals + flags))
    return [command, *(token for group in words for token in group)]


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
# argparse keeps the last of repeated mode flags: these parse as DOT.
@example(argv=["sc", "c234", "--graph", "json", "--graph", "dot"])
@example(argv=["sc", "--quotient", "json", "c234", "--quotient", "dot"])
# A lone "-" is a word, not a flag that could ask for JSON.
@example(argv=["nf", "-"])
def test_any_argv_exits_with_a_documented_code(argv):
    # Whatever the argv, main returns an exit code of the README table (4,
    # the internal error, never happens on inputs this small).  With JSON
    # output asked for, stdout is exactly one JSON document; without, a
    # usage or input error (exit 2) or an exceeded cap (exit 3) prints
    # nothing on stdout.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out = out.getvalue()
    assert code in (0, 1, 2, 3), argv
    asks_json = any(
        word in ("--json", "--graph=json")
        or (word in ("--graph", "--quotient") and argv[i + 1 : i + 2] == ["json"])
        for i, word in enumerate(argv)
    )
    if asks_json:
        assert out.endswith("\n") and out.count("\n") == 1, argv
        json.loads(out)
    elif code in (2, 3):
        assert out == "", argv
