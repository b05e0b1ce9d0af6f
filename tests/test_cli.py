"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from orbitcalc import clans, cli, formulas, geometry, orbits
from orbitcalc.clans import DESK_RANKS, CheckError, case_from_params
from orbitcalc.clans import RankTable
from orbitcalc.formulas import FormulaError, LocalizationReport
from orbitcalc.geometry import GeometryError
from orbitcalc.orbits import OrbitError, weak_order_graph
from reference import build_parser

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"
SRC = Path(__file__).parent.parent / "src"


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a spawned child: this process's, with the
    checkout's ``src`` at the front of ``PYTHONPATH``, and ``extra``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


# a rank whose clans would have more positions than a sequence can index
HUGE_RANK = "99999999999999999999"
# ranks small enough to index a clan but too large to enumerate, with the
# error line: each fails at once, in its first allocation, so the test
# allocates nothing
TOO_LARGE_TO_ENUMERATE = [
    (["enumerate", "--case", "d-so-gl", "--n", "1000000000000000000"],
     "rank 1000000000000000000 is too large for case d-so-gl"),
    (["enumerate", "--case", "a", "--p", "4611686018427387904", "--q", "1"],
     "rank 4611686018427387905 is too large for shape (4611686018427387904, 1)"),
    # too many positions for the walk's one call per position to nest
    (["enumerate", "--case", "a", "--p", "500", "--q", "500"],
     "rank 1000 is too large for shape (500, 500)"),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChern:
    def test_worked_example_is_exact(self, capsys):
        code, out, _ = run(
            capsys, "chern", "--case", "a", "--p", "2", "--q", "2",
            "--clan", "++--",
        )
        assert code == 0
        assert out == "(x1^2 - x1*z3 + z4)(x2^2 - x2*z3 + z4)\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "chern", "--case", "a", "--p", "2", "--q", "2",
            "--clan", "++--", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["clan"] == "++--"
        assert data["chern"] == "(x1^2 - x1*z3 + z4)(x2^2 - x2*z3 + z4)"

    def test_missing_clan_is_usage_error(self, capsys):
        code, _, err = run(capsys, "chern", "--case", "a", "--p", "2", "--q", "2")
        assert code == 2
        assert "clan" in err

    def test_clan_given_as_two_minus_signs(self, capsys):
        # after '=' the text -- is the value, the all-minus clan
        code, out, err = run(capsys, "chern", "--case", "a", "--p", "0", "--q", "2",
                             "--clan=--")
        assert (code, out, err) == (0, "1\n", "")
        code, out, err = run(capsys, "chern", "--case", "a", "--p", "2", "--q", "2",
                             "--clan=--")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_clan_outside_family_is_usage_error(self, capsys):
        code, out, err = run(capsys, "chern", "--case", "b-so", "--p", "2",
                             "--q", "1", "--clan=++-+-+-")
        assert code == 2 and out == ""
        assert "++-+-+-" in err and "b-so" in err


class TestPoset:
    def test_dot_has_all_nodes_and_blue_edge(self, capsys):
        code, out, _ = run(
            capsys, "poset", "--case", "a", "--p", "2", "--q", "2",
            "--format", "dot",
        )
        assert code == 0
        assert out.count('"1221"') >= 1
        # 21 nodes, each named once inside a rank=same block
        names = [tok for line in out.splitlines() if "rank=same" in line
                 for tok in line.split('"')[1::2]]
        assert len(names) == 21
        assert '"1212" -> "1221" [label="1"];' in out

    def test_dot_marks_double_edges_blue(self, capsys):
        code, out, _ = run(capsys, "poset", "--case", "c-sp-gl", "--n", "2",
                           "--format", "dot")
        assert code == 0
        assert '"1212" -> "1221" [label="1", color=blue];' in out

    def test_json_is_default(self, capsys):
        code, out, _ = run(capsys, "poset", "--case", "c-sp-gl", "--n", "2",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["nodes"]) == 11
        assert "full_order" not in data

    def test_full_flag_adds_saturated_order(self, capsys):
        code, out, _ = run(capsys, "poset", "--case", "c-sp-gl", "--n", "2",
                           "--format", "json", "--full")
        assert code == 0
        data = json.loads(out)
        assert "1212" in data["full_order"]["1221"]

    def test_readme_json_example_has_the_real_keys(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("`poset --format json`:", 1)[1].split("```json", 1)[1]
        example = example.split("```", 1)[0]
        documented = set(re.findall(r'^  "(\w+)":', example, flags=re.MULTILINE))
        code, out, _ = run(capsys, "poset", "--case", "a", "--p", "2", "--q", "2",
                           "--format", "json", "--full")
        assert code == 0
        assert documented == set(json.loads(out))


class TestClasses:
    def test_equal_rank_shorthand(self, capsys):
        code, out, _ = run(capsys, "classes", "--case", "c-sp-gl", "--n", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[-1].split() == ["1221", "1"]

    def test_verify_flag_passes(self, capsys):
        code, _, err = run(capsys, "classes", "--case", "c-spxsp",
                           "--p", "2", "--q", "1", "--verify")
        assert code == 0
        assert err == ""

    def test_factored_closed_rows(self, capsys):
        code, out, _ = run(capsys, "classes", "--case", "a", "--p", "2",
                           "--q", "2", "--factored")
        assert code == 0
        row = next(l for l in out.splitlines() if l.startswith("++--"))
        assert "(x1 - y3)" in row

    def test_json_row_count(self, capsys):
        code, out, _ = run(capsys, "classes", "--case", "b-so",
                           "--p", "2", "--q", "1", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["classes"]) == 25


class TestEnumerate:
    def test_text_lists_every_orbit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--case", "c-spxsp",
                           "--p", "2", "--q", "1")
        assert code == 0
        assert len(out.splitlines()) == 9
        assert "12++12" in out

    def test_json_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--case", "a",
                           "--p", "2", "--q", "2", "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["count"] == 21 == len(data["clans"])

    def test_guardrail_warns_on_stderr(self, capsys):
        code, out, err = run(capsys, "enumerate", "--case", "a",
                             "--p", "3", "--q", "3", "--max-nodes", "100")
        assert code == 0
        assert len(out.splitlines()) == 215
        assert "215" in err and "cap" in err


class TestVerify:
    def test_single_case(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "d-oxo-even",
                           "--p", "2", "--q", "1")
        assert code == 0
        assert out.startswith("OK")

    def test_all_desk_cases(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("OK") for line in lines)
        assert any("support skipped" in line for line in lines)

    def test_failure_exits_nonzero(self, capsys, monkeypatch):
        bad = LocalizationReport(
            case=None, closed_points_checked=0, support_pairs_checked=0,
            support_checked=True, dense_ok=False, failures=("synthetic",),
        )
        monkeypatch.setattr(formulas, "verify_localization",
                            lambda poset, classes: bad)
        code, out, _ = run(capsys, "verify", "--case", "a",
                           "--p", "1", "--q", "1")
        assert code == 1
        assert "FAIL" in out and "synthetic" in out

    def test_each_case_is_written_once_checked(self, capsys, tmp_path, monkeypatch):
        # a check that fails at the second desk case leaves the first case's
        # line written, on stdout and in the --output file alike
        checked, all_classes = [], formulas.all_classes

        def fail_second(poset):
            checked.append(poset.case)
            if len(checked) == 2:
                raise FormulaError("propagation is path dependent")
            return all_classes(poset)

        monkeypatch.setattr(formulas, "all_classes", fail_second)
        tag, p, q = DESK_RANKS[0]
        first = f"OK  {tag} ({p},{q}): "
        code, out, err = run(capsys, "verify")
        assert code == 1 and "path dependent" in err
        assert out.startswith(first) and out.count("\n") == 1
        path = tmp_path / "verify.txt"
        checked.clear()
        code, out, _ = run(capsys, "verify", "--output", str(path))
        assert code == 1 and out == ""
        assert path.read_text(encoding="utf-8").startswith(first)


class TestOracle:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "oracle", "--max-n", "3",
                           "--measure-max-n", "3")
        assert code == 0
        assert out == ("OK  measured 21 representative flags (p+q <= 3), "
                       "moved 21 by a block-diagonal k (p+q <= 3)\n")

    def test_measurement_that_is_not_k_invariant_fails(self, capsys, monkeypatch):
        # exact on integer-entry flags (every representative flag), one sign
        # rank off on a flag moved by a rational k
        measure = geometry.measure_rank_numbers

        def not_invariant(f, p, q):
            t = measure(f, p, q)
            if all(x.denominator == 1 for v in f.vectors for x in v):
                return t
            return RankTable((t.plus[0] + 1,) + t.plus[1:], t.minus, t.cross)

        monkeypatch.setattr(geometry, "measure_rank_numbers", not_invariant)
        code, out, _ = run(capsys, "oracle", "--max-n", "3",
                           "--measure-max-n", "3")
        assert code == 1
        assert out.startswith("FAIL")
        assert re.search(r"K-invariance mismatch at \S+ \(\d,\d\)", out)

    def test_geometry_error_is_verification_failure(self, capsys, monkeypatch):
        flag = geometry.representative_flag

        def fail(c):
            if c.to_text() == "11":
                raise GeometryError("flag vectors are not linearly independent")
            return flag(c)
        monkeypatch.setattr(geometry, "representative_flag", fail)
        code, out, err = run(capsys, "oracle", "--max-n", "2",
                             "--measure-max-n", "2")
        assert code == 1 and out == ""
        assert err.startswith("verification failed:")
        assert err.rstrip().endswith("linearly independent at 11 (1,1)")
        assert "Traceback" not in err

    def test_reruns_are_byte_identical_across_hash_seeds(self):
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "orbitcalc", "oracle", "--max-n", "3",
                 "--measure-max-n", "3"],
                capture_output=True, timeout=120, env=child_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestConjecture:
    def test_coincidence_report(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--case", "c-spxsp",
                           "--p", "2", "--q", "1")
        assert code == 0
        assert "coincides" in out

    def test_witness_report_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--case", "d-oxo-even",
                           "--p", "2", "--q", "1")
        assert code == 0
        assert "strictly finer" in out
        assert "+1122+ < +1212+" in out

    def test_json_witnesses(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--case", "d-oxo-odd",
                           "--p", "1", "--q", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["coincides"] is False
        assert ["121323", "123123"] in data["witnesses"]


class TestUsageErrors:
    def test_missing_ranks(self, capsys):
        code, _, err = run(capsys, "poset", "--case", "a")
        assert code == 2 and "--p" in err

    def test_n_and_p_conflict(self, capsys):
        code, _, err = run(capsys, "classes", "--case", "c-sp-gl",
                           "--n", "2", "--p", "2")
        assert code == 2 and "not both" in err

    def test_n_for_a_p_q_family(self, capsys):
        code, out, err = run(capsys, "enumerate", "--case", "b-so", "--n", "2")
        assert code == 2 and out == ""
        assert "--p/--q" in err

    def test_unknown_case_is_argparse_error(self, capsys):
        code, _, _ = run(capsys, "poset", "--case", "z", "--p", "1", "--q", "1")
        assert code == 2

    def test_bad_clan_text(self, capsys):
        code, _, err = run(capsys, "chern", "--case", "a", "--p", "2",
                           "--q", "2", "--clan", "+*--")
        assert code == 2 and "error" in err

    def test_rank_one_even_orthogonal_gl_is_usage_error(self, capsys):
        code, out, err = run(capsys, "classes", "--case", "d-so-gl", "--n", "1")
        assert code == 2 and out == ""
        assert "n >= 2" in err

    def test_clan_shape_mismatch(self, capsys):
        code, _, err = run(capsys, "chern", "--case", "a", "--p", "2",
                           "--q", "2", "--clan", "+-")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv,reason", [
        (["chern", "--case", "a", "--p", "2", "--q", "2", "--clan=1+x1"],
         "unrecognized clan token at 'x1'"),
        (["chern", "--case", "a", "--p", "2", "--q", "2", "--clan=1+-"],
         "clan has 3 symbols but shape (2, 2) needs 4"),
        (["chern", "--case", "a", "--p", "2", "--q", "2", "--clan="],
         "clan has 0 symbols but shape (2, 2) needs 4"),
        (["chern", "--case", "a", "--p", "3", "--q", "2", "--clan=1+-+-"],
         "pair label 1 occurs 1 times"),
        (["chern", "--case", "a", "--p", "3", "--q", "2", "--clan=1+++1"],
         "sign counts (+3, -0) incompatible with shape (3, 2)"),
        (["chern", "--case", "c-spxsp", "--p", "2", "--q", "1", "--clan=+1221+"],
         "+1221+ is not a clan of case c-spxsp"),
        (["classes", "--case", "a", "--p", "-1", "--q", "2"],
         "case a needs p, q >= 0"),
        (["verify", "--case", "d-oxo-odd", "--p", "0", "--q", "3"],
         "case d-oxo-odd needs p, q >= 1"),
        (["conjecture", "--case", "b-so", "--p", HUGE_RANK, "--q", "1"],
         f"rank {HUGE_RANK} is too large for case b-so"),
        (["enumerate", "--case", "d-so-gl", "--n", HUGE_RANK],
         f"rank {HUGE_RANK} is too large for case d-so-gl"),
    ])
    def test_malformed_clan_or_shape_is_usage_error(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["classes", "--case", "a", "--p", "1", "--q", "1", "--format", "dot"],
        ["conjecture", "--case", "a", "--p", "1", "--q", "1", "--format", "dot"],
        ["chern", "--case", "a", "--p", "1", "--q", "1", "--clan", "+-",
         "--format", "dot"],
        ["verify", "--format", "json"],
        ["oracle", "--case", "a", "--p", "1", "--q", "1"],
        ["poset", "--case", "a", "--p", "1", "--q", "1", "--factored"],
        ["enumerate", "--case", "a", "--p", "1", "--q", "1", "--verify"],
        ["verify", "--threads", "2"],
    ])
    def test_option_of_another_subcommand_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err or "invalid choice" in err


# one row per subcommand: a call that succeeds, the layer function whose
# failed check makes that call fail, and a malformed call
EXIT_CODE_TABLE = [
    (["enumerate", "--case", "a", "--p", "1", "--q", "1"],
     (clans, "enumerate_case_clans", CheckError),
     ["enumerate", "--case", "a", "--p", "1"]),
    (["poset", "--case", "a", "--p", "1", "--q", "1", "--full"],
     (orbits, "full_closure_order", OrbitError),
     ["poset", "--case", "a", "--p", "one", "--q", "1"]),
    (["classes", "--case", "a", "--p", "1", "--q", "1"],
     (formulas, "all_classes", FormulaError),
     ["classes", "--case", "a", "--n", "2"]),
    (["verify", "--case", "a", "--p", "1", "--q", "1"],
     (formulas, "all_classes", FormulaError),
     ["verify", "--case", "d-oxo-odd", "--p", "0", "--q", "3"]),
    (["oracle", "--max-n", "1", "--measure-max-n", "1"],
     (geometry, "measure_rank_numbers", GeometryError),
     ["oracle", "--max-n", "x"]),
    (["conjecture", "--case", "a", "--p", "1", "--q", "1"],
     (orbits, "check_conjecture", OrbitError),
     ["conjecture", "--case", "e", "--p", "1", "--q", "1"]),
    (["chern", "--case", "a", "--p", "2", "--q", "2", "--clan", "1+-1"],
     (formulas, "all_classes", FormulaError),
     ["chern", "--case", "a", "--p", "2", "--q", "2", "--clan=1+x1"]),
]


@pytest.mark.parametrize("ok,check,malformed", EXIT_CODE_TABLE,
                         ids=[row[0][0] for row in EXIT_CODE_TABLE])
def test_exit_code_table(capsys, monkeypatch, ok, check, malformed):
    """0 on success, 1 on a failed check, 2 on malformed input, for every
    subcommand; a failure writes nothing to stdout, and never a traceback."""
    code, out, err = run(capsys, *ok)
    assert code == 0 and out and "Traceback" not in err
    code, out, err = run(capsys, *malformed)
    assert code == 2 and out == "" and err and "Traceback" not in err
    if ok[0] not in ("oracle", "chern"):
        # a negative cap is malformed, not a cap that every family exceeds
        code, out, err = run(capsys, *ok, "--max-nodes", "-1")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "argument --max-nodes: expected a count of orbits" in err
    if ok[0] == "oracle":
        # a negative bound is malformed, not an empty range of ranks
        for bounds in (["--max-n", "-1", "--measure-max-n", "-3"], ["--measure-max-n", "-3"]):
            code, out, err = run(capsys, "oracle", *bounds)
            assert code == 2 and out == "" and "Traceback" not in err
            assert f"argument {bounds[0]}: expected a bound on p+q, 0 or more" in err
    if ok[0] != "oracle":
        # a rank too large to index a clan is malformed, not a crash
        huge = [HUGE_RANK if flag == "--p" else arg for flag, arg in zip(["", *ok], ok)]
        code, out, err = run(capsys, *huge)
        assert code == 2 and out == ""
        assert err == f"error: rank {HUGE_RANK} is too large for case a\n"
    if ok[0] == "enumerate":
        for argv, line in TOO_LARGE_TO_ENUMERATE:
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {line}\n")
    module, name, error = check

    def fail(*args):
        raise error("synthetic failed check")

    monkeypatch.setattr(module, name, fail)
    code, out, err = run(capsys, *ok)
    assert code == 1 and out == ""
    assert "synthetic failed check" in err and "Traceback" not in err


class TestExitCodes:
    def test_failed_propagation_check_is_verification_failure(self, capsys, monkeypatch):
        def fail(poset):
            raise FormulaError("propagation is path dependent")
        monkeypatch.setattr(formulas, "all_classes", fail)
        code, out, err = run(capsys, "classes", "--case", "a", "--p", "1", "--q", "1")
        assert code == 1 and out == ""
        assert "path dependent" in err

    def test_failed_containment_check_is_verification_failure(self, capsys, monkeypatch):
        def fail(poset):
            raise OrbitError("saturated order is not antisymmetric")
        monkeypatch.setattr(orbits, "check_conjecture", fail)
        code, out, err = run(capsys, "conjecture", "--case", "a", "--p", "1", "--q", "1")
        assert code == 1 and out == ""
        assert "antisymmetric" in err

    def test_other_errors_are_not_usage_errors(self, monkeypatch):
        def fail(case):
            raise ValueError("a bug")
        monkeypatch.setattr(clans, "enumerate_case_clans", fail)
        with pytest.raises(ValueError, match="a bug"):
            cli.main(["enumerate", "--case", "a", "--p", "1", "--q", "1"])


class TestOutputFile:
    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "classes", "--case", "d-so-gl",
                             "--n", "3", "--format", "json",
                             "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().decode("utf-8").endswith("\n")

    def test_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        for argv in (["poset", "--case", "a", "--p", "1", "--q", "1", "--format", "dot"],
                     # classes text is streamed one line per orbit
                     ["classes", "--case", "a", "--p", "2", "--q", "2"],
                     ["classes", "--case", "d-so-gl", "--n", "3"]):
            code, out, _ = run(capsys, *argv, "--output", str(path))
            assert code == 0 and out == ""
            _, out, _ = run(capsys, *argv)
            assert out.count("\n") > 1
            assert path.read_bytes() == out.encode("utf-8")

    def test_missing_directory_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.txt"
        for argv in (["enumerate", "--case", "a", "--p", "1", "--q", "1"],
                     ["classes", "--case", "a", "--p", "2", "--q", "2"]):
            code, out, err = run(capsys, *argv, "--output", str(path))
            assert code == 2 and out == ""
            assert err.startswith("i/o error:") and "Traceback" not in err
            assert not path.parent.exists()

    def test_failed_verify_writes_nothing(self, capsys, tmp_path, monkeypatch):
        bad = LocalizationReport(
            case=None, closed_points_checked=0, support_pairs_checked=0,
            support_checked=True, dense_ok=False, failures=("synthetic",),
        )
        monkeypatch.setattr(formulas, "verify_localization", lambda poset, classes: bad)
        argv = ["classes", "--case", "a", "--p", "2", "--q", "2", "--verify"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "verify: synthetic" in err
        path = tmp_path / "classes.txt"
        code, out, _ = run(capsys, *argv, "--output", str(path))
        assert code == 1 and out == "" and not path.exists()


@pytest.mark.parametrize("argv", [["--help"], ["poset", "--help"], *(
    [command, "--help"] for command in cli.COMMANDS if command != "poset")])
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and "orbitcalc" in out
    if argv == ["--help"]:
        assert all(command in out for command in cli.COMMANDS) and len(cli.COMMANDS) == 7
    else:
        # one line per option of the command's row, led by its flag
        named = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        assert named == [flag for flag, *_ in cli.COMMANDS[argv[0]][1]]


# ---------------------------------------------------------------------------
# start-up footprint: every call is a fresh process, so a subcommand loads
# only the layers it runs, and no subcommand loads dataclasses
# ---------------------------------------------------------------------------

LOADED_MODULES = (
    "import sys\n"
    "from orbitcalc import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stderr.write('\\nloaded: ' + ' '.join(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
LAYERS = {"orbits", "weyl", "formulas", "poly", "parse", "geometry"}
HANDLERS = {module for module, _ in cli.COMMANDS.values()}
A11 = ["--case", "a", "--p", "1", "--q", "1"]


@pytest.mark.parametrize("argv,layers", [
    (["enumerate", *A11, "--format", "json"], set()),
    (["conjecture", *A11, "--format", "json"], {"orbits"}),
    (["poset", *A11, "--full", "--format", "json"], {"orbits"}),
    (["classes", *A11, "--format", "json"], {"orbits", "formulas", "poly"}),
    (["classes", *A11, "--verify"], {"orbits", "weyl", "formulas", "poly"}),
    (["verify", *A11], {"orbits", "weyl", "formulas", "poly"}),
    (["chern", *A11, "--clan", "+-"], {"orbits", "formulas", "poly"}),
    (["oracle", "--max-n", "2", "--measure-max-n", "2"], {"geometry"}),
])
def test_subcommand_loads_only_the_layers_it_runs(argv, layers):
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.rpartition("loaded: ")[2].split())
    assert {"orbitcalc.clans", "orbitcalc.cli"} <= modules
    assert {m for m in LAYERS if f"orbitcalc.{m}" in modules} == layers
    # each call loads its own subcommand's module and no other one, so only
    # chern compiles the clan-text parser
    assert {m for m in HANDLERS if f"orbitcalc.{m}" in modules} == {f"cmd_{argv[0]}"}
    assert "dataclasses" not in modules
    assert not {"argparse", "gettext", "locale"} & modules


# ---------------------------------------------------------------------------
# the option table's parser against the argparse parser it replaced: where
# argparse read a call, the options are equal; where it exited, the parser
# exits with the same code and the same error line
# ---------------------------------------------------------------------------

CHERN22 = ["chern", "--case", "a", "--p", "2", "--q", "2"]
MALFORMED_CALLS = [
    ["verify", "--threads", "2"],  # an unknown option
    ["enumerate", *A11, "--full"],  # an option of another subcommand
    [*CHERN22, "--clan"],  # a missing value at the end
    ["enumerate", "--case", "a", "--p", "--q", "1"],
    ["chern", "--case=a", "--p=2", "--q", "2", "--clan=++--"],  # both forms
    [*CHERN22, "--clan", "++--", "--format=json"],
    ["classes", "--case", "a", "--p", "-1", "--q", "2"],  # negative numbers are values
    ["classes", "--case", "a", "--p", "-0.5", "--q", "2"],
    ["enumerate", *A11, "--max-nodes", "-1"],
    ["enumerate", *A11, "--max-nodes=-1"],
    ["oracle", "--max-n", "-1", "--measure-max-n", "-3"],
    [*CHERN22, "--clan", "-+"],  # a word led by '-' that is no number is an option
    [*CHERN22, "--clan", "-1+-"],
    [*CHERN22, "--clan", "- +-+"],  # unless it holds a space
    ["enumerate", *A11, "--form", "json"],  # a unique prefix
    ["poset", *A11, "--fu", "--form=dot", "--out=x.dot"],
    ["oracle", "--m", "2"],  # an ambiguous prefix
    ["oracle", "--help", "--m", "2"],
    ["enumerate", *A11, "--case", "b-so", "--p", "2"],  # the last one wins
    ["enumerate", *A11, "--", "--p", "1"],
    ["enumerate", *A11, "--full=yes"],
    ["poset", *A11, "--full=yes"],
    ["-h"],
    ["enumerate", "-h"],
    ["enumerate", "--help", "--p", "x"],
    ["enumerate", "--p", "x", "--help"],
    ["enumerate", "-hx"],
    [],  # no command at all
    ["--case", "a"],
    ["--threads", "enumerate", *A11],
    ["frobnicate", *A11],
]


def argparse_reading(argv: list[str]) -> tuple[dict | None, int | None, str]:
    """The options ``reference.build_parser`` reads from ``argv``, or the
    code it exits with and its stderr."""
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            return vars(build_parser().parse_args(argv)), None, ""
    except SystemExit as exc:
        return None, exc.code, err.getvalue()


def assert_read_as_argparse_did(capsys, argv: list[str]) -> None:
    options, code, reference_err = argparse_reading(argv)
    if options is not None:
        assert vars(cli.parse_args(argv)) == options
        return
    new_code, out, err = run(capsys, *argv)
    assert new_code == code
    if code == 0:
        assert out.startswith("usage: orbitcalc") and err == ""
    else:
        assert code == 2 and out == "" and err.startswith("usage: orbitcalc")
        assert err.splitlines()[-1] == reference_err.splitlines()[-1]


@pytest.mark.parametrize("argv", MALFORMED_CALLS)
def test_parser_reads_malformed_calls_as_argparse_did(capsys, argv):
    assert_read_as_argparse_did(capsys, argv)


def test_parser_reads_every_golden_call_as_argparse_did(capsys):
    for argv in golden_calls():
        assert_read_as_argparse_did(capsys, argv)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() reads any number of digits")
@pytest.mark.parametrize("flag,what", [("--max-nodes", "a count of orbits"),
                                       ("--max-n", "a bound on p+q")])
def test_count_too_long_for_int_is_usage_error(capsys, flag, what):
    # int() refuses more than 4300 digits; argparse reported that as an
    # invalid value of the type function, by its name, so this call is
    # outside the differential list
    argv = ["oracle"] if flag == "--max-n" else ["enumerate", *A11]
    code, out, err = run(capsys, *argv, flag, "1" * 4301)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"orbitcalc {argv[0]}: error: argument {flag}: {what} of 4301 digits is too long to read")


@pytest.mark.parametrize("argv,line", [
    (["enumerate", "--case=--", "--p", "1", "--q", "1"],
     "argument --case: invalid choice: '--' (choose from"),
    (["enumerate", "--case", "a", "--p=--", "--q", "1"], "argument --p: invalid int value: '--'"),
    (["enumerate", *A11, "--max-nodes=--"],
     "argument --max-nodes: expected a count of orbits, 0 or more, not '--'"),
    (["oracle", "--max-n=--"], "argument --max-n: expected a bound on p+q, 0 or more, not '--'"),
])
def test_double_minus_after_equals_is_the_value(capsys, argv, line):
    # argparse handed it over as an empty list, which each handler met as a value
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and line in err and "Traceback" not in err


# a child's ru_maxrss starts at the high-water mark of the process that
# spawned it, so the calls are spawned from this small parent, not pytest
PEAK_RSS = (
    "import os, subprocess, sys\n"
    "for argv in sys.argv[1:]:\n"
    "    proc = subprocess.Popen([sys.executable, '-m', 'orbitcalc', *argv.split()],\n"
    "                            stdout=subprocess.DEVNULL)\n"
    "    _, status, usage = os.wait4(proc.pid, 0)\n"
    "    print(status, usage.ru_maxrss)\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_streamed_classes_peak_memory_stays_near_start_up():
    # classes a(3,3) holds about 1.3 MB of text; written line by line, each
    # from its class's z-form, it peaks about 4 MiB above a trivial call
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, "classes --case a --p 3 --q 3",
         "enumerate --case a --p 1 --q 1"],
        capture_output=True, text=True, timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    (status, classes_kib), (status2, trivial_kib) = (
        map(int, line.split()) for line in proc.stdout.splitlines())
    assert status == status2 == 0
    assert classes_kib - trivial_kib < 10 * 1024


D3 = ["--case", "d-so-gl", "--n", "3"]


@pytest.mark.parametrize("argv", [
    ["enumerate", *D3],
    ["poset", *D3, "--full"],
    ["conjecture", *D3],
    ["classes", *D3, "--factored", "--verify", "--format", "json"],
    ["classes", "--case", "b-so", "--p", "2", "--q", "1"],
    ["verify", *D3],
    ["chern", *D3, "--clan=+++---"],
    ["chern", *D3, "--clan=+1212-"],
])
def test_subcommand_does_not_load_fractions(argv):
    # d-so-gl classes have denominators 2^(n-1) and b-so has degree-2 edges:
    # both run on int numerators over one denominator
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.rpartition("loaded: ")[2].split())
    assert "orbitcalc.cli" in modules
    assert not {"fractions", "decimal", "numbers"} & modules


@pytest.mark.parametrize("argv", [
    ["conjecture", "--case", "d-so-gl", "--n", "4", "--format", "json"],
    ["poset", "--case", "b-so", "--p", "2", "--q", "1", "--full", "--format", "json"],
    ["classes", "--case", "a", "--p", "2", "--q", "2"],
])
def test_output_does_not_depend_on_the_hash_seed(argv):
    # clans hash their symbols, and string hashes change with the seed: every
    # output must come from sorted data, never from set or dict-of-set order
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "orbitcalc", *argv], capture_output=True,
            timeout=120, env=child_env(PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0]


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcalc", "chern", "--case", "a",
         "--p", "2", "--q", "2", "--clan", "++--"],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(x1^2 - x1*z3 + z4)(x2^2 - x2*z3 + z4)"


A11 = ["enumerate", "--case", "a", "--p", "1", "--q", "1"]


def test_in_process_main_does_not_freeze_the_collector(capsys):
    frozen = gc.get_freeze_count()
    code, out, _ = run(capsys, *A11)
    assert code == 0 and out == "+-\n-+\n11\n"
    assert gc.get_freeze_count() == frozen


def test_profiler_prints_after_the_call_ends():
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "orbitcalc", *A11],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("+-\n-+\n11\n")
    assert "function calls" in proc.stdout


def test_atexit_handlers_run():
    script = ("import atexit, runpy, sys\n"
              "atexit.register(print, 'atexit ran')\n"
              "sys.argv = ['orbitcalc', *sys.argv[1:]]\n"
              "runpy.run_module('orbitcalc', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", script, *A11],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "+-\n-+\n11\natexit ran\n"


def assert_io_error(proc: subprocess.CompletedProcess, reason: str) -> None:
    assert proc.returncode == 2
    assert proc.stderr == f"i/o error: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [A11, ["poset", "--help"],
                                  # larger than stdout's buffer: fails mid-write
                                  ["classes", "--case", "a", "--p", "3", "--q", "3"]])
def test_full_stdout_is_io_error(argv):
    # buffered, stdout fails only at the last flush of a small output
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "orbitcalc", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    assert_io_error(proc, "[Errno 28] No space left on device")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child before exec")
@pytest.mark.parametrize("argv", [A11, ["--help"]])
def test_closed_stdout_is_io_error(argv):
    proc = subprocess.run([sys.executable, "-m", "orbitcalc", *argv],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                          text=True, timeout=120, env=child_env())
    assert_io_error(proc, "[Errno 9] stdout is closed")


def run_without_stderr(*argv: str) -> subprocess.CompletedProcess:
    """Spawn a call whose fd 2 is closed before exec."""
    return subprocess.run([sys.executable, "-m", "orbitcalc", *argv],
                          preexec_fn=lambda: os.close(2), stdout=subprocess.PIPE,
                          text=True, timeout=120, env=child_env())


@pytest.mark.skipif(os.name != "posix", reason="closes fd 2 in the child before exec")
def test_usage_error_with_closed_stderr_exits_2():
    # the usage text cannot be written, so it is dropped, with no traceback
    proc = run_without_stderr("enumerate", "--case", "zz")
    assert (proc.returncode, proc.stdout) == (2, "")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 2 in the child before exec")
def test_warning_with_closed_stderr_keeps_the_output():
    proc = run_without_stderr(*A11, "--max-nodes", "1")
    assert (proc.returncode, proc.stdout) == (0, "+-\n-+\n11\n")


# ---------------------------------------------------------------------------
# golden run: exit code and output digests of every subcommand on every desk
# rank; re-record with `PYTHONPATH=src python tests/test_cli.py`
# ---------------------------------------------------------------------------


def golden_calls() -> list[list[str]]:
    calls = []
    for tag, p, q in DESK_RANKS:
        if tag in ("c-sp-gl", "d-so-gl"):
            case_args = ["--case", tag, "--n", str(p)]
        else:
            case_args = ["--case", tag, "--p", str(p), "--q", str(q)]
        poset = weak_order_graph(case_from_params(tag, p, q))
        mid = next(c for c in poset.nodes if poset.ranks[c] == poset.max_rank // 2)
        for fmt in ("text", "json"):
            calls.append(["enumerate", *case_args, "--format", fmt])
        for fmt in ("json", "dot"):
            calls.append(["poset", *case_args, "--format", fmt])
            calls.append(["poset", *case_args, "--format", fmt, "--full"])
        for fmt in ("text", "json"):
            calls.append(["classes", *case_args, "--format", fmt])
            calls.append(["classes", *case_args, "--format", fmt,
                          "--factored", "--verify"])
            calls.append(["conjecture", *case_args, "--format", fmt])
        calls.append(["verify", *case_args])
        calls.append(["chern", *case_args, f"--clan={mid.to_text()}"])
    calls.append(["verify"])
    calls.append(["oracle"])
    calls.append(["chern", "--case", "b-so", "--p", "2", "--q", "1", "--clan=++-+-+-"])
    # the paths through a denominator: the 1/2^(n-1) of the d-so-gl closed
    # classes and the 1/2 on the degree-2 edges of b-so(2,2)
    d4 = ["--case", "d-so-gl", "--n", "4"]
    poset = weak_order_graph(case_from_params("d-so-gl", 4, 4))
    mid = next(c for c in poset.nodes if poset.ranks[c] == poset.max_rank // 2)
    calls += [
        ["classes", *d4],
        ["classes", *d4, "--format", "json", "--factored", "--verify"],
        ["verify", *d4],
        ["chern", *d4, f"--clan={poset.minima()[0].to_text()}"],
        ["chern", *d4, f"--clan={mid.to_text()}"],
        ["classes", "--case", "b-so", "--p", "2", "--q", "2", "--format", "json"],
    ]
    return calls


def golden_result(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def test_golden_run_is_byte_identical():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == golden_calls()
    for r in recorded:
        assert golden_result(r["argv"]) == r


if __name__ == "__main__":
    results = [golden_result(argv) for argv in golden_calls()]
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in results)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
