"""Tests for the command-line surface: dispatch, formats, exit codes."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tdpair.cli import (
    MAX_DIMENSION,
    MAX_IRREDUCIBILITY_DIMENSION,
    MAX_PARAMETER_BITS,
    _emit_tables,
    main,
)
from tdpair.exactfield import LaurentSeries
from tdpair.multiindex import Shape, enumerate_box
from tdpair import cli, verify
from tdpair.tdcore import factored_values, unit_factored
from tdpair.tdcore import ExactMatrix
from tdpair.verify import random_valid_parameters
from overlap_oracle import oracle_hahn, oracle_krawtchouk

GOLDEN = Path(__file__).parent / "golden"

VALID_N1 = {
    "ell": [1],
    "theta0": "0",
    "theta0_star": "0",
    "h": "1",
    "h_star": "1",
    "omega": "0",
    "omega_star": "0",
    "a": ["1"],
}


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(VALID_N1))
    return str(path)


@pytest.fixture
def bad_params_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(VALID_N1, h="0")))
    return str(path)


def _normalize_millis(text: str) -> str:
    return re.sub(r'"millis": \d+', '"millis": 0', text)


class TestGoldenOutputs:
    def test_verify_json_stable(self, params_file, capsys):
        rc = main(["verify", "--params", params_file, "--checks", "all", "--format", "json"])
        assert rc == 0
        got = _normalize_millis(capsys.readouterr().out)
        assert got == (GOLDEN / "verify_univariate.json").read_text()

    def test_build_json_stable(self, params_file, capsys):
        rc = main(["build", "--params", params_file, "--operator", "A", "--format", "json"])
        assert rc == 0
        assert capsys.readouterr().out == (GOLDEN / "build_a_univariate.json").read_text()

    def test_overlap_all_json_stable(self, capsys):
        rc = main(["overlap", "--shape", "1", "--seed", "1", "--method", "all", "--format", "json"])
        assert rc == 0
        assert capsys.readouterr().out == (GOLDEN / "overlap_t_all_seed1.json").read_text()

    def test_overlap_u_all_json_stable(self, capsys):
        # every U route on a two-coordinate box, values as exact rationals
        rc = main(
            ["overlap", "--which", "U", "--method", "all", "--shape", "2,1", "--seed", "1",
             "--format", "json"]
        )
        assert rc == 0
        assert capsys.readouterr().out == (GOLDEN / "overlap_u_all_2x1_seed1.json").read_text()


class TestValidate:
    def test_valid_instance_passes(self, params_file, capsys):
        rc = main(["validate", "--params", params_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall: PASS" in out

    def test_failing_instance_names_clause(self, bad_params_file, capsys):
        rc = main(["validate", "--params", bad_params_file])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL  cond1" in out
        assert "h = 0" in out

    def test_csv_format(self, params_file, capsys):
        rc = main(["validate", "--params", params_file, "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "check,paper_ref,pass,witness,millis"


class TestVerify:
    def test_full_suite_passes(self, params_file, capsys):
        rc = main(["verify", "--params", params_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall: PASS" in out
        assert "irreducibility" not in out  # opt-in only

    def test_all_includes_irreducibility(self, params_file, capsys):
        rc = main(["verify", "--params", params_file, "--checks", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "irreducibility" in out

    def test_mutated_beta_fails(self, capsys):
        args = ["verify", "--shape", "1", "--seed", "1", "--checks", "td_relations"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--beta", "3"]) == 1
        assert "FAIL  td_relations" in capsys.readouterr().out

    def test_check_list_always_gates_constraints(self, bad_params_file, capsys):
        rc = main(["verify", "--params", bad_params_file, "--checks", "eigen"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL  constraints" in out
        assert "SKIP  eigen" in out

    def test_unknown_check_is_config_error(self, capsys):
        rc = main(["verify", "--shape", "1", "--seed", "1", "--checks", "eigen,nope"])
        assert rc == 2
        assert "unknown checks" in capsys.readouterr().err

    def test_empty_check_name_is_config_error(self, capsys):
        rc = main(["verify", "--shape", "1", "--seed", "1", "--checks", "eigen,,inverse,"])
        assert rc == 2
        assert "empty check name" in capsys.readouterr().err

    def test_bad_beta_is_config_error(self, params_file, capsys):
        rc = main(["verify", "--params", params_file, "--beta", "x/y"])
        assert rc == 2
        assert "bad --beta" in capsys.readouterr().err


class TestBuild:
    def test_text_matrix(self, params_file, capsys):
        rc = main(["build", "--params", params_file, "--operator", "A"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0].split() == ["index", "[0]", "[1]"]

    def test_coefficient_family_csv(self, params_file, capsys):
        rc = main(["build", "--params", params_file, "--operator", "D", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "index,[0],[1]"
        assert len(lines) == 3

    def test_invalid_parameters_fail_with_report(self, bad_params_file, capsys):
        rc = main(["build", "--params", bad_params_file, "--operator", "A"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "cond1" in captured.err


class TestOverlap:
    def test_method_all_blocks_identical(self, capsys):
        rc = main(["overlap", "--shape", "1", "--seed", "1", "--method", "all", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 3
        bodies = ["\n".join(b.splitlines()[1:]) for b in blocks]
        assert bodies[0] == bodies[1] == bodies[2]
        labels = [b.splitlines()[0] for b in blocks]
        assert labels == ["# T direct_sum", "# T matrix_product", "# T shift_operator"]

    def test_both_families_all_methods(self, capsys):
        rc = main(["overlap", "--shape", "1", "--seed", "2", "--which", "both", "--method", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("# T ") == 3
        assert out.count("# U ") == 3

    def test_degenerate_kind_table(self, capsys):
        rc = main(["overlap", "--shape", "1", "--seed", "1", "--kind", "krawtchouk"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "# T krawtchouk"

    @pytest.mark.parametrize("shape", ["2,1", "3,3,2"])
    @pytest.mark.parametrize("kind", ["hahn", "krawtchouk"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_degenerate_kind_is_the_pointwise_table(self, shape, kind, fmt, capsys):
        # the same bytes as a table filled entry by entry from the oracle
        oracle = oracle_hahn if kind == "hahn" else oracle_krawtchouk
        p = random_valid_parameters(Shape(tuple(map(int, shape.split(",")))), 1)
        m = ExactMatrix(enumerate_box(p.shape))
        for r, i in enumerate(m.basis):
            for c, x in enumerate(m.basis):
                v = oracle(p, i, x)
                if v != 0:
                    m.entries[(r, c)] = v
        rc = main(["overlap", "--shape", shape, "--seed", "1", "--kind", kind, "--format", fmt])
        assert rc == 0
        assert capsys.readouterr().out == _emit_tables([(f"T {kind}", m)], fmt)

    def test_kind_conflicts_with_method(self, capsys):
        rc = main(["overlap", "--shape", "1", "--seed", "1", "--kind", "hahn", "--method", "direct_sum"])
        assert rc == 2
        assert "general kind only" in capsys.readouterr().err

    def test_kind_tabulates_t_only(self, capsys):
        rc = main(["overlap", "--shape", "1", "--seed", "1", "--kind", "hahn", "--which", "U"])
        assert rc == 2
        assert "T only" in capsys.readouterr().err

    def test_method_family_mismatch(self, capsys):
        rc = main(["overlap", "--shape", "1", "--seed", "1", "--which", "U", "--method", "matrix_product"])
        assert rc == 2
        assert "does not compute" in capsys.readouterr().err


class TestLimits:
    def test_valid_draw_passes(self, capsys):
        rc = main(["limits", "--shape", "1,1", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS  limits" in out

    def test_invalid_parameters_fail(self, bad_params_file, capsys):
        rc = main(["limits", "--params", bad_params_file])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SKIP  limits" in out

    def test_a_raising_series_kernel_fails_with_a_witness(self, monkeypatch, capsys):
        # division by s - s = O(t^0) in the Krawtchouk side's series kernel:
        # status 1 and the JSON witness, not a traceback
        original = verify._hahn_table

        def dividing(params, rows, cols):
            s = params.omega
            values = factored_values(original(params, rows, cols))
            return unit_factored([[v / (s - s) for v in row] for row in values])

        monkeypatch.setattr(verify, "_hahn_table", dividing)
        rc = main(["limits", "--shape", "2,1", "--seed", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in captured.err
        limits = json.loads(captured.out)["checks"][-1]
        assert (limits["check"], limits["pass"]) == ("limits", False)
        assert limits["witness"]["identity"] == "both spectra linear limit"
        assert limits["witness"]["lhs"] == "unknown: division by O(t^0), not known to be nonzero"

    def test_a_pole_fails_with_a_witness(self, monkeypatch, capsys):
        # the direct sum planted to return 1/t at the series parameters: its
        # limit does not exist, so status 1 and the JSON witness, not a
        # traceback
        def pole(params, rows, cols):
            return unit_factored([[LaurentSeries(-1, 1)] * len(cols) for _ in rows])

        monkeypatch.setattr(verify, "_t_direct", pole)
        rc = main(["limits", "--shape", "2", "--seed", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in captured.err
        limits = json.loads(captured.out)["checks"][-1]
        assert (limits["check"], limits["pass"]) == ("limits", False)
        assert limits["witness"]["identity"] == "level-linear starred spectrum limit"
        assert limits["witness"]["lhs"] == "does not exist: pole at t = 0: LaurentSeries(-1, 1, 1)"


class TestConfigErrors:
    def test_params_and_shape_conflict(self, params_file, capsys):
        rc = main(["verify", "--params", params_file, "--shape", "1", "--seed", "1"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_no_parameter_source(self, capsys):
        assert main(["verify"]) == 2

    def test_shape_without_seed(self, capsys):
        assert main(["verify", "--shape", "2,1"]) == 2

    def test_missing_file(self, capsys):
        assert main(["validate", "--params", "/nonexistent/p.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_broken_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", "--params", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["validate"], ["verify"], ["limits"], ["overlap"], ["build", "--operator", "A"]]
    )
    def test_unreadable_params_exit_2(self, command, tmp_path, capsys):
        # bytes that are not UTF-8, and an int literal of more digits than
        # Python converts: each a ValueError but no JSONDecodeError
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"ell": [1], "h": "\xe9"}')
        digits = tmp_path / "digits.json"
        digits.write_text('{"ell": [1], "theta0": ' + "1" * 4301 + "}")
        for path, reason in ((not_utf8, "can't decode"), (digits, "digits")):
            assert main(command + ["--params", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"tdpair: invalid JSON in {path}: ") and err.count("\n") == 1
            assert reason in err

    def test_missing_keys(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"ell": [1]}))
        assert main(["validate", "--params", str(path)]) == 2
        assert "missing keys" in capsys.readouterr().err

    def test_bad_shape_text(self, capsys):
        assert main(["verify", "--shape", "2,x", "--seed", "1"]) == 2
        assert main(["verify", "--shape", "0", "--seed", "1"]) == 2
        # an empty entry is an error, not dropped
        for text in ("1,,2", "3,", ",3"):
            assert main(["limits", "--shape", text, "--seed", "1"]) == 2
            assert "bad --shape" in capsys.readouterr().err

    def test_bound_too_small(self, capsys):
        assert main(["verify", "--shape", "1", "--seed", "1", "--bound", "2"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == 2


class TestLazyParser:
    """main builds only the parser of the subcommand its argv names; help,
    usage lines and errors are what the whole tree gives, compared at run
    time since argparse's text differs between Python versions."""

    ARGVS = [[name, "--help"] for name in cli._COMMANDS] + [
        [],
        ["--help"],
        ["--help", "verify"],
        ["nosuch"],
        ["verify", "--bogus"],
    ]

    @staticmethod
    def _outcome(argv, capsys):
        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_as_the_whole_tree(self, argv, monkeypatch, capsys):
        lazy = self._outcome(argv, capsys)
        whole = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: whole())
        assert lazy == self._outcome(argv, capsys)

    def test_usage_names_every_subcommand(self, capsys):
        assert main(["verify", "--bogus"]) == 2
        assert "{validate,build,verify,overlap,limits}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, built",
        [(["verify", "--help"], "verify"), (["limits", "--shape", "2", "--seed", "1"], "limits"),
         (["--help", "verify"], "verify"), (["--help"], None), (["nosuch"], None), ([], None)],
    )
    def test_only_the_named_subcommand_is_built(self, argv, built, monkeypatch, capsys):
        names, whole = [], cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: names.append(command) or whole(command))
        main(argv)
        assert names == [built]


class TestDimensionBudget:
    """Every subcommand but validate refuses an oversized box at once."""

    BOUNDED = (["verify"], ["limits"], ["overlap"], ["build", "--operator", "A"])

    @pytest.fixture
    def big_params_file(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(VALID_N1, ell=[20, 20], a=["1/3", "1/5"])))
        return str(path)

    @pytest.mark.parametrize("command", BOUNDED)
    def test_oversized_box_exits_2_at_once(self, command, big_params_file, capsys):
        for source in (["--shape", "20,20", "--seed", "1"], ["--params", big_params_file]):
            start = time.perf_counter()
            assert main(command + source) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert "d = 441" in err and f"limit {MAX_DIMENSION}" in err

    @pytest.mark.parametrize("command", BOUNDED)
    def test_many_coordinates_exit_2_at_once(self, command, tmp_path, capsys):
        # 15,000 coordinates of length 1: d = 2^15000 has more digits than
        # Python prints, and is never formed whole
        n = 15000
        path = tmp_path / "ones.json"
        path.write_text(json.dumps(dict(VALID_N1, ell=[1] * n, a=["1/3"] * n)))
        for source in (["--shape", ",".join(["1"] * n), "--seed", "1"], ["--params", str(path)]):
            start = time.perf_counter()
            assert main(command + source) == 2
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err == (
                f"tdpair: box dimension d >= 256 of a shape of {n} coordinates exceeds "
                f"the limit {MAX_DIMENSION} of {command[0]}\n"
            )

    @pytest.mark.parametrize("checks", ["all", "irreducibility"])
    def test_irreducibility_has_a_lower_limit(self, checks, tmp_path, capsys):
        # (3,3), d = 16, is over the irreducibility limit but inside MAX_DIMENSION
        path = tmp_path / "d16.json"
        path.write_text(json.dumps(dict(VALID_N1, ell=[3, 3], a=["1/3", "1/5"])))
        for source in (["--shape", "3,3", "--seed", "1"], ["--params", str(path)]):
            start = time.perf_counter()
            assert main(["verify", "--checks", checks] + source) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert "d = 16" in err and f"limit {MAX_IRREDUCIBILITY_DIMENSION}" in err
        assert main(["verify", "--checks", "constraints", "--shape", "3,3", "--seed", "1"]) == 0

    def test_validate_is_unbounded(self, big_params_file, capsys):
        # in the box dimension; its number of coordinates is bounded below
        assert main(["validate", "--shape", "20,20", "--seed", "1"]) == 0
        assert main(["validate", "--params", big_params_file]) in (0, 1)
        assert "exceeds" not in capsys.readouterr().err

    @staticmethod
    def _coordinates_file(tmp_path, n: int) -> str:
        # n coordinates of length 1, every anchor a distinct non-integer
        path = tmp_path / f"n{n}.json"
        a = [f"{k}/100003" for k in range(1, n + 1)]
        path.write_text(json.dumps(dict(VALID_N1, ell=[1] * n, omega="1/3", a=a)))
        return str(path)

    def test_validate_refuses_too_many_coordinates(self, tmp_path, monkeypatch, capsys):
        # cond3 compares 2N strings pairwise: N = MAX_DIMENSION + 1 exits 2
        # before anything is sampled or validated
        def unreached(params):
            raise AssertionError("validated")

        monkeypatch.setattr(cli, "validate_parameters", unreached)
        monkeypatch.setattr(verify, "validate_parameters", unreached)
        n = MAX_DIMENSION + 1
        shape = ["--shape", ",".join(["1"] * n), "--seed", "1"]
        for source in (["--params", self._coordinates_file(tmp_path, n)], shape):
            start = time.perf_counter()
            assert main(["validate"] + source) == 2
            assert time.perf_counter() - start < 1.0
            assert f"{n} coordinates exceed the limit {MAX_DIMENSION} of validate" in capsys.readouterr().err

    def test_validate_admits_the_coordinate_limit(self, tmp_path, capsys):
        assert main(["validate", "--params", self._coordinates_file(tmp_path, MAX_DIMENSION), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["check"] for c in report["checks"]] == ["cond1", "cond2", "cond3"]

    @pytest.mark.parametrize("command", BOUNDED)
    def test_oversized_rationals_exit_2_at_once(self, command, tmp_path, capsys):
        # a 4,000-digit numerator in a document, and a --bound one bit over
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(VALID_N1, theta0="1" * 4000 + "/7")))
        over = ["--shape", "1", "--seed", "1", "--bound", str(2**MAX_PARAMETER_BITS)]
        for source in (["--params", str(path)], over):
            start = time.perf_counter()
            assert main(command + source) == 2
            assert time.perf_counter() - start < 1.0
            assert f"exceeds the limit of {MAX_PARAMETER_BITS} bits" in capsys.readouterr().err
        assert main(["validate", "--params", str(path)]) == 0

    def test_rationals_at_the_bit_limit_are_admitted(self, tmp_path, capsys):
        top = 2**MAX_PARAMETER_BITS - 1
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(dict(VALID_N1, h=f"{top}/{top - 1}", omega=f"-{top}")))
        assert main(["build", "--operator", "A", "--params", str(path)]) == 0
        assert main(["build", "--operator", "A", "--shape", "1", "--seed", "1", "--bound", str(top)]) == 0

    def test_largest_shape_in_use_is_admitted(self, capsys):
        # (3,3,2), d = 48, is the largest shape the tests, the benchmark and
        # the ROADMAP table run
        assert MAX_DIMENSION >= 48
        assert main(["build", "--operator", "A", "--shape", "3,3,2", "--seed", "1"]) == 0


# valid parameter sets where a formula meets a vanishing denominator: at
# (1,1) the shift route at ([0,1],[0,1]) and ([0,1],[1,1]), at (2,1) the
# shift route and the closed Hahn kind
UNDEFINED_SHIFT = dict(VALID_N1, ell=[1, 1], a=["0", "0"])
UNDEFINED_HAHN = dict(VALID_N1, ell=[2, 1], omega="-9", omega_star="-9", a=["-4", "4"])
RACAH_SERIES = "denominator Pochhammer symbol vanished at k=1 (Racah factor series)"
HAHN_SERIES = "denominator Pochhammer symbol vanished at k=1 (Hahn factor series)"


class TestVanishingDenominators:
    """A check that meets a vanishing denominator fails with a witness that
    names the error; the other checks still run, and nothing raises."""

    def _run(self, tmp_path, capsys, obj, args):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        rc = main(args + ["--params", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return rc, captured

    def _failed(self, out):
        return {c["check"]: c["witness"] for c in json.loads(out)["checks"] if c["pass"] is False}

    def test_an_undefined_route_fails_overlap_consistency(self, tmp_path, capsys):
        rc, captured = self._run(tmp_path, capsys, UNDEFINED_SHIFT, ["verify"])
        assert rc == 1
        assert self._failed(captured.out) == {
            "overlap_consistency": {
                "identity": "T route agreement",
                "method": "shift_operator",
                "error": RACAH_SERIES,
            }
        }

    def test_an_undefined_closed_form_fails_limits(self, tmp_path, capsys):
        rc, captured = self._run(tmp_path, capsys, UNDEFINED_HAHN, ["limits"])
        assert rc == 1
        assert self._failed(captured.out) == {"limits": {"error": HAHN_SERIES}}
        rc, captured = self._run(tmp_path, capsys, UNDEFINED_HAHN, ["verify"])
        assert rc == 1
        failed = self._failed(captured.out)
        assert sorted(failed) == ["limits", "overlap_consistency"]
        assert failed["limits"] == {"error": HAHN_SERIES}

    def test_an_undefined_overlap_table_is_one_line(self, tmp_path, capsys):
        args = ["overlap", "--which", "T", "--method", "shift_operator"]
        rc, captured = self._run(tmp_path, capsys, UNDEFINED_SHIFT, args)
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"tdpair: {RACAH_SERIES}\n"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tdpair.cli", "validate", "--shape", "1", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "overall: PASS" in proc.stdout
