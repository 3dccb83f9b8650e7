"""Command-line interface: reports, determinism, exit-code contract."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from hopfex import QQ
from hopfex.cli import _load, build_parser, render_text, run_command
from hopfex.coalgebra import CoradicalAnalysis, IdempotentFamily
from hopfex.scalars import FieldSpec, Scalar
from hopfex.structfile import HEADER
from lifting_cases import is_canonical

GOLD = None  # filled per-test via the golden_dir fixture
ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(args):
    return run_command([str(a) for a in args])


def child_env(**overrides):
    """Environment for a `python -m hopfex.cli` child: this checkout's src
    ahead of any PYTHONPATH, and no HOPFEX_CAP unless the test sets one."""
    env = {k: v for k, v in os.environ.items() if k != "HOPFEX_CAP"}
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env.update(overrides)
    return env


def path_of(golden_dir, stem):
    return str(golden_dir / f"{stem}.hopf")


REPORT_COMMANDS = [
    ["validate"],
    ["coradical"],
    ["filtration"],
    ["simples"],
    ["idempotents"],
    ["exponent"],
    ["integral"],
    ["theorem-check"],
    ["hopf-order", "--element", "g"],
    ["mult-matrix", "--simple", "0"],
    ["decompose", "--element", "x", "--simple", "0", "--simple", "1"],
]


@pytest.mark.parametrize("cmd", REPORT_COMMANDS, ids=lambda c: c[0])
def test_sweedler_reports_exit_zero(cmd, golden_dir):
    code, text = run(cmd + [path_of(golden_dir, "sweedler")])
    assert code == 0, text
    assert text.endswith("\n")


@pytest.mark.parametrize("cmd", REPORT_COMMANDS, ids=lambda c: c[0])
def test_reports_are_deterministic(cmd, golden_dir):
    argv = cmd + [path_of(golden_dir, "sweedler")]
    assert run(argv) == run(argv)
    jargv = argv + ["--json"]
    assert run(jargv) == run(jargv)


@pytest.mark.parametrize("cmd", REPORT_COMMANDS, ids=lambda c: c[0])
def test_json_and_text_carry_the_same_facts(cmd, golden_dir):
    argv = cmd + [path_of(golden_dir, "sweedler")]
    code_t, text = run(argv)
    code_j, jtext = run(argv + ["--json"])
    assert code_t == code_j
    facts = json.loads(jtext)
    assert "\n".join(render_text(facts)) + "\n" == text


def test_subprocess_runs_are_byte_identical(golden_dir):
    # the third run of each command line is under -O, so no printed result
    # may rest on an assert; the M_2 basic matrix of dual_kS3 depends on
    # the primitive idempotent chosen, and its simples and idempotents on
    # the centre and the corners of the semisimple quotient
    env = child_env(PYTHONHASHSEED="random")
    dual_ks3 = path_of(golden_dir, "dual_kS3")
    for args in (["exponent", path_of(golden_dir, "kS3")],
                 ["mult-matrix", dual_ks3, "--simple", "2"],
                 ["simples", dual_ks3],
                 ["idempotents", dual_ks3, "--json"]):
        outs = []
        for flags in ([], [], ["-O"]):
            p = subprocess.run([sys.executable, *flags, "-m", "hopfex.cli",
                                *args],
                               capture_output=True, text=True, env=env,
                               cwd=ROOT)
            assert p.returncode == 0, p.stderr
            outs.append(p.stdout)
        assert outs[0] == outs[1] == outs[2], args


def test_failed_invariant_exits_one_under_optimize(tmp_path):
    # k{1, z} with z^2 = z and Delta z = z (x) z, and the identity as a
    # false antipode: [2] = [1] repeats, which no Hopf algebra allows
    bad = tmp_path / "monoid.hopf"
    bad.write_text(
        f"{HEADER}\n"
        "field characteristic 0\n"
        "dim 2\n"
        "basis 1 z\n"
        "counit 1 1\n"
        "comul 0 0 0 1\n"
        "comul 1 1 1 1\n"
        "mul 0 0 0 1\n"
        "mul 0 1 1 1\n"
        "mul 1 0 1 1\n"
        "mul 1 1 1 1\n"
        "unit 1 0\n"
        "antipode 0 0 1\n"
        "antipode 1 1 1\n")
    for flags in ([], ["-O"]):
        p = subprocess.run([sys.executable, *flags, "-m", "hopfex.cli",
                            "exponent", str(bad)],
                           capture_output=True, text=True, env=child_env(),
                           cwd=ROOT)
        assert p.returncode == 1, (flags, p.stdout, p.stderr)
        assert p.stdout.startswith("InvariantViolation: "), flags
        assert "Traceback" not in p.stderr, flags


def test_validate_reports_violations_with_exit_one(tmp_path):
    bad = tmp_path / "bad.hopf"
    bad.write_text(
        f"{HEADER}\n"
        "field characteristic 0\n"
        "dim 2\n"
        "basis a b\n"
        "counit 1 1\n"
        "comul 0 0 1 1\n"
        "comul 1 1 1 1\n")
    code, text = run(["validate", str(bad)])
    assert code == 1
    assert "false" in text  # valid: false
    code_j, jtext = run(["validate", str(bad), "--json"])
    facts = json.loads(jtext)
    assert facts["valid"] is False and facts["violations"]


def test_malformed_inputs_exit_two(tmp_path):
    cases = {
        "nohdr.hopf": "dim 1\n",
        "badscalar.hopf": (f"{HEADER}\n"
                           "field characteristic 0\n"
                           "dim 1\nbasis e\ncounit one\ncomul 0 0 0 1\n"),
        "badindex.hopf": (f"{HEADER}\n"
                          "field characteristic 0\n"
                          "dim 1\nbasis e\ncounit 1\ncomul 0 0 7 1\n"),
    }
    for name, content in cases.items():
        f = tmp_path / name
        f.write_text(content)
        code, text = run(["validate", str(f)])
        assert code == 2, name
        assert "line" in text, name


def test_cyclotomic_order_past_the_cap_exits_two(tmp_path):
    # the degree phi(720720) = 138240 is rejected before the cyclotomic
    # polynomial, which would take hours, is built
    f = tmp_path / "big.hopf"
    f.write_text(f"{HEADER}\nfield characteristic 0\nfield cyclotomic 720720\n"
                 "dim 1\nbasis e\ncounit 1\ncomul 0 0 0 1\n")
    code, text = run(["validate", str(f)])
    assert code == 2
    assert text.startswith("input error: ") and "line 4: invalid field" in text
    assert "exceeds the supported cap 16" in text


def test_missing_file_exits_two(tmp_path):
    code, text = run(["coradical", str(tmp_path / "absent.hopf")])
    assert code == 2


def test_hopf_command_on_plain_coalgebra_exits_two(tmp_path, golden_dir):
    text = (golden_dir / "kZ2.hopf").read_text()
    kept = [ln for ln in text.splitlines()
            if not ln.startswith(("mul ", "unit ", "antipode "))]
    f = tmp_path / "coalg.hopf"
    f.write_text("\n".join(kept) + "\n")
    code, out = run(["exponent", str(f)])
    assert code == 2
    code, out = run(["coradical", str(f)])  # coalgebra-level command is fine
    assert code == 0


def test_exponent_reports(golden_dir):
    code, jtext = run(["exponent", path_of(golden_dir, "kZ6"), "--json"])
    facts = json.loads(jtext)
    assert code == 0 and facts["outcome"] == "finite" and \
        facts["exponent"] == 6

    code, jtext = run(["exponent", path_of(golden_dir, "sweedler"),
                       "--cap", "50", "--json"])
    facts = json.loads(jtext)
    assert code == 0
    assert facts["outcome"] == "exceeds_cap" and facts["cap"] == 50
    assert facts["note"]["classification"] == "provably_infinite"


def test_exponent_rejects_bad_cap(golden_dir):
    code, text = run(["exponent", path_of(golden_dir, "kZ2"), "--cap", "0"])
    assert code == 2


def test_cap_environment_override(golden_dir):
    argv = [sys.executable, "-m", "hopfex.cli", "exponent",
            path_of(golden_dir, "sweedler"), "--json"]
    env = child_env(HOPFEX_CAP="10")
    p = subprocess.run(argv, capture_output=True, text=True, env=env,
                       cwd=ROOT)
    assert p.returncode == 0, p.stderr
    facts = json.loads(p.stdout)
    assert facts["outcome"] == "exceeds_cap" and facts["cap"] == 10


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_cap_environment_exits_two(value, golden_dir):
    argv = [sys.executable, "-m", "hopfex.cli", "exponent",
            path_of(golden_dir, "sweedler")]
    p = subprocess.run(argv, capture_output=True, text=True,
                       env=child_env(HOPFEX_CAP=value), cwd=ROOT)
    assert p.returncode == 2
    assert p.stdout.startswith("input error: HOPFEX_CAP")
    assert "Traceback" not in p.stderr


def test_cap_flag_overrides_bad_environment(golden_dir, monkeypatch):
    monkeypatch.setenv("HOPFEX_CAP", "abc")
    code, jtext = run(["exponent", path_of(golden_dir, "sweedler"),
                       "--cap", "7", "--json"])
    assert code == 0
    assert json.loads(jtext)["cap"] == 7


def test_theorem_check_sweedler(golden_dir):
    code, jtext = run(["theorem-check", path_of(golden_dir, "sweedler"),
                       "--json"])
    facts = json.loads(jtext)
    assert code == 0
    assert facts["outcome"] == "provably_infinite"
    assert facts["witness"] == "x"
    assert facts["criterion"]


def test_theorem_check_char_p_bound(golden_dir):
    code, jtext = run(["theorem-check", path_of(golden_dir, "taft9_f7"),
                       "--json"])
    facts = json.loads(jtext)
    assert code == 0
    assert facts["outcome"] == "bounded" and facts["bound"] == 21
    assert facts["exponent"] is not None and facts["exponent"] <= 21


def test_field_extend_keeps_exponent_outcome(golden_dir):
    base = ["exponent", path_of(golden_dir, "sweedler_f3"), "--json"]
    _, jt1 = run(base)
    _, jt2 = run(base + ["--field-extend", "1,0,1"])
    f1, f2 = json.loads(jt1), json.loads(jt2)
    assert f1["outcome"] == f2["outcome"]
    assert f1["exponent"] == f2["exponent"]
    assert f1["field"] != f2["field"]


FIELD_EXTEND_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "field_extend_reports.json").read_text())


@pytest.mark.parametrize("argv", sorted(FIELD_EXTEND_REPORTS))
def test_char0_field_extend_reports_are_unchanged(argv, golden_dir):
    # reports recorded when char-0 extension values were Fraction tuples:
    # sweedler over Q[t]/(t^2 - 1/2), whose modulus is not integral, and
    # kS3 and its dual over Q[t]/(t^2 + t + 1)
    cmd, stem, *flags = argv.split(" ")
    code, text = run([cmd, golden_dir / stem, *flags])
    want = FIELD_EXTEND_REPORTS[argv]
    assert (code, text) == (want["code"], want["report"])


def test_field_extend_with_a_negative_constant_term_needs_equals(
        golden_dir, capsys, monkeypatch):
    path = path_of(golden_dir, "sweedler")
    with pytest.raises(SystemExit) as exc:
        run(["exponent", path, "--field-extend", "-1/2,0,1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert run(["exponent", path, "--field-extend=-1/2,0,1"])[0] == 0
    monkeypatch.setenv("COLUMNS", "500")  # one help line per option
    with pytest.raises(SystemExit):
        run(["exponent", "--help"])
    assert "--field-extend=-1/2,0,1" in capsys.readouterr().out


def test_integral_facts(golden_dir):
    code, jtext = run(["integral", path_of(golden_dir, "sweedler"),
                       "--json"])
    facts = json.loads(jtext)
    assert code == 0
    assert facts["agree"] is True
    assert facts["left_integral_verified"] is False  # S^2 != id here
    code, jtext = run(["integral", path_of(golden_dir, "kS3"), "--json"])
    facts = json.loads(jtext)
    assert facts["left_integral_verified"] is True
    assert "cosemisimple_decomposition" in facts


def test_idempotents_verified(golden_dir):
    for stem in ("kZ6", "dual_kS3", "taft9"):
        code, jtext = run(["idempotents", path_of(golden_dir, stem),
                           "--json"])
        facts = json.loads(jtext)
        assert code == 0
        assert facts["orthonormal"] is True
        assert facts["sum_is_counit"] is True


def reference_idempotent_facts(obj):
    """(orthonormal, sum_is_counit) as the loops over Scalars decided them."""
    fam = obj.coradical_idempotents()
    fs = [fam.functional(c.index) for c in obj.simple_subcoalgebras()]
    dual, zero = obj.dual_algebra(), tuple(obj.field.zero()
                                           for _ in range(obj.dim))
    ok = all(dual.mult(f, g) == (f if i == j else zero)
             for i, f in enumerate(fs) for j, g in enumerate(fs))
    summed = tuple(sum(col, obj.field.zero()) for col in zip(*fs))
    return ok and summed == obj.counit, summed == obj.counit


def test_idempotents_facts_match_the_scalar_reference(golden_dir,
                                                      monkeypatch):
    for path in sorted(golden_dir.glob("*.hopf")):
        code, jtext = run(["idempotents", path, "--json"])
        facts = json.loads(jtext)
        want = reference_idempotent_facts(_load(str(path)))
        assert (facts["orthonormal"], facts["sum_is_counit"]) == want
        assert want == (True, True) and code == 0, path.name
    # a family that repeats its first functional is neither orthogonal
    # nor a partition of the counit
    real = CoradicalAnalysis.idempotents

    def repeated(self):
        fam = real(self)
        return IdempotentFamily(fam.coalgebra, [fam.raw[0]] * len(fam))

    monkeypatch.setattr(CoradicalAnalysis, "idempotents", repeated)
    path = golden_dir / "kZ6.hopf"
    code, jtext = run(["idempotents", path, "--json"])
    facts = json.loads(jtext)
    assert code == 1
    assert (facts["orthonormal"], facts["sum_is_counit"]) == \
        reference_idempotent_facts(_load(str(path))) == (False, False)


def test_hopf_order_element_forms(golden_dir):
    code, jtext = run(["hopf-order", path_of(golden_dir, "sweedler"),
                       "--element", "g", "--json"])
    facts = json.loads(jtext)
    assert code == 0 and facts["order"] == 2
    # the same element as a coefficient vector
    code2, jtext2 = run(["hopf-order", path_of(golden_dir, "sweedler"),
                         "--element", "0 1 0 0", "--json"])
    assert json.loads(jtext2)["order"] == 2
    # x has no Hopf order
    code3, jtext3 = run(["hopf-order", path_of(golden_dir, "sweedler"),
                         "--element", "x", "--cap", "60", "--json"])
    facts3 = json.loads(jtext3)
    assert facts3["order"] is None and facts3["exceeded_cap"] is True


def test_element_parse_failures(golden_dir):
    code, text = run(["hopf-order", path_of(golden_dir, "sweedler"),
                      "--element", "nosuch"])
    assert code == 2
    code, text = run(["hopf-order", path_of(golden_dir, "sweedler"),
                      "--element", "1 2"])  # wrong length
    assert code == 2
    code, text = run(["hopf-order", path_of(golden_dir, "sweedler")])
    assert code == 2  # --element is required here


def test_literals_beyond_the_digit_limit_exit_two(golden_dir, tmp_path):
    # every text-to-rational conversion bounds the digits before forming
    # a power of ten: files, --element and --field-extend
    sweedler = path_of(golden_dir, "sweedler")
    huge = tmp_path / "huge.hopf"
    huge.write_text(f"{HEADER}\nfield characteristic 0\ndim 1\nbasis e\n"
                    "counit 1\ncomul 0 0 0 1e-2000000\n")
    modulus = tmp_path / "modulus.hopf"
    modulus.write_text(f"{HEADER}\nfield characteristic 0\n"
                       "field modulus 1e99999999 0 1\ndim 1\n")
    for argv, where in (
            (["validate", huge], "line 6: cannot parse scalar"),
            (["validate", modulus], "line 3: modulus coefficients"),
            (["hopf-order", sweedler, "--element", "1e5000 0 0 0"],
             "cannot parse scalar '1e5000'"),
            (["exponent", sweedler, "--field-extend", "1e99999999,0,1"],
             "cannot parse modulus")):
        code, text = run(argv)
        assert code == 2 and text.startswith("input error: ") and where in text
    # and no traceback reaches the terminal
    proc = subprocess.run(
        [sys.executable, "-m", "hopfex.cli", "hopf-order", sweedler,
         "--element", "1e5000 0 0 0"], env=child_env(),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stderr == ""
    assert proc.stdout.startswith("input error: ")


def test_decompose_facts(golden_dir):
    code, jtext = run(["decompose", path_of(golden_dir, "sweedler"),
                       "--element", "x", "--simple", "0", "--simple", "1",
                       "--json"])
    facts = json.loads(jtext)
    assert code == 0
    assert facts["left_simple"] != facts["right_simple"]
    assert facts["matrices"]
    assert facts["remainder"] == "0"


def test_decompose_wrong_bicomponent_exits_one(golden_dir):
    code, text = run(["decompose", path_of(golden_dir, "sweedler"),
                      "--element", "x", "--simple", "1", "--simple", "0"])
    assert code == 1  # math-level failure, not an input error


def test_decompose_needs_two_simples(golden_dir):
    code, text = run(["decompose", path_of(golden_dir, "sweedler"),
                      "--element", "x", "--simple", "0"])
    assert code == 2


def test_extend_subcommand(golden_dir):
    code, jtext = run(["extend", path_of(golden_dir, "taft9"),
                       "--element", "x^2",
                       "--grouplike-left", "g^2",
                       "--grouplike-right", "1",
                       "--degree", "2", "--json"])
    facts = json.loads(jtext)
    assert code == 0
    assert facts["result_dimension"] == 10
    assert facts["new_basis"] == ["z1"]
    assert facts["designated_sum"] == "x^2"
    assert facts["coradical_unchanged"] is True


def test_extend_output_is_the_same_under_optimize(golden_dir):
    # extension checks its invariants with require(), which -O keeps
    outs = []
    for flags in ([], ["-O"]):
        p = subprocess.run([sys.executable, *flags, "-m", "hopfex.cli",
                            "extend", path_of(golden_dir, "taft9"),
                            "--element", "x^2", "--grouplike-left", "g^2",
                            "--grouplike-right", "1", "--degree", "2"],
                           capture_output=True, text=True, env=child_env(),
                           cwd=ROOT)
        assert p.returncode == 0, (flags, p.stderr)
        outs.append(p.stdout)
    assert outs[0] == outs[1]
    assert "designated_sum: x^2" in outs[0]


def test_extend_requires_flags(golden_dir):
    code, text = run(["extend", path_of(golden_dir, "taft9"),
                      "--element", "x^2"])
    assert code == 2


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_extend_rejects_a_degree_below_one_as_bad_input(degree, golden_dir):
    code, text = run(["extend", path_of(golden_dir, "taft9"),
                      "--element", "x^2", "--grouplike-left", "g^2",
                      "--grouplike-right", "1", "--degree", degree])
    assert (code, text) == (2, "input error: --degree must be positive\n")


def test_zoo_dump_matches_golden(golden_dir):
    code, text = run(["zoo-dump", "sweedler"])
    assert code == 0
    assert text == (golden_dir / "sweedler.hopf").read_text()
    code, text = run(["zoo-dump", "kS3"])
    assert text == (golden_dir / "kS3.hopf").read_text()


def test_zoo_dump_unknown_name():
    code, text = run(["zoo-dump", "nonsense"])
    assert code == 2


@pytest.mark.parametrize("name", ["kZ0", "kZ-1", "dual-kZ0", "kZ", "kZabc",
                                  "taftx", "restricted", "restricted0"])
def test_zoo_dump_malformed_size_exits_two(name):
    # a size that is missing, not an integer, below 1 or not prime is an
    # input error: no traceback, and no object built from it
    code, text = run(["zoo-dump", name])
    assert code == 2 and text.startswith("input error: "), (code, text)


def test_mult_matrix_simple_selection(golden_dir):
    code, jtext = run(["mult-matrix", path_of(golden_dir, "dual_kS3"),
                       "--simple", "2", "--json"])
    facts = json.loads(jtext)
    assert code == 0
    assert facts["multiplicative"] is True
    code, text = run(["mult-matrix", path_of(golden_dir, "dual_kS3"),
                      "--simple", "9"])
    assert code == 2


def test_parser_is_shared_without_leaking_parsed_state(golden_dir, capsys):
    # build_parser is built once per process; one call's flags must not
    # reach the next, and a bad flag keeps its usage text and exit code 2
    sweedler = path_of(golden_dir, "sweedler")
    assert build_parser() is build_parser()
    code, text = run(["decompose", sweedler, "--element", "x",
                      "--simple", "0", "--simple", "1"])
    assert code == 0, text
    code, text = run(["decompose", sweedler, "--element", "x"])
    assert code == 2
    assert text == "input error: decompose needs --simple LEFT --simple RIGHT\n"
    assert build_parser().parse_args(["coradical", sweedler]).simple is None
    bad = ["coradical", sweedler, "--no-such-flag"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(bad)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        build_parser.__wrapped__().parse_args(bad)  # a parser of its own
    assert exc.value.code == 2
    assert err == capsys.readouterr().err
    assert err.startswith("usage: hopfex ")
    assert err.endswith("error: unrecognized arguments: --no-such-flag\n")


Q_STEMS = ["kZ2", "kZ6", "kS3", "dual_kS3", "sweedler", "tensor_kZ2_kZ3"]


def test_reports_over_q_make_only_canonical_rationals(golden_dir, monkeypatch):
    # over Q a Scalar, and a raw value that a report formats, is an int or
    # a Fraction with denominator > 1: never a float and never a Fraction
    # with denominator 1
    made, bad = [], []
    real_init, real_format = Scalar.__init__, FieldSpec.format_raw

    def check(field, val):
        if field == QQ:
            made.append(type(val))
            if not is_canonical(QQ, val):
                bad.append(val)

    def checked_init(self, field, val):
        check(field, val)
        real_init(self, field, val)

    def checked_format(self, val):
        check(self, val)
        return real_format(self, val)

    monkeypatch.setattr(Scalar, "__init__", checked_init)
    monkeypatch.setattr(FieldSpec, "format_raw", checked_format)
    for stem in Q_STEMS:
        for cmd in REPORT_COMMANDS:
            if "--element" in cmd and stem != "sweedler":
                continue
            argv = cmd + [path_of(golden_dir, stem)]
            if cmd[0] in ("exponent", "hopf-order"):
                argv += ["--cap", "32"]
            code, text = run(argv)
            assert code == 0, (stem, cmd, text)
    assert bad == []
    assert int in made and any(t is not int for t in made)
