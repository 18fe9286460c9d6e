import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from periodica.common import ParseError
from periodica.fields import PRIME_LIMIT, Field, _is_prime
from periodica.formats import (load_algebra, load_chain_map_file,
                               load_complex, load_complex_file,
                               parse_algebra_text, parse_module_expr,
                               complex_to_doc)
from periodica import percomplex
from periodica.percomplex import is_acyclic, stalk_complex
from periodica.quiver import build_algebra
from periodica.rep import Rep
from periodica.cli import main

HERE = os.path.dirname(__file__)
SAMPLES = os.path.join(HERE, "..", "sample_inputs")
GOLDEN = os.path.join(HERE, "golden")


def sample(name):
    return os.path.join(SAMPLES, name)


# -- algebra files -------------------------------------------------------------


def test_parse_a2_file():
    alg = load_algebra(sample("a2.alg"))
    assert alg.dim == 3 and alg.label == "a2"


def test_parse_relation_algebra():
    alg = load_algebra(sample("commsquare.alg"))
    assert alg.dim == 9


def test_parse_prime_field():
    pres = parse_algebra_text(
        "field fp 2\nvertices 1\narrow x: 1 -> 1\nnilpotency 2")
    assert pres.field == Field.gf(2)
    assert build_algebra(pres).dim == 2


def test_python_dash_m_runs_the_cli():
    import periodica
    src = os.path.dirname(os.path.dirname(periodica.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "periodica", "algebra", "show", "--name",
         "kA2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["dimension"] == 3


def test_parse_fraction_coefficients():
    pres = parse_algebra_text(
        "field rationals\nvertices 1\narrow x: 1 -> 1\n"
        "relation 1/2*x*x - x*x*x\nnilpotency 5")
    alg = build_algebra(pres)
    assert alg.dim == 2     # x^2 = 2x^3 = ... collapses to zero


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_algebra_text("field rationals\nvertices 2\narrow ?: 1 -> 2\n"
                           "nilpotency 2")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse_algebra_text("field rationals\nvertices 2\n"
                           "arrow a: 1 -> 2\nrelation b*a\nnilpotency 2")
    assert exc.value.line == 4 and exc.value.col >= 9
    with pytest.raises(ParseError):
        parse_algebra_text("vertices 2\nnilpotency 2")
    with pytest.raises(ParseError) as exc:
        parse_algebra_text("field rationals\nvertices 2\nbogus line here\n")
    assert exc.value.line == 3


def test_parse_errors_without_a_place_carry_none():
    with pytest.raises(ParseError) as exc:
        parse_algebra_text("vertices 2\nnilpotency 2")
    assert (exc.value.line, exc.value.col) == (None, None)
    assert str(exc.value) == "no 'field' line (and PERIODICA_FIELD unset)"


@pytest.mark.parametrize("argv, err", [
    (["period", "algebra", "--name", "N(3,2)", "--bound", "0"],
     "parse error: --bound must be a positive integer, got '0'\n"),
    (["period", "algebra", "--name", "kAx"],
     "parse error: malformed builtin algebra 'kAx': expected 1 integer(s) "
     "in 'x'\n"),
    (["algebra", "show", "--name", "kA2", "--field", "fp 4"],
     "parse error: characteristic must be prime, got 4\n"),
    (["period", "module", "--name", "N(3,3)", "-M", "M(0,1)"],
     "parse error: M(a,l) needs 1 <= a <= 3, got M(0,1)\n"),
    (["period", "module", "--name", "N(3,3)", "-M", "M(1,4)"],
     "parse error: M(1,4): length must be in 1..3\n"),
])
def test_cli_value_errors_name_no_location(capsys, argv, err):
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == err


def test_relation_denominator_vanishing_mod_p():
    cases = [
        ("field fp 2\nvertices 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n"
         "relation 1/2*b*a\nnilpotency 3", (5, 10)),
        ("field rationals\nvertices 1\narrow a1: 1 -> 1\n"
         "relation 1/0*a1\nnilpotency 2", (4, 10)),
        ("field fp 5\nvertices 1\narrow a: 1 -> 1\n"
         "relation a*a - 3/0*a*a*a\nnilpotency 4", (4, 16)),
    ]
    for text, position in cases:
        with pytest.raises(ParseError) as exc:
            parse_algebra_text(text)
        assert (exc.value.line, exc.value.col) == position


def test_large_prime_fields():
    start = time.perf_counter()
    pres = parse_algebra_text("field fp 1000000000000000003\nvertices 1\n"
                              "arrow x: 1 -> 1\nnilpotency 2")
    assert time.perf_counter() - start < 1.0
    assert pres.field == Field.gf(1000000000000000003)
    assert Field.gf(4294967311).p == 4294967311
    # a strong pseudoprime to every prime base below 29, and the bound
    for p in (3825123056546413051, PRIME_LIMIT, PRIME_LIMIT + 2):
        with pytest.raises(ParseError):
            parse_algebra_text(f"field fp {p}\nvertices 1\nnilpotency 2")


def test_is_prime_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert all(_is_prime(p) == trial(p) for p in range(5000))


def test_default_field_env(monkeypatch):
    monkeypatch.setenv("PERIODICA_FIELD", "fp 3")
    pres = parse_algebra_text("vertices 1\narrow x: 1 -> 1\nnilpotency 2")
    assert pres.field == Field.gf(3)


def test_module_expressions(a2, n33):
    assert parse_module_expr(a2, "P(1) + 2*S(2)").dims == (1, 2)
    assert parse_module_expr(a2, "R").dims == (2, 1)
    assert parse_module_expr(a2, "0").is_zero()
    with pytest.raises(ParseError):
        parse_module_expr(a2, "Q(1)")
    with pytest.raises(ParseError):
        parse_module_expr(a2, "P(9)")
    with pytest.raises(ParseError):
        parse_module_expr(a2, "M(1,1)")   # not Nakayama
    # socle vertex in 1..n, length in 1..the Loewy length, as for P(v)
    assert parse_module_expr(n33, "M(3,3)").dims == (1, 1, 1)
    for expr in ("M(1,0)", "M(1,4)", "M(1,5)", "M(0,1)", "M(4,1)", "P(0)"):
        with pytest.raises(ParseError):
            parse_module_expr(n33, expr)
    # with unequal projectives the bound is the length of P(a+l-1)
    cyc = build_algebra(parse_algebra_text(
        "field rationals\nvertices 3\narrow a1: 1 -> 2\narrow a2: 2 -> 3\n"
        "arrow a3: 3 -> 1\nrelation a3*a2*a1\nnilpotency 5"))
    assert cyc.projective_dims == (3, 4, 5)
    assert parse_module_expr(cyc, "M(2,4)").dims == (1, 2, 1)
    with pytest.raises(ParseError):
        parse_module_expr(cyc, "M(1,4)")


@pytest.mark.parametrize("expr, kind, term", [
    ("R(1)", "R", "R(1)"), ("R(1,2)", "R", "R(1,2)"), ("0(5)", "0", "0(5)"),
    ("P(1) + 2*R(3)", "R", "2*R(3)")])
def test_regular_and_zero_take_no_arguments(n33, capsys, expr, kind, term):
    with pytest.raises(ParseError, match="takes no arguments"):
        parse_module_expr(n33, expr)
    code, out = run_cli(["hom", "--name", "N(3,3)", "-M", expr, "-N", "S(1)"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"parse error: {kind} takes no arguments, got {term!r}\n")


# -- complex files -------------------------------------------------------------


def test_load_complex_file_and_validation(tmp_path):
    alg = load_algebra(sample("a2.alg"))
    V = load_complex_file(alg, sample("acyclic.cpx"))
    assert is_acyclic(V)
    # entries that are not scalars, and documents of the wrong shape
    for entry in ("x", "1/0", "1/"):
        with pytest.raises(ParseError, match="not a scalar"):
            load_complex(alg, {"period": 2, "modules": ["P(2)", "P(2)"],
                               "differentials": [None, [[[entry]], None]]})
    for spec in ({"dims": [-1, 1]}, {"dims": ["a", 1]}, {"dims": [True, 1]},
                 {"dims": [1, 1], "arrows": [1]},
                 {"dims": [1, 1], "arrows": 5}):
        with pytest.raises(ParseError):
            load_complex(alg, {"period": 1, "modules": [spec]})
    with pytest.raises(ParseError, match="period"):
        load_complex(alg, {"period": True, "modules": ["P(2)"]})
    listed = tmp_path / "list.cpx"
    listed.write_text("[1, 2]")
    with pytest.raises(ParseError, match="JSON object"):
        load_complex_file(alg, str(listed))
    # a differential or a chain-map component lists exactly one block
    # (matrix or null) per vertex: neither extra entries nor missing ones
    # are read as zero
    for d, msg in (([None], "need one block per vertex \\(2\\), got 1"),
                   ({"1": None}, "need a list of blocks")):
        with pytest.raises(ParseError, match="differential 1: " + msg):
            load_complex(alg, {"period": 2, "modules": ["P(2)", "P(2)"],
                               "differentials": [None, d]})
    ends = {"period": 1, "modules": ["P(1)"]}
    for blocks in ([[["1"]], None, [["7"]], "junk"], [[["1"]]]):
        mp = tmp_path / "blocks.map"
        mp.write_text(json.dumps({"source": ends, "target": ends,
                                  "components": [blocks]}))
        with pytest.raises(ParseError, match="component 0: need one block "
                                             "per vertex"):
            load_chain_map_file(alg, str(mp))
    # breaking d^2 = 0 must be rejected
    doc = {"period": 2, "modules": ["P(2)", "P(2)"],
           "differentials": [[[["1"]], [["1"]]], [[["1"]], [["1"]]]]}
    with pytest.raises(ParseError):
        load_complex(alg, doc)
    # malformed shapes rejected
    with pytest.raises(ParseError):
        load_complex(alg, {"period": 2, "modules": ["P(2)"],
                           "differentials": [None, None]})
    # a non-module map rejected
    doc2 = {"period": 2, "modules": ["P(2)", "P(2)"],
            "differentials": [None, [[["1"]], [["0"]]]]}
    with pytest.raises(ParseError):
        load_complex(alg, doc2)


def test_complex_roundtrip(a2):
    V = stalk_complex(Rep.projective(a2, 2), 2, 1)
    doc = complex_to_doc(V)
    W = load_complex(a2, doc)
    assert W.dim_vector() == V.dim_vector()


# -- CLI ------------------------------------------------------------------------


def run_cli(args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(args)
        except SystemExit as exc:       # argparse: --help and bad argv
            code = exc.code
    return code, buf.getvalue()


def test_cli_algebra_show():
    code, out = run_cli(["algebra", "show", "--algebra", sample("a2.alg")])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dimension"] == 3
    assert "input_hashes" in doc


def test_cli_cohomology_and_exit_codes(tmp_path):
    code, out = run_cli(["complex", "cohomology",
                         "--algebra", sample("a2.alg"),
                         "--complex", sample("acyclic.cpx")])
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [0, 0]
    bad = tmp_path / "bad.alg"
    bad.write_text("field rationals\nvertices 2\narrow ?: 1 -> 2\n")
    code, _ = run_cli(["algebra", "show", "--algebra", str(bad)])
    assert code == 2
    code, _ = run_cli(["derived-hom", "--name", "dual",
                       "-M", "S(1)", "-N", "S(1)", "--m", "2"])
    assert code == 3          # infinite global dimension: precondition
    code, _ = run_cli(["period", "algebra", "--name", "N(3,2)",
                       "--bound", "2"])
    assert code == 4          # bound too small: truncated, inconclusive
    code, _ = run_cli(["hochschild", "formality", "--name", "dual",
                       "--m", "2", "--qmax", "8"])
    assert code == 5          # honest FAIL verdict


def test_cli_shift_and_cone(tmp_path):
    code, out = run_cli(["complex", "shift",
                         "--algebra", sample("a2.alg"),
                         "--complex", sample("acyclic.cpx"), "--by", "1"])
    assert code == 0
    shifted = json.loads(out)["result"]["shifted"]
    assert shifted["period"] == 2
    mapdoc = {
        "source": {"period": 2, "modules": ["P(1)", "0"],
                   "differentials": [None, None]},
        "target": {"period": 2, "modules": ["P(2)", "0"],
                   "differentials": [None, None]},
        "components": [[[["1"]], [[]]], None],
    }
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(mapdoc))
    code, out = run_cli(["complex", "cone", "--algebra", sample("a2.alg"),
                         "--map", str(mp)])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["identities_verified"]
    assert doc["result"]["cohomology"] == [[0, 1], [0, 0]]


def test_cli_cone_map_component_not_a_module_map(tmp_path, capsys):
    # (1, 0) on P(2) = (k -> k) does not commute with the arrow: the input
    # file is at fault, not the cone built from it
    ends = {"period": 2, "modules": ["P(2)", "0"]}
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"source": ends, "target": ends,
                              "components": [[[[1]], [[0]]], None]}))
    code, out = run_cli(["complex", "cone", "--algebra", sample("a2.alg"),
                         "--map", str(mp)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == "parse error: component 0 is not a module map\n"


def test_cli_hom_and_derived():
    code, out = run_cli(["hom", "--algebra", sample("a2.alg"),
                         "-M", "R", "-N", "S(1)"])
    assert code == 0
    assert json.loads(out)["result"]["dim"] == 1
    code, out = run_cli(["derived-hom", "--algebra", sample("a2.alg"),
                         "-M", "S(2)", "-N", "S(1)", "--m", "2",
                         "--prange", "0..3"])
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [r["dim"] for r in rows] == [0, 1, 0, 1]
    code, out = run_cli(["ext-sum-check", "--algebra", sample("a2.alg"),
                         "-M", "S(2)", "-N", "S(1)", "--m", "2"])
    assert code == 0


def test_cli_derived_hom_builds_one_hom_complex(monkeypatch):
    # every degree of --prange reads the one Hom complex of the command
    built = []
    original = percomplex.PeriodicHomComplex.__init__

    def counted(self, X, Y):
        built.append(1)
        original(self, X, Y)
    monkeypatch.setattr(percomplex.PeriodicHomComplex, "__init__", counted)
    for prange, dims in (("1..1", [1]), ("0..5", [0, 1, 0, 1, 0, 1])):
        built.clear()
        code, out = run_cli(["derived-hom", "--algebra", sample("a2.alg"),
                             "-M", "S(2)", "-N", "S(1)", "--m", "2",
                             "--prange", prange])
        assert code == 0 and len(built) == 1
        assert [r["dim"] for r in json.loads(out)["result"]["rows"]] == dims


def test_cli_hochschild_table():
    code, out = run_cli(["hochschild", "table", "--algebra", sample("a2.alg"),
                         "--m", "2", "--pmax", "4", "--qrange=-6..6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["vanishing_ok"]
    provs = {c["provenance"] for c in doc["result"]["cells"]}
    assert "computed" in provs
    assert any("vanishes" in p for p in provs)


def test_cli_tilting_stable():
    code, out = run_cli(["tilting", "stable", "--name", "N(3,3)",
                         "-T", "M(1,1)", "-T", "M(1,2)", "--m", "2",
                         "--end-target", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["pass"]
    assert doc["result"]["stable_end"]["iso_found"]


def test_cli_end_algebra_reuses_the_closure_stable_homs(monkeypatch):
    # the end algebra reads the Hom spaces the closure built between the
    # same part objects: it builds none of its own
    import periodica.cli as cli
    import periodica.stablecat as sc
    built, at_closure_end = [], []
    real_init = sc.StableHom.__init__
    real_check = cli.check_periodic_tilting_stable

    def init(self, *args):
        built.append(args)
        real_init(self, *args)

    def check(*args, **kwargs):
        body = real_check(*args, **kwargs)
        at_closure_end.append(len(built))
        return body
    monkeypatch.setattr(sc.StableHom, "__init__", init)
    monkeypatch.setattr(cli, "check_periodic_tilting_stable", check)
    code, out = run_cli(["tilting", "stable", "--name", "N(4,4)",
                         "-T", "M(1,1)", "-T", "M(1,2)", "-T", "M(1,3)",
                         "--m", "2", "--end-target", "3"])
    assert code == 0 and json.loads(out)["result"]["stable_end"]["iso_found"]
    assert at_closure_end == [len(built)] and built


def test_cli_markdown_output():
    code, out = run_cli(["reproduce", "ex5.6", "--n", "2", "--m", "2",
                         "--format", "markdown"])
    assert code == 0
    assert out.startswith("# reproduce ex5.6")
    assert "computed_period" in out


def test_cli_determinism():
    args = ["reproduce", "prop3.25", "--name", "kA2", "--m", "2",
            "--seed", "7", "--count", "5"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2


GOLDEN_CASES = {
    "ex5_6_n1_m2_f2.json": ["reproduce", "ex5.6", "--n", "1", "--m", "2",
                            "--field", "fp 2"],
    "ex5_8_n3.json": ["reproduce", "ex5.8", "--n", "3"],
    "ex5_9.json": ["reproduce", "ex5.9"],
    "lemma4_1_ka2_m2.json": ["reproduce", "lemma4.1", "--name", "kA2",
                             "--m", "2"],
    "prop3_10_seed7.json": ["reproduce", "prop3.10", "--name", "kA2",
                            "--m", "2", "--seed", "7", "--pairs", "10"],
    "prop3_25_seed7.json": ["reproduce", "prop3.25", "--name", "kA2",
                            "--m", "2", "--seed", "7", "--count", "10"],
}


@pytest.mark.usefixtures("normal_form_scalars")
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name):
    code, out = run_cli(GOLDEN_CASES[name])
    assert code == 0
    path = os.path.join(GOLDEN, name)
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == out


# Not in GOLDEN_CASES (whose copy perfbench replays): the only goldens with
# non-integral rationals, pinning how a Q scalar prints whether it is an int
# or a Fraction.
RATIONAL_GOLDENS = {
    "ratsquare_show.json": ["algebra", "show",
                            "--algebra", sample("ratsquare.alg")],
    "ratsquare_hom_p4_i1.json": ["hom", "--algebra", sample("ratsquare.alg"),
                                 "-M", "P(4)", "-N", "I(1)", "--basis"],
}


@pytest.mark.parametrize("name", sorted(RATIONAL_GOLDENS))
def test_rational_coefficient_goldens(name):
    code, out = run_cli(RATIONAL_GOLDENS[name])
    assert code == 0
    assert '"2/3"' in out or '"3/2"' in out
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        assert fh.read() == out


# Not in GOLDEN_CASES either: the periods whose isomorphism tests reach
# iso_q's Krull-Schmidt branch.  No basis element of End(S(1) + S(1)) (the
# matrix units) is invertible, and the regular bimodule of twoblocks.alg
# splits into its two blocks.
KRULL_SCHMIDT_GOLDENS = {
    "period_module_n33_2s1.json": ["period", "module", "--name", "N(3,3)",
                                   "--module", "2*S(1)"],
    "period_algebra_twoblocks.json": ["period", "algebra", "--algebra",
                                      sample("twoblocks.alg")],
}


@pytest.mark.parametrize("name", sorted(KRULL_SCHMIDT_GOLDENS))
def test_krull_schmidt_period_goldens(name):
    code, out = run_cli(KRULL_SCHMIDT_GOLDENS[name])
    assert code == 0
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        assert fh.read() == out


# Not in GOLDEN_CASES either: a tilting closure over Q (the stable closure
# goldens elsewhere are over GF(p)), the l | n row of M(1,1) + M(1,2) over
# N(6,3), whose shifts and cones run through the duality D over A^op.
Q_CLOSURE_GOLDENS = {
    "tilting_stable_n63_m4.json": ["tilting", "stable", "--name", "N(6,3)",
                                   "-T", "M(1,1)+M(1,2)", "--m", "4"],
}


@pytest.mark.usefixtures("normal_form_scalars")
@pytest.mark.parametrize("name", sorted(Q_CLOSURE_GOLDENS))
def test_q_closure_goldens(name):
    code, out = run_cli(Q_CLOSURE_GOLDENS[name])
    assert code == 0
    assert json.loads(out)["result"]["closure_size"] == 12
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        assert fh.read() == out


# Not in GOLDEN_CASES either: the derived verbs over commsquare.alg (gd 2),
# Hom out of the source's replacement into the target as it stands.
DERIVED_GOLDENS = {
    "derived_hom_commsquare_s4_i4_m3.json": [
        "derived-hom", "--algebra", sample("commsquare.alg"), "-M", "S(4)",
        "-N", "I(4)", "--m", "3", "--prange", "0..5"],
    "ext_sum_commsquare_s4_s1_m3.json": [
        "ext-sum-check", "--algebra", sample("commsquare.alg"), "-M", "S(4)",
        "-N", "S(1)", "--m", "3"],
}


@pytest.mark.parametrize("name", sorted(DERIVED_GOLDENS))
def test_derived_goldens(name):
    code, out = run_cli(DERIVED_GOLDENS[name])
    assert code == 0
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        assert fh.read() == out


# Not in GOLDEN_CASES either (perfbench replays that table as it stands): a
# bimodule period through an A^e of 16 vertices over Q; the GF(2) ex5.6
# golden has n = 1, so its A^e has one vertex.
ENVELOPE_GOLDENS = {
    "ex5_6_n4_m3.json": ["reproduce", "ex5.6", "--n", "4", "--m", "3"],
}


@pytest.mark.usefixtures("normal_form_scalars")
@pytest.mark.parametrize("name", sorted(ENVELOPE_GOLDENS))
def test_envelope_goldens(name):
    code, out = run_cli(ENVELOPE_GOLDENS[name])
    assert code == 0
    assert json.loads(out)["result"]["computed_period"] == 8
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        assert fh.read() == out


def test_markdown_report_golden():
    # the markdown renderer, tables included, on the graded Hochschild cells
    code, out = run_cli(["hochschild", "table", "--algebra", sample("a2.alg"),
                         "--m", "2", "--pmax", "4", "--qrange", "-6..6",
                         "--format", "markdown"])
    assert code == 0
    path = os.path.join(GOLDEN, "hochschild_table_a2_m2.md")
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == out


def test_ci_compares_every_cli_golden():
    # the installed package must reproduce each golden this file checks:
    # the CI step that runs it outside the checkout cmps every one
    with open(__file__, "r", encoding="utf-8") as fh:
        names = set(re.findall(r'"([\w.]+\.(?:json|md))"', fh.read()))
    names &= set(os.listdir(GOLDEN))
    workflow = os.path.join(HERE, "..", ".github", "workflows", "tests.yml")
    with open(workflow, "r", encoding="utf-8") as fh:
        ci = fh.read()
    assert len(names) >= 15
    assert [n for n in sorted(names) if f'cmp {n} "$GITHUB_WORKSPACE/'
            f'tests/golden/{n}"' not in ci] == []


def test_console_entry_point():
    # the child imports the same periodica as this process, however pytest
    # put it on sys.path (PYTHONPATH or the pyproject `pythonpath`)
    import periodica
    src = os.path.dirname(os.path.dirname(periodica.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "periodica.cli", "reproduce", "ex5.6",
         "--n", "1", "--m", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["pass"]


def test_cli_tilting_over_a_large_prime_returns():
    # decompose used to scan all of GF(4294967311) for eigenvalues here and
    # never returned; over Q the same candidate fails at once
    import periodica
    src = os.path.dirname(os.path.dirname(periodica.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "periodica", "tilting", "stable", "--name",
         "N(2,4)", "-T", "M(1,3)", "--m", "2", "--field", "fp 4294967311"],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 5
    assert json.loads(proc.stdout)["result"]["pass"] is False


@pytest.mark.parametrize("seed", [0, 4])
def test_cli_prop3_25_at_period_one(seed):
    # peeling an m = 1 complex used to give the kept cocycles a differential
    # ending at the old component: "differential 0 has wrong ends"
    code, out = run_cli(["reproduce", "prop3.25", "--name", "kA2", "--m",
                         "1", "--seed", str(seed)])
    assert code == 0
    assert json.loads(out)["result"]["pass"] is True


def test_cli_module_period_reaches_a_large_bound():
    # syzygies of a module without projective summands are never
    # re-decomposed, so a long non-periodic run stays cheap
    import periodica
    src = os.path.dirname(os.path.dirname(periodica.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "periodica", "period", "module", "--algebra",
         sample("exterior2.alg"), "--module", "S(1)", "--bound", "24"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["result"]["period"] == ">= 24"


def test_cli_cohomology_alias_with_embedded_algebra():
    code, out = run_cli(["cohomology", "--complex", sample("v.cpx")])
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [0, 0]


# `complex cohomology` reports as printed by the module-building route
_NZ_CPX = ('{"period": 3, "modules": ["P(1)", "P(2)", "S(1) + P(2)"], '
           '"differentials": [[[["1"]], [[]]], null, null]}\n')
_A2_HASH = "6c30b2d92981dfcf8c7b1efc41ab722c2cf48b4eba41b8b9f0db8e8518835678"
_COHOM_MD = """\
# complex cohomology

## parameters
- **verb**: cohomology

## result
- **dims**: {dims}
- **dim_vectors**: {vectors}

## metadata
### input_hashes
{hashes}
- **schema**: periodica-report/1
"""
_COHOM_BYTES = {
    "v": _COHOM_MD.format(
        dims="[0, 0]", vectors="[[0, 0], [0, 0]]",
        hashes="- **v.cpx**: 05126e299f5e8485b271ecb6a90584eab2e79d52cab9ea0f"
               "5722e7bfade7a2f8"),
    "acyclic": _COHOM_MD.format(
        dims="[0, 0]", vectors="[[0, 0], [0, 0]]",
        hashes=f"- **a2.alg**: {_A2_HASH}\n- **acyclic.cpx**: "
               "c486c950debcd7874f5c277296361e4e3ceaa8bde392e572f508105c882b6001"),
    "nz": _COHOM_MD.format(
        dims="[0, 1, 3]", vectors="[[0, 0], [0, 1], [2, 1]]",
        hashes=f"- **a2.alg**: {_A2_HASH}\n- **nz.cpx**: "
               "b1c540467a700b2ef3ba086e5235f7bddde95f2256a754e394d63751526d599e"),
}
_NZ_JSON = """\
{
 "command": "complex cohomology",
 "input_hashes": {
  "a2.alg": "%s",
  "nz.cpx": "b1c540467a700b2ef3ba086e5235f7bddde95f2256a754e394d63751526d599e"
 },
 "params": {
  "verb": "cohomology"
 },
 "result": {
  "dim_vectors": [
   [
    0,
    0
   ],
   [
    0,
    1
   ],
   [
    2,
    1
   ]
  ],
  "dims": [
   0,
   1,
   3
  ]
 },
 "schema": "periodica-report/1"
}
""" % _A2_HASH


def test_cli_cohomology_bytes_unchanged(tmp_path):
    nz = tmp_path / "nz.cpx"
    nz.write_text(_NZ_CPX)
    args = {"v": ["--complex", sample("v.cpx")],
            "acyclic": ["--algebra", sample("a2.alg"),
                        "--complex", sample("acyclic.cpx")],
            "nz": ["--algebra", sample("a2.alg"), "--complex", str(nz)]}
    for name, rest in args.items():
        code, out = run_cli(["complex", "cohomology", *rest,
                             "--format", "markdown"])
        assert code == 0 and out == _COHOM_BYTES[name], name
    code, out = run_cli(["complex", "cohomology", *args["nz"]])
    assert code == 0 and out == _NZ_JSON


def test_cli_bound_env(monkeypatch):
    monkeypatch.setenv("PERIODICA_BOUND", "2")
    code, _ = run_cli(["period", "algebra", "--name", "N(3,2)"])
    assert code == 4      # default bound from the environment: truncated


@pytest.mark.parametrize("argv, projdim", [
    (["--name", "kA2"], 1), (["--name", "kA4"], 1), (["--name", "k^1"], 0),
    (["--algebra", sample("commsquare.alg")], 2),
])
def test_cli_non_periodic_algebra_is_a_definite_verdict(argv, projdim):
    code, out = run_cli(["period", "algebra", "--bound", "64"] + argv)
    assert code == 5
    result = json.loads(out)["result"]
    assert result == {"period": None, "exact": True,
                      "projective_dimension": projdim}


@pytest.mark.parametrize("argv, env", [
    (["period", "algebra", "--name", "N(3,2)", "--bound", "0"], None),
    (["period", "algebra", "--name", "N(3,2)", "--bound", "-5"], None),
    (["hochschild", "smooth-dim", "--name", "kA2", "--bound", "0"], None),
    (["period", "algebra", "--name", "N(3,2)"], "abc"),
    (["period", "algebra", "--name", "N(3,2)"], "0"),
    (["reproduce", "ex5.6", "--n", "1", "--m", "0"], None),
    (["reproduce", "lemma4.1", "--name", "kA2", "--m", "0"], None),
    (["reproduce", "prop3.10", "--name", "kA2", "--m", "0"], None),
    (["reproduce", "prop3.25", "--name", "kA2", "--m", "-1"], None),
    (["reproduce", "prop3.10", "--name", "kA2", "--pairs", "-1"], None),
    (["reproduce", "prop3.25", "--name", "kA2", "--count", "0"], None),
    (["tilting", "stable", "--name", "N(3,3)", "-T", "M(1,1)", "--m", "2",
      "--budget", "0"], None),
    (["tilting", "stable", "--name", "N(3,3)", "-T", "M(1,1)", "--m", "2",
      "--budget", "-2"], None),
    (["tilting", "stable", "--name", "N(3,3)", "-T", "M(1,1)", "--m", "2",
      "--end-target", "0"], None),
    (["tilting", "stable", "--name", "N(3,3)", "-T", "M(1,1)", "--m", "2",
      "--end-target", "-1"], None),
])
def test_cli_rejects_bad_bounds(monkeypatch, capsys, argv, env):
    if env is not None:
        monkeypatch.setenv("PERIODICA_BOUND", env)
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1


_A2 = ["--algebra", sample("a2.alg")]


@pytest.mark.parametrize("argv", [
    ["algebra", "show"] + _A2,
    ["complex", "cohomology", "--complex", sample("v.cpx")],
    ["complex", "cone", "--map", sample("acyclic_id.map")] + _A2,
    ["complex", "shift", "--complex", sample("acyclic.cpx"), "--by", "1"] + _A2,
    ["cohomology", "--complex", sample("v.cpx")],
    ["hom", "-M", "P(2)", "-N", "S(2)"] + _A2,
    ["derived-hom", "-M", "S(2)", "-N", "S(1)", "--m", "2"] + _A2,
    ["ext-sum-check", "-M", "S(2)", "-N", "S(1)", "--m", "2"] + _A2,
    ["hochschild", "table", "--m", "2", "--pmax", "2"] + _A2,
    ["hochschild", "formality", "--name", "dual", "--m", "2"],
    ["hochschild", "smooth-dim", "--name", "kA3"],
])
def test_cli_seed_only_where_the_report_prints_it(capsys, argv):
    # these reports print no seed and nothing they run draws from one
    code, out = run_cli(argv + ["--seed", "3"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == "parse error: unrecognized arguments: --seed 3\n"


_DERIVED_HOM_A2 = ["derived-hom", "--algebra", sample("a2.alg"), "-M", "S(2)",
                   "-N", "S(1)", "--m", "2"]
_HH_TABLE_A2 = ["hochschild", "table", "--algebra", sample("a2.alg"),
                "--m", "2"]


@pytest.mark.parametrize("argv, where", [
    (_DERIVED_HOM_A2 + ["--prange", "x..2"], "--prange"),
    (_DERIVED_HOM_A2 + ["--prange", "1..2..3"], "--prange"),
    (_DERIVED_HOM_A2 + ["--prange", "3"], "--prange"),
    (_DERIVED_HOM_A2 + ["--prange", "3..1"], "--prange"),
    (_HH_TABLE_A2 + ["--pmax", "4", "--qrange", "6..-6"], "--qrange"),
    (_HH_TABLE_A2 + ["--pmax", "4", "--qrange", "1.5..2"], "--qrange"),
    (_HH_TABLE_A2 + ["--pmax", "-1", "--qrange", "-6..6"], "--pmax"),
    (_DERIVED_HOM_A2 + ["--prange", ""], "--prange"),
    (_HH_TABLE_A2 + ["--pmax", "4", "--qrange", ""], "--qrange"),
])
def test_cli_rejects_bad_ranges(capsys, argv, where):
    # a malformed, non-integer or empty range was an internal error, a
    # precondition violation or an empty (vacuously passing) report
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {where} must be")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, code", [
    ("N(2,2)", 4), ("dual", 4), ("kA3", 0),
])
def test_cli_smooth_dim_exits_4_when_truncated(name, code):
    got, out = run_cli(["hochschild", "smooth-dim", "--name", name])
    assert got == code
    result = json.loads(out)["result"]
    assert str(result["smooth_dimension"]).startswith(">=") == (code == 4)


@pytest.mark.parametrize("argv", [
    ["derived-hom", "--algebra", sample("a2.alg"), "-M", "S(2)", "-N", "S(1)",
     "--m", "0"],
    ["derived-hom", "--algebra", sample("a2.alg"), "-M", "S(2)", "-N", "S(1)",
     "--m", "-1"],
    ["ext-sum-check", "--algebra", sample("a2.alg"), "-M", "S(2)",
     "-N", "S(1)", "--m", "0"],
    ["tilting", "stalk", "--name", "kA2", "--m", "0"],
    ["tilting", "stable", "--name", "N(3,3)", "-T", "M(1,1)", "--m", "0"],
    ["tilting", "stable", "--name", "N(3,3)", "-T", "M(1,1)", "--m", "-1"],
])
def test_cli_derived_rejects_nonpositive_period(capsys, argv):
    code, out = run_cli(argv)
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: period must be >= 1")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["derived-hom", "--name", "kA2", "-M", "S(1)", "-N", "S(2)", "--m", "abc"],
    ["derived-hom", "--name", "kA2", "-M", "S(1)", "-N", "S(2)"],
    ["tilting", "stable", "--name", "N(3,3)", "--m", "2"],
    ["nonsense"],
    ["algebra", "show", "--name", "kAx"],
    ["algebra", "show", "--name", "N(2)"],
    ["algebra", "show", "--name", "N(a,b)"],
    ["algebra", "show", "--name", "N(2,3,4)"],
    ["period", "algebra", "--name", "k^x"],
    ["derived-hom", "--name", "kA2", "-M", "S(1)", "-N", "S(2)", "--m", "2",
     "--p", "3", "--prange", "0..1"],
    ["derived-hom", "--name", "kA2", "-M", "S(1)", "-N", "S(2)", "--m", "2",
     "--p", "0", "--prange", "0..1"],
])
def test_cli_argparse_rejection_is_one_line(capsys, argv):
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert "usage:" not in err and "Traceback" not in err


def test_cli_help_still_prints_usage():
    code, out = run_cli(["tilting", "stable", "--help"])
    assert code == 0 and out.startswith("usage:")


def test_cli_tilting_stable_budget_exhausted_is_inconclusive(capsys):
    code, out = run_cli(["tilting", "stable", "--name", "N(3,3)",
                         "-T", "M(1,1)", "-T", "M(1,2)", "--m", "2",
                         "--budget", "1"])
    assert code == 4
    result = json.loads(out)["result"]
    assert result["budget_exhausted"]
    assert result["pass"] is None and result["generation_ok"] is None
    err = capsys.readouterr().err
    assert err.startswith("inconclusive:") and err.count("\n") == 1
    assert "usage:" not in err and "Traceback" not in err


def test_cli_tilting_stable_exhausted_budget_verdicts():
    # the closure only holds objects of thick(T): an exhausted budget leaves
    # the verdict open only while rigidity and periodicity hold and a target
    # is still missing
    S14 = ["-T", "S(1)", "-T", "S(4)"]
    for argv, code in (
            # rigidity and periodicity fail: false however the closure ends
            (["--algebra", sample("exterior2.alg"), "-T", "S(1)", "--m", "2",
              "--budget", "6"], 5),
            (["--algebra", sample("twoblocks.alg")] + S14
             + ["--m", "3", "--budget", "2"], 5),
            # both hold, simples of covered blocks missing: inconclusive
            (["--algebra", sample("twoblocks.alg")] + S14
             + ["--m", "2", "--budget", "2"], 4),
            # the closure reached all six indecomposables of N(3,3)
            (["--name", "N(3,3)", "-T", "M(1,1)", "-T", "M(1,2)", "--m", "2",
              "--budget", "5"], 0)):
        got, out = run_cli(["tilting", "stable"] + argv)
        result = json.loads(out)["result"]
        assert got == code and result["budget_exhausted"]
        assert result["pass"] is {0: True, 4: None, 5: False}[code]


def test_cli_tilting_stable_misses_an_uncovered_block():
    # N(3,3) and N(2,2) side by side: no stable map crosses the blocks, so a
    # summand in one block cannot generate the simples of the other, however
    # small the budget
    for T, missing, budget in (("S(4)", [1, 2, 3], "64"),
                               ("S(1)", [2, 3, 4, 5], "64"),
                               ("S(4)", [1, 2, 3], "1")):
        code, out = run_cli(["tilting", "stable", "--algebra",
                             sample("twoblocks.alg"), "-T", T, "--m", "2",
                             "--budget", budget])
        assert code == 5
        result = json.loads(out)["result"]
        assert result["pass"] is False and result["generation_ok"] is False
        assert result["missing_simples"] == missing
        assert result["budget_exhausted"] == (budget == "1")


def test_cli_tilting_stable_missing_simples_of_covered_blocks(capsys):
    # thick(S(1)) in stmod N(3,3) holds S(1) and its suspension only, but a
    # closure of basis cones cannot tell that from a short search
    code, out = run_cli(["tilting", "stable", "--algebra",
                         sample("twoblocks.alg"), "-T", "S(1)", "-T", "S(4)",
                         "--m", "2"])
    assert code == 4
    result = json.loads(out)["result"]
    assert not result["budget_exhausted"]
    assert result["pass"] is None and result["generation_ok"] is None
    assert result["missing_simples"] == [2, 3]
    err = capsys.readouterr().err
    assert err.startswith("inconclusive:") and err.count("\n") == 1
    assert "S(2), S(3)" in err


def test_cli_internal_error_is_one_line(monkeypatch, capsys):
    import periodica.cli as cli

    def boom(args):
        raise RuntimeError("unexpected\nstate")
    monkeypatch.setattr(cli, "cmd_algebra_show", boom)
    code, out = run_cli(["algebra", "show", "--name", "kA2"])
    assert code == cli.EXIT_INTERNAL == 6 and out == ""
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: unexpected state\n"
    assert "Traceback" not in err


_A2_DOC = '"algebra": "a2.alg", "period": 2, "modules": ["P(2)", "P(2)"]'
_MAP_ENDS = ('"source": {"period": 1, "modules": ["P(1)"]}, '
             '"target": {"period": 1, "modules": ["P(1)"]}')


MALFORMED_FILES = [
    ("zero.alg", "field rationals\nvertices 1\narrow a1: 1 -> 1\n"
     "relation 1/0*a1\nnilpotency 2\n", ["algebra", "show", "--algebra"]),
    ("x.cpx", "{%s, \"differentials\": [null, [[[\"x\"]], [[\"1\"]]]]}"
     % _A2_DOC, ["cohomology", "--complex"]),
    ("zero.cpx", "{%s, \"differentials\": [null, [[[\"1/0\"]], [[\"1\"]]]]}"
     % _A2_DOC, ["cohomology", "--complex"]),
    ("list.cpx", "[1, 2]", ["cohomology", "--complex"]),
    ("list.map", "[1, 2]", ["complex", "cone", "--name", "kA2", "--map"]),
    ("component.map", "{%s, \"components\": [5]}" % _MAP_ENDS,
     ["complex", "cone", "--name", "kA2", "--map"]),
]


@pytest.mark.parametrize("filename, text, argv", MALFORMED_FILES,
                         ids=[case[0] for case in MALFORMED_FILES])
def test_cli_malformed_file_is_one_parse_error(tmp_path, capsys, filename,
                                               text, argv):
    shutil.copy(sample("a2.alg"), tmp_path)
    path = tmp_path / filename
    path.write_text(text)
    code, out = run_cli(argv + [str(path)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1


UNREADABLE_INPUTS = {
    "algebra": ["algebra", "show", "--algebra", "{missing}"],
    "complex": ["cohomology", "--complex", "{missing}"],
    "map": ["complex", "cone", "--name", "kA2", "--map", "{missing}"],
    "embedded": ["cohomology", "--complex", "{embeds}"],
    "not-utf8": ["algebra", "show", "--algebra", "{binary}"],
}


@pytest.mark.parametrize("argv", UNREADABLE_INPUTS.values(),
                         ids=UNREADABLE_INPUTS.keys())
def test_cli_unreadable_input_is_one_parse_error(tmp_path, capsys, argv):
    paths = {"missing": str(tmp_path / "nope.alg"),
             "embeds": str(tmp_path / "embeds.cpx"),
             "binary": str(tmp_path / "binary.alg")}
    (tmp_path / "embeds.cpx").write_text(
        '{"algebra": "nope.alg", "period": 1, "modules": ["P(1)"]}')
    (tmp_path / "binary.alg").write_bytes(b"field rationals\n\xff\xfe\n")
    code, out = run_cli([a.format(**paths) for a in argv])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert "cannot read" in err and ("nope.alg" in err or "binary.alg" in err)


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_cli_unwritable_out_is_one_parse_error(tmp_path, capsys, where):
    out_path = str(tmp_path / "nope" / "x.json" if where == "missing-dir"
                   else tmp_path)
    code, out = run_cli(["hom", "--name", "kA2", "-M", "S(1)", "-N", "S(2)",
                         "--out", out_path])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: cannot write {out_path}: ")
    assert err.count("\n") == 1


def test_cli_relation_denominator_exit_code(tmp_path, capsys):
    bad = tmp_path / "half.alg"
    bad.write_text("field fp 2\nvertices 1\narrow a: 1 -> 1\n"
                   "arrow b: 1 -> 1\nrelation 1/2*b*a\nnilpotency 3\n")
    code, _ = run_cli(["algebra", "show", "--algebra", str(bad)])
    assert code == 2
    assert "line 5, column 10" in capsys.readouterr().err


def test_cli_parser_built_once_keeps_no_state_between_calls(capsys):
    # main parses with one parser per process; a run of different
    # subcommands, -T repeated or given once, defaults and rejections,
    # prints what each call prints on a parser of its own
    from periodica import cli
    runs = [
        ["tilting", "stable", "--name", "N(3,3)", "-T", "M(1,1)",
         "-T", "M(1,2)", "--m", "2"],
        ["algebra", "show", "--algebra", sample("a2.alg")],
        ["tilting", "stable", "--name", "N(3,3)", "-T", "M(1,1)", "--m", "2",
         "--budget", "3"],
        ["period", "module", "--name", "N(3,3)", "--module", "S(1)"],
        ["tilting", "stable", "--name", "N(3,3)", "--m", "2"],
        ["tilting", "stable", "--name", "N(2,2)", "-T", "S(1)", "--m", "1",
         "--seed", "3"],
    ]

    def outputs(fresh):
        got = []
        for argv in runs:
            if fresh:
                cli._parser.cache_clear()
            code, out = run_cli(argv)
            got.append((code, out, capsys.readouterr().err))
        return got
    shared = outputs(False)
    assert cli._parser() is cli._parser()
    assert [code for code, _, _ in shared] == [0, 0, 5, 0, 2, 5]
    assert shared == outputs(True)
