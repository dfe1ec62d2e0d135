"""Command line interface: configs, analyses, exit codes, determinism."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import foldlab
import foldlab.cli as cli
from foldlab.folding import equivalence_classes
from foldlab.intlat import CoinvariantLattice, IntMatrix
from foldlab.matrixlab import CountReport
from foldlab import presets
from foldlab.presets import load_preset, preset_names
from foldlab.rootdata import CartanType, WeylGroup


def write(tmp_path, text, name="job.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_fold_preset(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n\n[run]\nanalyses = fold\n")
    assert cli.main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "[fold]" in out
    assert "II" in out


def test_all_analyses_with_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    cfg = write(
        tmp_path,
        "[datum]\npreset = A2-sc-flip\n\n[base]\nprimes = all\n\n"
        "[run]\nanalyses = all\nq = 2\np = 2\n",
    )
    assert cli.main(["run", cfg, "--json", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"input", "fold", "criteria", "chevalley", "count", "tangent"}
    assert doc["count"]["agree"] is True
    assert doc["count"]["brute"] == 6
    assert doc["criteria"]["smooth"] is False
    assert doc["tangent"]["dim"] == 5
    assert doc["fold"]["fixed_weyl_order"] == 2


def test_json_byte_deterministic(tmp_path):
    cfg = write(
        tmp_path,
        "[datum]\npreset = A4-sc-flip\n\n[run]\nanalyses = fold, criteria\n",
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["run", cfg, "--json", str(a)]) == 0
    assert cli.main(["run", cfg, "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_explicit_datum_and_action(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "[datum]\ntype = A2\nisogeny = sc\n\n[action]\nbasis_permutation = 1,0\n\n"
        "[run]\nanalyses = fold\n",
    )
    assert cli.main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert '"II"' in out or "II" in out


def test_matrices_action(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "[datum]\ntype = torus\nrank = 1\n\n[action]\nmatrices = [[-1]]\n\n"
        "[base]\nprimes = 3\n\n[run]\nanalyses = criteria\n",
    )
    assert cli.main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "geometrically_connected = false" in out
    assert "smooth = true" in out


def test_order_8_torus_fold(tmp_path):
    # the 8-cycle conjugated by a unimodular matrix; its inverse and Smith
    # forms once grew without bound, so fold ran with no end
    cfg = write(
        tmp_path,
        "[datum]\ntype = torus\nrank = 8\n\n[action]\nmatrices = [[[-1,13,-22,10,9,-19,4,-3],"
        "[1,6,-8,4,4,-9,2,2],[1,-13,22,-10,-9,19,-4,4],[-6,-3,7,-5,-5,9,-1,1],"
        "[21,-33,58,-21,-17,37,-9,13],[7,1,2,1,2,-5,1,4],[4,3,-3,2,3,-7,1,1],"
        "[-2,3,-4,1,1,-3,1,-1]]]\n",
    )
    out_path = tmp_path / "fold.json"
    assert cli.main(["run", cfg, "--analysis", "fold", "--json", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["input"]["action_order"] == 8
    assert doc["fold"]["coinvariants"] == "Z"
    assert doc["fold"]["center"] == "Z"


def test_analysis_flag_overrides_config(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\npreset = A3-sc-flip\n\n[run]\nanalyses = fold\n")
    # the flag replaces the config list; tangent needs an even-rank type A flip
    assert cli.main(["run", cfg, "--analysis", "tangent", "--p", "3"]) == 3
    assert capsys.readouterr().err


def test_count_analysis(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n\n[run]\nanalyses = count\n")
    assert cli.main(["run", cfg, "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "brute = 24" in out
    assert "predicted = 24" in out


def test_missing_config_file(capsys):
    assert cli.main(["run", "/nonexistent/job.ini"]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--json="], ["--json", ""], ["--json", "{missing}"]])
def test_unwritable_json_path_exits_2(tmp_path, capsys, flags):
    # an empty path names no file, so it fails like a path into a missing directory
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n")
    missing = str(tmp_path / "no-such-dir" / "report.json")
    flags = [f.format(missing=missing) for f in flags]
    assert cli.main(["run", cfg, "--analysis", "fold", *flags]) == 2
    path = flags[-1].removeprefix("--json=")
    assert capsys.readouterr().err.startswith(f"cannot write {path}: ")


def test_bad_section(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n\n[mystery]\nx = 1\n")
    assert cli.main(["run", cfg]) == 2


def test_preset_with_action_section(tmp_path):
    cfg = write(
        tmp_path,
        "[datum]\npreset = A2-sc-flip\n\n[action]\nbasis_permutation = 1,0\n",
    )
    assert cli.main(["run", cfg]) == 2


def test_unknown_preset(tmp_path):
    cfg = write(tmp_path, "[datum]\npreset = Z8-wat\n")
    assert cli.main(["run", cfg]) == 2


def test_count_without_q(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n\n[run]\nanalyses = count\n")
    assert cli.main(["run", cfg]) == 2
    assert "q" in capsys.readouterr().err


def test_bad_matrix_action_exit_3(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "[datum]\ntype = A2\n\n[action]\nmatrices = [[1, 1], [0, 1]]\n\n"
        "[run]\nanalyses = fold\n",
    )
    assert cli.main(["run", cfg]) == 3
    assert capsys.readouterr().err


def test_non_unimodular_matrix_action_exit_3(tmp_path, capsys):
    cfg = write(
        tmp_path, "[datum]\ntype = torus\nrank = 2\n\n[action]\nmatrices = [[[2, 1], [1, 2]]]\n"
    )
    assert cli.main(["run", cfg]) == 3
    assert "generator is not unimodular" in capsys.readouterr().err


@pytest.mark.parametrize("name", preset_names())
def test_preset_fold_computes_no_determinant(name, tmp_path):
    # every generator reaching a coinvariant check was inverted before
    assert not hasattr(IntMatrix, "det")
    cfg = write(tmp_path, f"[datum]\npreset = {name}\n\n[run]\nanalyses = fold\n")
    assert cli.main(["run", cfg]) == 0


def test_count_on_wrong_shape_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\npreset = A3-sc-flip\n\n[run]\nanalyses = count\nq = 2\n")
    assert cli.main(["run", cfg]) == 3


def test_resource_limit_exit_4(tmp_path):
    cfg = write(
        tmp_path,
        "[datum]\npreset = E6-sc-flip\n\n[run]\nanalyses = fold\n",
    )
    assert cli.main(["run", cfg, "--limit-weyl", "10"]) == 4


@pytest.mark.parametrize("kind,order", [("E7", 2903040), ("E8", 696729600)])
def test_fixed_weyl_refused_before_its_closure(tmp_path, capsys, monkeypatch, kind, order):
    # |W^A| is the product of the folded degrees, known before any closure
    def no_closure(cls, *args, **kwargs):
        raise AssertionError("a Weyl group was closed")

    monkeypatch.setattr(WeylGroup, "generate", classmethod(no_closure))
    cfg = write(tmp_path, f"[datum]\ntype = {kind}\n")
    assert cli.main(["run", cfg, "--analysis", "fold"]) == 4
    err = capsys.readouterr().err
    assert "fixed Weyl group W^A exceeded 1000000 elements" in err
    assert f"folded type {kind} has {order}" in err and "--limit-weyl" in err
    # past the limit, fold reports |W^A| without closing it, as on every preset
    report = tmp_path / "fold.json"
    argv = ["run", cfg, "--analysis", "fold", "--limit-weyl", "1000000000", "--json", str(report)]
    assert cli.main(argv) == 0
    fold = json.loads(report.read_text())["fold"]
    assert fold["fixed_weyl_order"] == order
    assert fold["folded"]["R1"]["type"] == kind
    for name in preset_names():
        cfg = write(tmp_path, f"[datum]\npreset = {name}\n")
        assert cli.main(["run", cfg, "--analysis", "fold"]) == 0, name


def test_enum_limit_exit_4(tmp_path):
    # |SL_3(F_5)| = 372,000 is past the limit of 10
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n\n[run]\nanalyses = count\nq = 5\n")
    assert cli.main(["run", cfg, "--limit-enum", "10"]) == 4


def test_resource_limit_messages_name_the_flag(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\npreset = E6-sc-flip\n")
    assert cli.main(["run", cfg, "--analysis", "fold", "--limit-weyl", "10"]) == 4
    err = capsys.readouterr().err
    assert "fixed Weyl group W^A exceeded 10 elements" in err and "--limit-weyl" in err
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n")
    assert cli.main(["run", cfg, "--analysis", "count", "--q", "5", "--limit-enum", "10"]) == 4
    err = capsys.readouterr().err
    assert "|SL_3(F_5)| = 372000 exceeds the search limit 10" in err
    assert "--limit-enum" in err


def test_huge_group_order_refused_without_a_traceback(tmp_path, capsys):
    # |SL_41(F_512)| has 4552 digits, past Python's limit for int to str
    flip = ",".join(map(str, range(39, -1, -1)))
    cfg = write(tmp_path, f"[datum]\ntype = A40\n\n[action]\nbasis_permutation = {flip}\n")
    child = subprocess.run(
        [sys.executable, "-m", "foldlab.cli", "run", cfg, "--analysis", "count", "--q", "512"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 4
    assert "|SL_41(F_512)| has 4552 digits and exceeds the search limit" in child.stderr
    assert "--limit-enum" in child.stderr
    assert "Traceback" not in child.stderr
    # the exact order is printed only while it is short
    assert cli.main(["run", cfg, "--analysis", "count", "--q", "3"]) == 4
    assert "|SL_41(F_3)| has 802 digits and exceeds" in capsys.readouterr().err


def test_bare_int_matrices_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\ntype = A2\n\n[action]\nmatrices = [1]\n")
    assert cli.main(["run", cfg]) == 2
    assert "matrices" in capsys.readouterr().err


# Python refuses to read an integer of more than 4300 digits
def test_huge_cartan_rank_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\ntype = A" + "9" * 5000 + "\n")
    assert cli.main(["run", cfg]) == 2
    assert "configuration error: rank of A in a Cartan type has 5000 digits" in (
        capsys.readouterr().err
    )


def test_huge_matrix_entry_exit_2(tmp_path, capsys):
    matrices = "[[" + "9" * 5000 + ",0],[0,1]]"
    cfg = write(
        tmp_path, f"[datum]\ntype = torus\nrank = 2\n\n[action]\nmatrices = {matrices}\n"
    )
    assert cli.main(["run", cfg]) == 2
    assert "configuration error: matrices is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("matrices", ["[[[true, 0], [0, 1]]]", "[[1, false], [0, 1]]"])
def test_boolean_matrix_entries_exit_2(tmp_path, capsys, matrices):
    cfg = write(tmp_path, f"[datum]\ntype = A2\n\n[action]\nmatrices = {matrices}\n")
    assert cli.main(["run", cfg]) == 2
    assert "matrices" in capsys.readouterr().err


# each datum is refused before it is built; built, none would finish
@pytest.mark.parametrize(
    "datum,work",
    [
        ("type = torus\nrank = 99999999", "999999970000000299999999"),
        ("type = A400", "25728160000"),  # 160,400 roots, squared
    ],
    ids=["torus", "A400"],
)
def test_unbounded_datum_size_exit_4(tmp_path, capsys, datum, work):
    cfg = write(tmp_path, f"[datum]\n{datum}\n")
    assert cli.main(["run", cfg, "--analysis", "criteria"]) == 4
    err = capsys.readouterr().err
    assert f"takes {work} steps, past the limit 100000000" in err
    assert "--limit-enum" in err


def test_datum_size_guard_reads_limit_enum(tmp_path, capsys):
    # type = A2 has 6 roots: 36 pairs pass a limit of 36 and not of 35
    cfg = write(tmp_path, "[datum]\ntype = A2\n")
    assert cli.main(["run", cfg, "--analysis", "criteria", "--limit-enum", "36"]) == 0
    capsys.readouterr()
    assert cli.main(["run", cfg, "--analysis", "criteria", "--limit-enum", "35"]) == 4
    assert "with 6 roots and its action takes 36 steps" in capsys.readouterr().err


def test_datum_size_guard_refuses_rank_before_degrees(tmp_path, capsys, monkeypatch):
    # listing the degrees of A1000000000 would take a billion ints; rank^3
    # alone is past the limit, so they are never read
    def no_degrees(self):
        raise AssertionError("degrees read before the rank^3 check")

    monkeypatch.setattr(CartanType, "degrees", property(no_degrees))
    cfg = write(tmp_path, "[datum]\ntype = A1000000000\n")
    assert cli.main(["run", cfg, "--analysis", "criteria"]) == 4
    err = capsys.readouterr().err
    assert f"of rank 1000000000 and its action takes {10**27} steps" in err
    assert "past the limit 100000000 (raise --limit-enum)" in err


def test_run_settings_read_before_datum(tmp_path, capsys):
    # a bad setting is reported before the (refused) datum is looked at
    cfg = write(tmp_path, "[datum]\ntype = A400\n\n[run]\nanalyses = dance\n")
    assert cli.main(["run", cfg]) == 2
    assert "unknown analysis 'dance'" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["6", "1"])
def test_count_bad_field_size_exit_2(tmp_path, capsys, q):
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n")
    assert cli.main(["run", cfg, "--analysis", "count", "--q", q]) == 2
    assert "prime power" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["6", "0"])
def test_tangent_bad_characteristic_exit_2(tmp_path, capsys, p):
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n")
    assert cli.main(["run", cfg, "--analysis", "tangent", "--p", p]) == 2
    assert f"characteristic must be a prime, got {p}" in capsys.readouterr().err


MERSENNE_61 = 2**61 - 1


@pytest.mark.parametrize(
    "ini,args,code",
    [
        ("", ["--analysis", "count", "--q", str(MERSENNE_61)], 4),
        ("", ["--analysis", "criteria", "--p", str(MERSENNE_61)], 0),
        ("", ["--analysis", "tangent", "--p", str(MERSENNE_61)], 0),
        (f"\n[base]\nprimes = {MERSENNE_61}\n", [], 0),
    ],
    ids=["count-q", "criteria-p", "tangent-p", "base-primes"],
)
def test_large_prime_decided_at_once(tmp_path, capsys, ini, args, code):
    # trial division to the square root of 2^61 - 1 takes 1.5e9 steps
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n" + ini)
    start = time.perf_counter()
    assert cli.main(["run", cfg] + args) == code
    assert time.perf_counter() - start < 2
    if code == 4:
        assert f"|SL_3(F_{MERSENNE_61})|" in capsys.readouterr().err


def test_count_mismatch_exit_5(tmp_path, capsys, monkeypatch):
    def fake(n, q, order_limit=0):
        return CountReport(n=n, q=q, brute=6, predicted=7)

    monkeypatch.setattr(cli, "verify_fixed_count", fake)
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n\n[run]\nanalyses = count\nq = 2\n")
    assert cli.main(["run", cfg]) == 5
    assert "mismatch" in capsys.readouterr().err


def test_presets_listing(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("A2-sc-flip", "D4-sc-triality", "A1-torus-inversion"):
        assert name in out


def test_presets_listing_builds_nothing(capsys, monkeypatch):
    expected = "".join(f"{name}: {load_preset(name).note}\n" for name in preset_names())
    calls = []
    for name in ("build_preset", "build_torus"):
        monkeypatch.setattr(presets, name, lambda *a, **k: calls.append(a))
    assert cli.main(["presets"]) == 0
    assert capsys.readouterr().out == expected
    assert calls == []


PARSED = dict(
    config="job.ini", analysis=None, q=None, p=None, json=None, limit_weyl=None, limit_enum=None
)


@pytest.mark.parametrize(
    "argv,code,expected",
    [
        # parsed: the settings run_command receives
        (["run", "job.ini"], 0, {}),
        (["run", "job.ini", "--analysis", "fold"], 0, {"analysis": ["fold"]}),
        (["run", "job.ini", "--analysis=fold"], 0, {"analysis": ["fold"]}),
        (["run", "--analysis", "fold", "job.ini", "--analysis=count"], 0,
         {"analysis": ["fold", "count"]}),
        (["run", "job.ini", "--q", "4"], 0, {"q": 4}),
        (["run", "job.ini", "--q=4"], 0, {"q": 4}),
        (["run", "job.ini", "--q", "-3"], 0, {"q": -3}),
        (["run", "job.ini", "--p", "3"], 0, {"p": 3}),
        (["run", "job.ini", "--p=3"], 0, {"p": 3}),
        (["run", "job.ini", "--json", "out.json"], 0, {"json": "out.json"}),
        (["run", "job.ini", "--json=out.json"], 0, {"json": "out.json"}),
        (["run", "job.ini", "--limit-weyl", "10"], 0, {"limit_weyl": 10}),
        (["run", "job.ini", "--limit-weyl=10"], 0, {"limit_weyl": 10}),
        (["run", "job.ini", "--limit-enum", "36"], 0, {"limit_enum": 36}),
        (["run", "job.ini", "--limit-enum=36"], 0, {"limit_enum": 36}),
        (["run", "--q", "3", "--json=out.json", "job.ini"], 0, {"q": 3, "json": "out.json"}),
        # help and presets: a substring of stdout
        (["-h"], 0, "usage: foldlab run CONFIG"),
        (["--help"], 0, "--limit-enum N"),
        (["run", "job.ini", "--help"], 0, "spelled in full"),
        (["presets"], 0, "A2-sc-flip: "),
        # usage errors: a substring of stderr
        ([], 2, "no command given"),
        (["frob"], 2, "unknown command 'frob'"),
        (["run", "job.ini", "--ana", "fold"], 2, "unknown option '--ana' for run"),
        (["presets", "--q", "3"], 2, "unknown option '--q' for presets"),
        (["run", "job.ini", "--q"], 2, "--q needs a value"),
        (["run", "job.ini", "--json", "--q", "3"], 2, "--json needs a value"),
        (["run", "job.ini", "--q", "two"], 2, "--q needs an integer, not 'two'"),
        (["run", "job.ini", "--limit-enum=1e8"], 2, "--limit-enum needs an integer, not '1e8'"),
        (["run"], 2, "run needs a CONFIG"),
        (["run", "--q", "3"], 2, "run needs a CONFIG"),
        (["run", "a.ini", "b.ini"], 2, "run takes one CONFIG, not also 'b.ini'"),
        (["presets", "extra"], 2, "presets takes no arguments, not 'extra'"),
        # limits: zero is a setting, a negative limit a usage error
        (["run", "job.ini", "--limit-weyl", "0"], 0, {"limit_weyl": 0}),
        (["run", "job.ini", "--limit-enum=0"], 0, {"limit_enum": 0}),
        (["run", "job.ini", "--limit-enum", "-5"], 2,
         "--limit-enum needs a nonnegative integer, not '-5'"),
        (["run", "job.ini", "--limit-weyl=-1"], 2,
         "--limit-weyl needs a nonnegative integer, not '-1'"),
    ],
)
def test_command_line(argv, code, expected, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_command", lambda args: seen.append(vars(args)) or 0)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if isinstance(expected, dict):
        assert seen == [{**PARSED, **expected}]
    elif code == 2:
        assert not seen and not out
        assert err.startswith("usage: foldlab ")
        assert f"\nfoldlab: error: {expected}" in err
    else:
        assert not seen and expected in out


def test_readme_shows_the_help():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"```text\n{cli.HELP}```" in readme


@pytest.mark.parametrize(
    "ini,section,key",
    [
        ("[datum]\ntype = torus\nrnak = 40\n", "datum", "rnak"),
        ("[datum]\ntype = A2\n\n[action]\nbasis_permutaton = 1,0\n", "action", "basis_permutaton"),
        ("[datum]\npreset = A2-sc-flip\n\n[base]\nprime = 3\n", "base", "prime"),
        ("[datum]\npreset = A2-sc-flip\n\n[run]\nanalysis = count\n", "run", "analysis"),
        ("[datum]\ntype = E7\n\n[run]\nlimit_weyl = 1000\n", "run", "limit_weyl"),
    ],
    ids=["datum", "action", "base", "run", "run-limit"],
)
def test_unknown_key_exit_2(tmp_path, capsys, ini, section, key):
    # a misspelled key used to be ignored: the trivial action, fold for
    # count, a rank-1 torus
    cfg = write(tmp_path, ini)
    assert cli.main(["run", cfg]) == 2
    assert f"unknown key {key!r} in [{section}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ini,message",
    [
        ("[datum]\ntype = A2\nrank = 7\n", "type = A2 does not read key 'rank' in [datum]"),
        (
            "[datum]\ntype = torus\nrank = 2\nisogeny = banana\n",
            "type = torus does not read key 'isogeny' in [datum]",
        ),
    ],
    ids=["type-rank", "torus-isogeny"],
)
def test_datum_key_the_type_does_not_read_exit_2(tmp_path, capsys, ini, message):
    # both used to be ignored: the first reported rank 2, the second a torus
    cfg = write(tmp_path, ini)
    assert cli.main(["run", cfg]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ini,key",
    [
        ("[DEFAULT]\nisogeny = adjoint\n\n[datum]\ntype = A2\n", "isogeny"),
        ("[DEFAULT]\nq = 2\n\n[datum]\npreset = A2-sc-flip\n", "q"),
    ],
    ids=["isogeny", "q"],
)
def test_default_section_exit_2(tmp_path, capsys, ini, key):
    # configparser copies [DEFAULT] into every section: the first built the
    # adjoint datum (center trivial, not Z/3), the second blamed [datum] for q
    cfg = write(tmp_path, ini)
    assert cli.main(["run", cfg]) == 2
    assert f"unknown section [DEFAULT] (with {key})" in capsys.readouterr().err


def test_percent_in_a_value_is_kept(tmp_path, capsys):
    # no interpolation: "%" used to raise outside the error handling (exit 1),
    # and "%(isogeny)s" used to be replaced by the value of isogeny
    cfg = write(tmp_path, "[datum]\npreset = A2%x\n")
    assert cli.main(["run", cfg]) == 2
    assert "configuration error: unknown preset 'A2%x'" in capsys.readouterr().err
    cfg = write(tmp_path, "[datum]\ntype = torus\nrank = %(isogeny)s\nisogeny = 2\n")
    assert cli.main(["run", cfg]) == 2
    assert "[datum] rank = '%(isogeny)s' is not an integer" in capsys.readouterr().err


def test_config_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "job.ini"
    path.write_bytes("[datum]\npreset = A2-sc-flip\n# café\n".encode("latin-1"))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot read {path}: 'utf-8' codec can't decode" in err


def test_ini_reader_grammar():
    text = (
        "; a comment\n"
        "  [datum]\n"
        "Type : torus\n"
        "rank = 2 = two ; kept\n"
        "[action]\n"
        "matrices = [[[0, 1],\n"
        "    # a comment line inside a value\n"
        "\n"
        "    [1, 0]]]\n"
        "# a blank line above belongs to the value\n"
        "[ base ]\n"
        "  primes =\n"
        "\n"
        "[run]\n"
        "analyses=fold %(q)s\n"
        "q = 2\n"
    )
    assert cli._read_ini(text) == {
        "datum": {"type": "torus", "rank": "2 = two ; kept"},
        "action": {"matrices": "[[[0, 1],\n\n[1, 0]]]"},
        " base ": {"primes": ""},
        "run": {"analyses": "fold %(q)s", "q": "2"},
    }


@pytest.mark.parametrize(
    "ini,message",
    [
        ("[datum]\npreset = A2-sc-flip\n[datum]\n", "line 3: duplicate section [datum]"),
        (
            "[datum]\npreset = A2-sc-flip\n\nPreset: A2-sc-flip\n",
            "line 4: duplicate key 'preset' in [datum]",
        ),
        ("# a job\npreset = A2-sc-flip\n", "line 2: 'preset = A2-sc-flip' comes before any [section]"),
        ("[datum]\n\npreset A2-sc-flip\n", "line 3: 'preset A2-sc-flip' is not a key = value line"),
        ("[datum]\n= A2\n", "line 2: '= A2' is not a key = value line"),
        (
            # the key after the header used to be dropped, and fold ran
            "[datum]\npreset = A2-sc-flip\n[run] analyses = criteria\n",
            "line 3: 'analyses = criteria' follows the header [run]",
        ),
    ],
    ids=["section", "key", "no-section", "no-delimiter", "no-key", "after-header"],
)
def test_ini_syntax_error_names_the_line(tmp_path, capsys, ini, message):
    cfg = write(tmp_path, ini)
    assert cli.main(["run", cfg]) == 2
    assert f"configuration error: cannot parse {cfg}: {message}\n" in capsys.readouterr().err


def test_comment_after_a_header(tmp_path, capsys):
    text = "[datum] ; note [x]\npreset = A2-sc-flip\n[run]  # what\nanalyses = criteria\n"
    assert cli.main(["run", write(tmp_path, text)]) == 0
    assert "\n[criteria]\n" in capsys.readouterr().out


def test_readme_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert readme.count("```ini\n") == 1
    block = readme.split("```ini\n")[1].split("```")[0]
    assert cli.main(["run", write(tmp_path, block)]) == 0
    assert not capsys.readouterr().err


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(st.characters(exclude_categories=())),  # surrogates included
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(exclude_categories=())), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj)
    assert cli._json(obj, pretty=True) == json.dumps(obj, indent=2, sort_keys=True)


@st.composite
def _int_lists_with_space(draw):
    def space():
        return draw(st.text(" \t\n\r", max_size=3))

    def written(obj):
        if isinstance(obj, int):
            return space() + str(obj) + space()
        return space() + "[" + (",".join(map(written, obj)) or space()) + "]" + space()

    return written(draw(st.recursive(st.integers(), lambda inner: st.lists(inner, max_size=4))))


@settings(max_examples=400, deadline=None)
@given(_int_lists_with_space())
def test_matrix_reader_matches_json_loads(text):
    assert repr(cli._read_int_lists(text)) == repr(json.loads(text))


@pytest.mark.parametrize(
    "text",
    [
        "[[1.5]]", "[[1e3]]", "[[1.0]]", "[[true]]", "[[false]]", "[[null]]", '[["1"]]',
        "[[01]]", "[[-01]]", "[[+1]]", "[[-]]", "[[1],]", "[[1,]]", "[,]", "[[1]", "[[1],",
        "[[1]]]", "[[1]] [[1]]", "[[1 2]]", "[[1 ]]", "[[١]]", "", " ", "[", "{}",
        "NaN", "Infinity",
    ],
)
def test_matrix_reader_refuses(text):
    with pytest.raises(ValueError):
        cli._read_int_lists(text)


def test_matrix_float_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\ntype = torus\nrank = 1\n\n[action]\nmatrices = [[-1.0]]\n")
    assert cli.main(["run", cfg]) == 2
    assert (
        "configuration error: matrices is not valid JSON: expected ',' or ']' at char 4,"
        " found '.'\n" in capsys.readouterr().err
    )


def test_unknown_analysis(tmp_path):
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n\n[run]\nanalyses = dance\n")
    assert cli.main(["run", cfg]) == 2


def test_text_report_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\npreset = D4-sc-triality\n\n[run]\nanalyses = fold\n")
    assert cli.main(["run", cfg]) == 0
    first = capsys.readouterr().out
    assert cli.main(["run", cfg]) == 0
    assert capsys.readouterr().out == first
    assert "G2" in first


# sha256 of the --json report of every preset and analysis, plus `type = E7`
# and `type = E8` criteria and chevalley; a refactor must leave every report
# byte-identical.
GOLDEN_SHA256 = {
    ("A1-torus-inversion", "fold"): "a0684da2d875384461ed68c8d28ba4c6cb327bfbef806017ba3bcae4e2ef96ba",
    ("A1-torus-inversion", "criteria"): "849728671b40df419b02cfaffa87c4a8c2ec82ac629b508847b4a3ac4beb2ced",
    ("A1-torus-inversion", "chevalley"): "9d8299ac029486cfe4df26c45b3389f81f4e5374acec5d48e40b6a861aded283",
    ("A2+A2-sc-swap", "fold"): "b66c25b6ba42000bd9086db14b674d182b1a13e8785592927493562ead1334d4",
    ("A2+A2-sc-swap", "criteria"): "b66084351835756d70444e37110471f7d519ed122841d7f5fcca28c1e378b2c3",
    ("A2+A2-sc-swap", "chevalley"): "b4e32390d72aed32958f4f2de760eb78b8d0a7cb8565865403a5dd85a6d54021",
    ("A2-sc-flip", "fold"): "2caec365969f8356916e39477777f9a9f2f36a5bffdd55473f35a975bdfd535d",
    ("A2-sc-flip", "criteria"): "76882b59ede598e789c239e7cae484b001f42d1288461c44a3350b69680a30c0",
    ("A2-sc-flip", "chevalley"): "af344e6fb964ea8665dcb4f059ab8c5b62325fcdece783c5e6cda388b1ed6c32",
    ("A3-sc-flip", "fold"): "e59e331b0c1698f5b4da2c06713c01b3f0178a74e9d57f5a7c54ba955699e57b",
    ("A3-sc-flip", "criteria"): "04e3e44cbb3235ee9becee8dadb82a48a282c1f227b85e2013c7fd176b208457",
    ("A3-sc-flip", "chevalley"): "39afbdf5e70cde250590479afb9f8f0c0ec5547eacc36334c614e909b730024a",
    ("A4-sc-flip", "fold"): "6513f19ab7f9aa06f7b290805bc21eb1fe04f199887023e9d513dedf1b87a131",
    ("A4-sc-flip", "criteria"): "9e550f89a7be2bc1a4cc17698703376c3290f75f4ad82011f066317635e3023d",
    ("A4-sc-flip", "chevalley"): "09c72be0c3e7cb9395074d22f1400e2b6a3c5b2e8ab841fd1e19e660e1bfde7f",
    ("A5-sc-flip", "fold"): "3128cc9717915b8b992285489cdfb5958c20b10faa3e2f9093e0425ea3dae683",
    ("A5-sc-flip", "criteria"): "1581aa144de1fb0a4d73879169f9dcee02e49bc20fe9579c7903147fffd25b1a",
    ("A5-sc-flip", "chevalley"): "3e059913805c118eb4829d37bab04e39de5e6a44fec954896432bdedc66f078b",
    ("B3", "fold"): "545f85b817af7ed7e070cd922b9f4b008e9c5e1c7cc02f9ada751b2bf7d155f0",
    ("B3", "criteria"): "22db3dca4d7719f8d9ec78f501aa0e87394e29536ec0f75849cb0a006a750bcd",
    ("B3", "chevalley"): "c49ee03577762fe146f66168639d92be5ae2860ededef7b7d10243e156a1debb",
    ("C3", "fold"): "0584d76696168e6db9ea2aaf7cd0535386e04b6f3f7c0c29a80dda0e9113a107",
    ("C3", "criteria"): "1c879881ee903c6f552c84a5e227f7053765fadd1f6b49675388f9b03c3bc9aa",
    ("C3", "chevalley"): "63aaa2179b63a66fe0b8c5a11cbf98c5e35a5116728423c2c5811f5d26bec223",
    ("D4-sc-cyclic3", "fold"): "d1a92474ac562f2c51d83bd68616ed0e70f0c3f746b74f38f28312a748d0c8f3",
    ("D4-sc-cyclic3", "criteria"): "282852ca7fbfd698d5cd434c81c65c6ba7213171d917066263f9ec87c57b3394",
    ("D4-sc-cyclic3", "chevalley"): "218e22ebeb3cafda6052a51243d27c64e5492586a394f73a59d3eecb1d5862a4",
    ("D4-sc-triality", "fold"): "8bc6bb2c2a7b3891eaed3603c48ad15ff7630f246b17da011e80e908ab136e62",
    ("D4-sc-triality", "criteria"): "a37c62cf8e95bbca3b7f57851c6aa03a999975abaf665628e00589188cf550dc",
    ("D4-sc-triality", "chevalley"): "ae9b8a214997c9e0067b661af46d85e0fb8cba308af49a81059bdb0e0297973e",
    ("E6-sc-flip", "fold"): "390d9ea7ec12fb62685b79a9ac4bfd38a994445ecf9e112f8a2a870d7c044a33",
    ("E6-sc-flip", "criteria"): "3ea8a58f7acfc167b3a0a63f561604438d9767ec5aa2beb0bad103b489a38cf5",
    ("E6-sc-flip", "chevalley"): "f5aeaa6dccac495636455db50fceceb3055db305a72926c91ee66d8ccbd262e5",
    ("E7", "criteria"): "69b367f5a1492d5ba08f5e163834d6c9bae1e7231618ec0d94e5f393fd93284d",
    ("E7", "chevalley"): "263689c59e5a38d8ae6ea4820b329114ae71025a0107dbf80fd85eda3aaa37f5",
    ("E8", "criteria"): "507b7e575ea527f540cb294f9ac7910c82101888582cf9e716eda4acd7783412",
    ("E8", "chevalley"): "e9f6f7c8a7d2cc3102bfd29fb3becbe98e792d255717561f6e2744860c4a4a5c",
    ("F4", "fold"): "51e23a41d191b2c0c5164c8073506237dd7f5560b194ac70bc60cc3663813670",
    ("F4", "criteria"): "f3383ecb1ad8fabb6d3cddc0793e6c9d071a53aca401d09e8379a823073bf506",
    ("F4", "chevalley"): "b141b79c831b91389f2b6e069f969f193b339d8c94e369e831d94d7361e300c9",
    ("G2", "fold"): "fd4ddfa57f77e46547b25004f95509b4d6e3c61567f1c3c4baffc9e338799c85",
    ("G2", "criteria"): "c282aef5986955c1aac334e1282b7d361de356a8673a4e5602ea6457a9c384f8",
    ("G2", "chevalley"): "b9163eb5ebc52806183ad0b7de29539b4b3f95914fde207dae587942446a3e0e",
}


@pytest.mark.parametrize("preset,analysis", sorted(GOLDEN_SHA256))
def test_json_report_matches_golden_digest(tmp_path, capsys, preset, analysis):
    # preset names carry a hyphen; a bare Cartan type is a datum by itself
    key = "preset" if "-" in preset else "type"
    cfg = write(tmp_path, f"[datum]\n{key} = {preset}\n")
    out_path = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--analysis", analysis, "--json", str(out_path)]) == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[preset, analysis]


# the rank-3 torus under -1 has coinvariants (Z/2)^3, all torsion; these
# digests pin the fold's `coinvariants` field where torsion is present
TORUS_TORSION_SHA256 = {
    "fold": "8397f3ec8ddffeed1c2b8bf4f664f80f4445a03dee8ec9014f43fdc6b052d81e",
    "criteria": "5e5caf44ebf1ca72fede5240dba6d58eaca609c44f9b864efc44636af0331bd2",
}


@pytest.mark.parametrize("analysis", sorted(TORUS_TORSION_SHA256))
def test_torus_with_torsion_coinvariants_golden_digest(tmp_path, capsys, analysis):
    cfg = write(
        tmp_path,
        "[datum]\ntype = torus\nrank = 3\n\n"
        "[action]\nmatrices = [[[-1,0,0],[0,-1,0],[0,0,-1]]]\n",
    )
    out_path = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--analysis", analysis, "--json", str(out_path)]) == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == TORUS_TORSION_SHA256[analysis]


# chevalley on products of D4 under wreath-product actions, beyond the
# presets: (type, basis_permutation) -> (action order, adjusted_sign_count,
# sha256 of the --json report).  Every D4 factor carries the full S3.
D4_PRODUCT_CHEVALLEY_SHA256 = {
    (
        "D4+D4",
        "2,1,3,0,4,5,6,7; 0,1,3,2,4,5,6,7; 0,1,2,3,6,5,7,4; 0,1,2,3,4,5,7,6; 4,5,6,7,0,1,2,3",
    ): (72, 6, "10aafde32182357ae5797dc67ecded3deffa11e638a2e16d761b8d44b6f656d6"),
    (
        "D4+D4+D4",
        "2,1,3,0,4,5,7,6,10,9,11,8; 4,5,6,7,8,9,10,11,0,1,2,3",
    ): (648, 9, "df178786135531dcea1b898739d4e4eca240f068e810a7bbe805ce842f68813b"),
}


@pytest.mark.parametrize("cartan_type,perm", sorted(D4_PRODUCT_CHEVALLEY_SHA256))
def test_d4_product_chevalley_golden_digest(tmp_path, capsys, cartan_type, perm):
    cfg = write(tmp_path, f"[datum]\ntype = {cartan_type}\n\n[action]\nbasis_permutation = {perm}\n")
    out_path = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--analysis", "chevalley", "--json", str(out_path)]) == 0
    order, flips, digest = D4_PRODUCT_CHEVALLEY_SHA256[cartan_type, perm]
    report = json.loads(out_path.read_bytes())
    assert report["input"]["action_order"] == order
    assert report["chevalley"]["adjusted_sign_count"] == flips
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("preset", preset_names())
def test_one_run_computes_classes_once(tmp_path, monkeypatch, preset):
    # one class computation per run, and one lattice per fold: the oriented
    # one, since isogeny_injectivity_check reads the base orbits
    calls = {"classes": 0, "lattices": 0}

    def counted_classes(*args, **kwargs):
        calls["classes"] += 1
        return equivalence_classes(*args, **kwargs)

    lattice_init = CoinvariantLattice.__init__

    def counted_lattice(self, *args, **kwargs):
        calls["lattices"] += 1
        lattice_init(self, *args, **kwargs)

    for module in (foldlab, *vars(foldlab).values()):
        if getattr(module, "equivalence_classes", None) is equivalence_classes:
            monkeypatch.setattr(module, "equivalence_classes", counted_classes)
    monkeypatch.setattr(CoinvariantLattice, "__init__", counted_lattice)
    cfg = write(tmp_path, f"[datum]\npreset = {preset}\n")
    assert cli.main(["run", cfg, "--analysis", "fold"]) == 0
    assert calls["classes"] == 1 and calls["lattices"] == 1, calls
    calls.update(classes=0, lattices=0)
    assert cli.main(["run", cfg, "--analysis", "criteria"]) == 0
    assert calls["classes"] == 1, calls


@pytest.mark.parametrize("preset", preset_names())
def test_fold_and_criteria_build_no_root_sums(tmp_path, monkeypatch, preset):
    # sums inside a class are added as vectors; only chevalley reads the
    # per-root map of root sums
    built = []
    build = cli._build_datum_and_action

    def keep(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "_build_datum_and_action", keep)
    cfg = write(tmp_path, f"[datum]\npreset = {preset}\n")
    assert cli.main(["run", cfg, "--analysis", "fold", "--analysis", "criteria"]) == 0
    assert built[0][0]._root_sums is None


SRC = str(Path(__file__).resolve().parents[1] / "src")
# The layer modules whose entry points perfbench/trace_child.py wraps.
LAYERS = (
    "intlat", "rootdata", "action", "folding", "criteria", "chevalley", "matrixlab", "presets"
)


def _modules_after(statement):
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    # -S: site would import re itself, through .pth files, and hide it
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_import_loads_every_layer_and_no_record_machinery():
    added = _modules_after("import foldlab.cli") - _modules_after("pass")
    forbidden = {"dataclasses", "inspect", "fractions", "argparse", "gettext"}
    assert not added & (forbidden | {"configparser", "json", "re"})
    assert {f"foldlab.{layer}" for layer in LAYERS} <= added


class _FullStdout:
    """A stdout whose write (or, with at="flush", only its flush) fails as
    on a full disk."""

    def __init__(self, at):
        self.at = at

    def write(self, text):
        if self.at == "write":
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self):
        raise OSError(28, "No space left on device")


STDOUT_FULL = "cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("at", ["write", "flush"])
@pytest.mark.parametrize("argv", [["presets"], ["--help"], ["run", "{a2}"]])
def test_failed_stdout_exit_2(tmp_path, capsys, monkeypatch, argv, at):
    a2 = write(tmp_path, "[datum]\npreset = A2-sc-flip\n")
    monkeypatch.setattr(sys, "stdout", _FullStdout(at))
    assert cli.main([a.format(a2=a2) for a in argv]) == 2
    assert capsys.readouterr().err == STDOUT_FULL


def _child_env(**extra):
    """The environment of a foldlab child: src on the path, stdout buffered
    as it is by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": SRC, **extra}


# (argv, the stream sent to /dev/full); new rows go at the end, so the ids
# argv0, argv1, ... of the earlier rows stay as they are
FULL_STREAM_RUNS = [
    (["presets"], "stdout"),
    (["--help"], "stdout"),
    (["run", "{a2}"], "stdout"),
    (["run", "{missing}"], "stderr"),
    (["run", "--bogus"], "stderr"),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}])
@pytest.mark.parametrize(
    "argv,stream", [pytest.param(*row, id=f"argv{i}") for i, row in enumerate(FULL_STREAM_RUNS)]
)
def test_failed_stdout_exit_2_in_a_process(tmp_path, argv, stream, unbuffered):
    paths = {"a2": write(tmp_path, "[datum]\npreset = A2-sc-flip\n"), "missing": "/nonexistent.ini"}
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-m", "foldlab.cli", *(a.format(**paths) for a in argv)],
            env=_child_env(**unbuffered),
            stdout=full if stream == "stdout" else subprocess.PIPE,
            stderr=full if stream == "stderr" else subprocess.PIPE,
            text=True,
            timeout=60,
        )
    # buffered, the interpreter's last flush would fail again and exit 120;
    # a failed error message would end in a traceback and exit 1
    if stream == "stdout":
        assert (child.returncode, child.stderr) == (2, STDOUT_FULL)
    else:
        assert (child.returncode, child.stdout) == (2, "")


class _FullStderr:
    """A stderr whose writes fail as on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


@pytest.mark.parametrize(
    "config,argv,code",
    [
        ("[datum]\npreset = A2-sc-flip\nq = 2\n", [], 2),
        ("[datum]\ntype = B3\n", ["--analysis", "count", "--q", "2"], 3),
        ("[datum]\ntype = B3\n", ["--limit-enum", "35"], 4),
        ("[datum]\npreset = A2-sc-flip\n", ["--analysis", "count", "--q", "2"], 5),
        (None, ["--bogus"], 2),
    ],
    ids=["config", "action", "limit", "mismatch", "usage"],
)
def test_failed_stderr_keeps_the_exit_code(tmp_path, capsys, monkeypatch, config, argv, code):
    monkeypatch.setattr(
        cli, "verify_fixed_count", lambda n, q, order_limit=0: CountReport(n=n, q=q, brute=6, predicted=7)
    )
    monkeypatch.setattr(sys, "stderr", _FullStderr())
    cfg = [write(tmp_path, config)] if config else []
    assert cli.main(["run", *cfg, *argv]) == code


# (argv, exit code): one command line per exit code, --help and presets;
# {name} is the path of the config PARITY_CONFIGS[name], {json} an output path
PARITY_CONFIGS = {
    "a2": "[datum]\npreset = A2-sc-flip\n",
    "b3": "[datum]\ntype = B3\n",
    "bad-key": "[datum]\npreset = A2-sc-flip\nq = 2\n",
}
PARITY_RUNS = [
    (["--help"], 0),
    (["presets"], 0),
    (["run", "{a2}", "--analysis", "fold", "--analysis", "criteria", "--json", "{json}"], 0),
    (["run", "{bad-key}", "--json", "{json}"], 2),
    (["run", "{b3}", "--analysis", "count", "--q", "2", "--json", "{json}"], 3),
    (["run", "{b3}", "--analysis", "criteria", "--limit-enum", "35", "--json", "{json}"], 4),
]


@pytest.mark.parametrize("argv,code", PARITY_RUNS)
def test_process_entry_matches_main(tmp_path, capsys, argv, code):
    paths = {"json": str(tmp_path / "out.json")}
    for name, text in PARITY_CONFIGS.items():
        paths[name] = write(tmp_path, text, f"{name}.ini")
    argv = [a.format(**paths) for a in argv]
    json_path = Path(paths["json"])

    frozen = gc.get_freeze_count()
    assert cli.main(argv) == code
    assert gc.get_freeze_count() == frozen
    out, err = capsys.readouterr()
    written = json_path.read_bytes() if json_path.exists() else None
    json_path.unlink(missing_ok=True)

    # stdout is a pipe, so the child's stdout is block-buffered
    child = subprocess.run(
        [sys.executable, "-m", "foldlab.cli", *argv],
        env=_child_env(PYTHONIOENCODING="utf-8"),
        capture_output=True,
        timeout=60,
    )
    assert child.returncode == code
    assert child.stdout == out.encode()
    assert child.stderr == err.encode()
    assert (json_path.read_bytes() if json_path.exists() else None) == written
    assert (written is not None) == (code == 0 and "--json" in argv)
