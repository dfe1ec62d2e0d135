"""Command line interface: configs, analyses, exit codes, determinism."""

import json

import pytest

import foldlab.cli as cli
from foldlab.matrixlab import CountReport


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


def test_count_on_wrong_shape_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\npreset = A3-sc-flip\n\n[run]\nanalyses = count\nq = 2\n")
    assert cli.main(["run", cfg]) == 3


def test_resource_limit_exit_4(tmp_path):
    cfg = write(
        tmp_path,
        "[datum]\npreset = E6-sc-flip\n\n[run]\nanalyses = fold\n",
    )
    assert cli.main(["run", cfg, "--limit-weyl", "10"]) == 4


def test_enum_limit_exit_4(tmp_path):
    # q = 5 is past the full-scan budget, so the capped backtracking path runs
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


def test_bare_int_matrices_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "[datum]\ntype = A2\n\n[action]\nmatrices = [1]\n")
    assert cli.main(["run", cfg]) == 2
    assert "matrices" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["6", "1"])
def test_count_bad_field_size_exit_2(tmp_path, capsys, q):
    cfg = write(tmp_path, "[datum]\npreset = A2-sc-flip\n")
    assert cli.main(["run", cfg, "--analysis", "count", "--q", q]) == 2
    assert "prime power" in capsys.readouterr().err


def test_count_mismatch_exit_5(tmp_path, capsys, monkeypatch):
    def fake(n, q, method="auto", order_limit=0):
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
