"""Command-line behavior: exit codes, golden renderings, deterministic
perturbation output, and agreement between text, JSON, and library facts."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from msflow import (
    InvalidSystemError,
    betti,
    build_complex,
    cell_equivalence_verdict,
    census,
    check_d2,
    parse,
    serialize,
    validate,
)
from msflow import poset
from msflow.cli import fixtures_dir, run

from conftest import GOLDEN_DIR, all_msf_fixtures, fixture_path, load_fixture, structure


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# exit codes and error handling


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "fig5.msf")
    assert code == 0
    assert out == "validate fig5: OK (7 elements, 10 connections)\n"


def test_validate_accepts_a_leading_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "fig5.msf"
    path.write_bytes("\ufeff".encode() + fixture_path("fig5.msf").read_bytes())
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert (code, out) == (0, "validate fig5: OK (7 elements, 10 connections)\n")


def test_validate_reports_violations_with_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.msf"
    bad.write_text("dim 2\nrest a 1\nrest b 1\nconn a b 1\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "dimension-rule" in out


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-system.msf")
    assert code == 1
    assert err.startswith("msflow: error:")


@pytest.mark.parametrize("argv", [
    ["validate", "{dir}"],
    ["perturb", "fig3.msf", "--orbit", "gamma", "--choice", "{dir}"],
    ["perturb", "fig3.msf", "--orbit", "gamma", "--all", "--out", "{file}"],
], ids=["validate-a-directory", "choice-a-directory", "all-out-an-existing-file"])
def test_os_errors_are_input_errors(tmp_path, argv):
    (tmp_path / "taken").write_text("")
    argv = [arg.format(dir=tmp_path, file=tmp_path / "taken") for arg in argv]
    result = subprocess.run([sys.executable, "-m", "msflow", *argv], capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.startswith("msflow: error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("big, lines_read", [(True, 1), (False, 0)], ids=["long-output-one-line-read", "short-output-none-read"])
def test_a_closed_pipe_is_not_an_error(tmp_path, big, lines_read):
    # As `msflow poset big.pos | head -1` does.  20,000 node lines outrun the
    # pipe's buffer, so a write after the reader leaves fails inside the
    # command; a short report may wait in the buffer for the flush at the end.
    path = tmp_path / "big.pos"
    path.write_text("".join(f"node n{i} {i % 3}\n" for i in range(20_000 if big else 2)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "msflow", "poset", str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_parse_error_is_an_input_error(capsys, tmp_path):
    mangled = tmp_path / "mangled.msf"
    mangled.write_text("dim 2\nfrob\n")
    code, _, err = run_cli(capsys, "validate", str(mangled))
    assert code == 1
    assert "line 2" in err


def test_homology_refusal_exits_two(capsys):
    code, out, _ = run_cli(capsys, "homology", "fig6.msf")
    assert code == 2
    assert "refused, differential does not square to zero" in out


def test_d2_findings_are_not_failures(capsys):
    code, out, _ = run_cli(capsys, "d2", "fig6.msf")
    assert code == 0
    assert "d2.d3 != 0 at column r1, row gamma+" in out
    assert "d2.d3 != 0 at column r2, row gamma+" in out


def test_d2_clean_report(capsys):
    code, out, _ = run_cli(capsys, "d2", "fig5.msf")
    assert code == 0
    assert "zero in every degree" in out


# ---------------------------------------------------------------------------
# golden renderings


@pytest.mark.parametrize("name", ["fig5", "fig6"])
def test_complex_rendering_matches_golden(capsys, name):
    code, out, _ = run_cli(capsys, "complex", f"{name}.msf")
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}_complex.txt").read_text()


def test_complex_renders_an_empty_degree(capsys, tmp_path):
    lone = tmp_path / "lone.msf"
    lone.write_text("dim 2\nrest a 0\n")
    code, out, _ = run_cli(capsys, "complex", str(lone))
    assert code == 0
    assert out == (
        "chain complex of lone (top degree 2)\n"
        "B_2: (empty)\nB_1: (empty)\nB_0: a\n"
        "d_2 (rows B_1, cols B_2):\n  (empty)\n"
        "d_1 (rows B_0, cols B_1):\n  (empty)\n"
        "euler characteristic: 1\n"
    )


def test_homology_text(capsys):
    code, out, _ = run_cli(capsys, "homology", "fig5.msf")
    assert code == 0
    assert "homology of fig5: b0=2 b1=1 b2=1" in out
    assert "does not match computed 2 1 1" in out
    code, out, _ = run_cli(capsys, "homology", "fig4-X1.msf")
    assert code == 0
    assert "b0=1 b1=0 b2=1" in out and "matches" in out


# ---------------------------------------------------------------------------
# poset / compare


def test_poset_of_a_poset_fixture(capsys):
    code, out, _ = run_cli(capsys, "poset", "fig2-Y.pos")
    assert code == 0
    assert "poset of fig2-Y: 4 nodes" in out
    assert "a < d" in out and "b < c" in out


def test_poset_of_a_gradient_flow(capsys):
    code, out, _ = run_cli(capsys, "poset", "fig3-X1.msf")
    assert code == 0
    assert "node p_gamma 2" in out
    assert "q_gamma < p_gamma" in out
    assert "q0 < p_gamma" not in out  # implied, so not a cover


def test_poset_refuses_orbit_systems(capsys):
    code, _, err = run_cli(capsys, "poset", "fig5.msf")
    assert code == 1
    assert "run 'msflow perturb' first" in err


def test_compare_isomorphic_pair(capsys):
    code, out, _ = run_cli(capsys, "compare", "fig4-X1.msf", "fig4-X2.msf")
    assert code == 0
    assert "isomorphic: yes" in out
    assert "q1->q2" in out and "q2->q1" in out
    assert "verdict: necessary conditions pass (inconclusive)" in out


def test_compare_distinguishable_pair(capsys):
    code, out, _ = run_cli(capsys, "compare", "fig4-X1.msf", "fig4-X3.msf")
    assert code == 0
    assert "isomorphic: no" in out
    assert "certificate: label 0/label 1 incidence multisets differ: {1,2,3,4} vs {1,3,3,3}" in out
    assert "verdict: NOT cell equivalent" in out


def test_compare_poset_files_have_no_equivalence_verdict(capsys):
    code, out, _ = run_cli(capsys, "compare", "fig2-Y.pos", "fig2-Yprime.pos")
    assert code == 0
    assert "certificate: downset-size multisets for label 2 differ: {2} vs {4}" in out
    assert "verdict:" not in out  # cell equivalence is a flow-level notion


def test_compare_self_is_identity(capsys):
    code, out, _ = run_cli(capsys, "compare", "fig4-X1.msf", "fig4-X1.msf")
    assert code == 0
    assert "isomorphic: yes" in out
    mapping_line = next(line for line in out.splitlines() if line.startswith("mapping:"))
    assert all(pair.split("->")[0] == pair.split("->")[1] for pair in mapping_line.split()[1:])


def test_compare_of_empty_posets_shows_the_empty_witness(capsys, tmp_path):
    empty = tmp_path / "empty.pos"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "compare", str(empty), str(empty))
    assert code == 0
    assert out.splitlines() == ["compare empty vs empty", "isomorphic: yes", "mapping: (empty)"]
    code, payload, _ = run_json(capsys, "compare", str(empty), str(empty))
    assert code == 0
    assert payload["isomorphic"] is True and payload["mapping"] == {}


def test_compare_decides_once_and_agrees_with_the_library_verdict(capsys, monkeypatch):
    # The verdict line is read off the one isomorphism test the command runs.
    names = [name for name in all_msf_fixtures() if not load_fixture(name).orbits() and not validate(load_fixture(name))]
    assert len(names) >= 4
    calls = []
    original = poset.is_isomorphic
    monkeypatch.setattr(poset, "is_isomorphic", lambda a, b: calls.append(1) or original(a, b))
    for a in names:
        for b in names:
            calls.clear()
            code, payload, _ = run_json(capsys, "compare", a, b)
            assert code == 0 and len(calls) == 1
            assert payload["verdict"] == cell_equivalence_verdict(load_fixture(a), load_fixture(b)).summary


# ---------------------------------------------------------------------------
# perturb


def test_perturb_all_writes_deterministic_files(capsys, tmp_path):
    out_dir = tmp_path / "resolved"
    code, out, _ = run_cli(capsys, "perturb", "fig3.msf", "--orbit", "gamma", "--all", "--out", str(out_dir))
    assert code == 0
    assert "perturb fig3, orbit gamma: 6 choice(s)" in out
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [f"fig3-gamma-{i:02d}.msf" for i in range(1, 7)]
    for path in sorted(out_dir.iterdir()):
        system = parse(path.read_text())
        assert not system.orbits()
        assert validate(system) == []
    assert out.count("claims (repeller): i=pass ii=pass iii=pass") == 6

    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    run_cli(capsys, "perturb", "fig3.msf", "--orbit", "gamma", "--all", "--out", str(out_dir))
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first


def test_perturb_all_requires_out_dir(capsys):
    code, _, err = run_cli(capsys, "perturb", "fig3.msf", "--orbit", "gamma", "--all")
    assert code == 1
    assert "--out" in err


def test_perturb_choice_prints_resulting_system(capsys, tmp_path):
    choice = tmp_path / "choice.msc"
    choice.write_text(
        "orbit gamma\nnew p_gamma q_gamma\n"
        "pout q0 1\npout q1 1\npout q2 1\npout s 2\n"
        "qout q0 1\nqout q1 1\n"
    )
    code, out, _ = run_cli(capsys, "perturb", "fig3.msf", "--orbit", "gamma", "--choice", str(choice))
    assert code == 0
    assert structure(parse(out)) == structure(load_fixture("fig3-X1.msf"))


def test_perturb_choice_with_out_writes_the_file(capsys, tmp_path):
    choice = tmp_path / "choice.msc"
    choice.write_text(
        "orbit gamma\nnew p_gamma q_gamma\n"
        "pout q0 1\npout q1 1\npout q2 1\npout s 2\n"
        "qout q0 1\nqout q2 1\n"
    )
    target = tmp_path / "result.msf"
    code, out, _ = run_cli(capsys, "perturb", "fig3.msf", "--orbit", "gamma", "--choice", str(choice), "--out", str(target))
    assert code == 0
    assert structure(parse(target.read_text())) == structure(load_fixture("fig3-X2.msf"))


def test_perturb_invalid_choice_names_the_constraint(capsys, tmp_path):
    choice = tmp_path / "choice.msc"
    choice.write_text("orbit gamma\nnew p q\npout q0 1\nqout q0 1\n")  # q1, q2, s uncovered
    code, _, err = run_cli(capsys, "perturb", "fig3.msf", "--orbit", "gamma", "--choice", str(choice))
    assert code == 1
    assert "received no new connection" in err


def test_perturb_choice_with_an_invalid_new_name_is_a_name_collision(capsys, tmp_path):
    choice = tmp_path / "choice.msc"
    choice.write_text("orbit gamma\nnew 9x q\npout q0 1\n")
    code, _, err = run_cli(capsys, "perturb", "fig3.msf", "--orbit", "gamma", "--choice", str(choice))
    assert code == 1
    assert err == "msflow: error: name-collision: invalid name '9x'\n"


def test_perturb_choice_that_breaks_the_dimension_rule_is_refused_with_the_validators_message(capsys, tmp_path):
    choice = tmp_path / "choice.msc"
    choice.write_text("orbit gamma\nnew p q\npout q0 1\npout q1 1\npout q2 1\npout s 2\nqout s 2\n")
    target = tmp_path / "result.msf"
    code, out, err = run_cli(capsys, "perturb", "fig3.msf", "--orbit", "gamma", "--choice", str(choice), "--out", str(target))
    assert (code, out) == (1, "")
    assert err == "msflow: error: dimension-rule: c(q,s)=2 requires u+s >= 3, got u(q)=1, s(s)=1\n"
    assert not target.exists()


def test_perturb_choice_refuses_an_orbit_other_than_the_choices(capsys, tmp_path):
    choice = tmp_path / "choice.msc"
    choice.write_text(
        "orbit gamma\nnew p_gamma q_gamma\n"
        "pout q0 1\npout q1 1\npout q2 1\npout s 2\n"
        "qout q0 1\nqout q1 1\n"
    )
    code, out, err = run_cli(capsys, "perturb", "fig3.msf", "--orbit", "nosuch", "--choice", str(choice))
    assert (code, out) == (1, "")
    assert err == "msflow: error: --orbit nosuch does not match the choice's orbit gamma\n"


def test_census_refuses_automatic_enumeration_in_dimension_three(capsys):
    code, out, err = run_cli(capsys, "census", "fig6.msf")
    assert (code, out) == (1, "")
    assert err == (
        "msflow: error: automatic choice enumeration is unsupported in dimension 3; "
        "apply one explicit choice per orbit with apply_choice or msflow perturb --choice\n"
    )


def test_perturb_unknown_orbit(capsys):
    code, _, err = run_cli(capsys, "perturb", "fig3.msf", "--orbit", "nope", "--all")
    assert code == 1
    assert "msflow: error:" in err


# The orbit's only downstream element is a source, so it has nowhere to land:
# an empty enumeration here would read as an answer.
LANDLESS = "dim 2\nrest e0 2\norbit e1 1 untwisted\nconn e1 e0 1\n"


def test_perturb_all_refuses_an_invalid_input(capsys, tmp_path):
    bad = tmp_path / "landless.msf"
    bad.write_text(LANDLESS)
    out_dir = tmp_path / "resolved"
    code, out, err = run_cli(capsys, "perturb", str(bad), "--orbit", "e1", "--all", "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == f"msflow: error: {InvalidSystemError(validate(parse(LANDLESS)))}\n"
    assert not out_dir.exists()


def test_perturb_choice_refuses_an_invalid_input_outside_dimension_two(capsys, tmp_path):
    # No claims run in 3D, so nothing else would validate the input.
    text = fixture_path("fig6.msf").read_text() + "conn q0 r1 1\n"
    assert len(validate(parse(text))) == 3
    bad = tmp_path / "bad.msf"
    bad.write_text(text)
    choice = tmp_path / "choice.msc"
    choice.write_text("orbit gamma\nnew p_g q_g\npin p1 2\nqin p2 1\nqin p3 1\nqin s1 1\nqin s2 2\n")
    target = tmp_path / "result.msf"
    code, out, err = run_cli(capsys, "perturb", str(bad), "--orbit", "gamma", "--choice", str(choice), "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"msflow: error: {InvalidSystemError(validate(parse(text)))}\n"
    assert err.startswith("msflow: error: system fails validation: ")
    assert not target.exists()


def test_perturb_choice_outside_dimension_two_evaluates_no_claims(capsys, tmp_path):
    choice = tmp_path / "choice.msc"
    choice.write_text("orbit gamma\nnew p_g q_g\npin p1 2\nqin p2 1\nqin p3 1\nqin s1 1\nqin s2 2\n")
    target = tmp_path / "result.msf"
    code, out, _ = run_cli(capsys, "perturb", "fig6.msf", "--orbit", "gamma", "--choice", str(choice), "--out", str(target))
    assert code == 0
    assert out == f"wrote {target}  [orbit gamma -> (p_g, q_g) p_in={{p1:2}} q_in={{p2:1, p3:1, s1:1, s2:2}}]  claims: (not evaluated)\n"
    code, payload, _ = run_json(capsys, "perturb", "fig6.msf", "--orbit", "gamma", "--choice", str(choice))
    assert code == 0
    assert payload["claims"] is None


@pytest.mark.parametrize("command, name, text, message", [
    ("validate", "twice.msf", "dim 2\nexpect-betti 1 0 1\nexpect-betti 1 0 1\n", "line 3: duplicate expect-betti directive"),
    ("poset", "bad.pos", "node 9a 1\n", "line 1: invalid name '9a'"),
    ("poset", "self.pos", "node a 1\nlt a a\n", "line 2: lt needs two distinct nodes, got 'a' twice"),
    ("perturb", "orbit.msc", "orbit gamma\norbit gamma\n", "line 2: duplicate orbit directive"),
    ("perturb", "new.msc", "orbit gamma\nnew p q\nnew p q\n", "line 3: duplicate new directive"),
    ("perturb", "map.msc", "orbit gamma\nnew p q\npout q0 1\npout q0 1\n", "line 4: duplicate pout line for 'q0'"),
], ids=["expect-betti", "node-name", "lt-self", "orbit", "new", "map"])
def test_repeated_and_invalid_lines_are_input_errors(capsys, tmp_path, command, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    argv = ["perturb", "fig3.msf", "--orbit", "gamma", "--choice", str(path)] if command == "perturb" else [command, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"msflow: error: {message}\n")


# ---------------------------------------------------------------------------
# census


def test_census_refuses_an_invalid_input(capsys, tmp_path):
    bad = tmp_path / "landless.msf"
    bad.write_text(LANDLESS)
    code, out, err = run_cli(capsys, "census", str(bad))
    assert (code, out) == (1, "")
    assert err == f"msflow: error: {InvalidSystemError(validate(parse(LANDLESS)))}\n"


def test_census_text(capsys):
    code, out, _ = run_cli(capsys, "census", "fig3.msf")
    assert code == 0
    assert "census of fig3: 6 resolution(s) in 4 class(es)" in out


def test_census_json_round_trips_the_library_facts(capsys):
    code, payload, _ = run_json(capsys, "census", "fig3.msf")
    assert code == 0
    report = census(load_fixture("fig3.msf"))
    assert payload["total"] == report.total
    assert [cls["size"] for cls in payload["classes"]] == [cls.size for cls in report.classes]
    q_outs = [
        [dict(member[0]["q_out"]) for member in cls["members"]]
        for cls in payload["classes"]
    ]
    # the two depicted replacements sit in the same class
    assert [{"q0": 1, "q1": 1}, {"q0": 1, "q2": 1}] in q_outs


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_census_output_matches_golden(capsys, name):
    code, out, _ = run_cli(capsys, "census", f"{name}.msf")
    assert code == 0
    assert out == (GOLDEN_DIR / f"census_{name}.txt").read_text()
    code, out, _ = run_cli(capsys, "census", f"{name}.msf", "--json")
    assert code == 0
    assert out == (GOLDEN_DIR / f"census_{name}.json").read_text()


def test_compare_output_matches_golden_on_every_fixture_pair(capsys):
    # Exit code, stdout and stderr of ``msflow compare a b`` and of its --json
    # form for every ordered pair of bundled fixtures, mapping lines included.
    golden = json.loads((GOLDEN_DIR / "compare_pairs.json").read_text(encoding="utf-8"))
    names = sorted(p.name for p in fixtures_dir().iterdir() if p.suffix in (".msf", ".pos"))
    assert sorted(golden) == sorted(f"{a} {b}" for a in names for b in names)
    for pair, expected in golden.items():
        for mode, extra in (("text", ()), ("json", ("--json",))):
            code, out, err = run_cli(capsys, "compare", *pair.split(), *extra)
            assert {"exit": code, "stdout": out, "stderr": err} == expected[mode], (pair, mode)


def test_census_with_a_clashing_sink_name(capsys, tmp_path):
    # fig3 with its sink q0 renamed to the default name of the new source
    text = fixture_path("fig3.msf").read_text()
    clash = tmp_path / "fig3-clash.msf"
    clash.write_text(text.replace("rest q0 0", "rest p_gamma 0").replace("conn gamma q0 1", "conn gamma p_gamma 1"))
    code, out, err = run_cli(capsys, "census", str(clash))
    assert (code, err) == (0, "")
    assert out.startswith("census of fig3: 6 resolution(s) in 4 class(es)\n")
    assert "orbit gamma -> (p_gamma_2, q_gamma)" in out


def chain_pos(length: int, prefix: str) -> str:
    nodes = "".join(f"node {prefix}{i} {i % 3}\n" for i in range(length))
    return nodes + "".join(f"lt {prefix}{i} {prefix}{i + 1}\n" for i in range(length - 1))


def test_compare_long_chains_needs_no_recursion(tmp_path):
    a, b = tmp_path / "chain-a.pos", tmp_path / "chain-b.pos"
    a.write_text(chain_pos(1200, "n"))
    b.write_text(chain_pos(1200, "m"))
    result = subprocess.run(
        [sys.executable, "-m", "msflow", "compare", str(a), str(b)], capture_output=True, text=True
    )
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[1] == "isomorphic: yes"
    assert lines[2] == "mapping: " + " ".join(sorted(f"n{i}->m{i}" for i in range(1200)))


def test_cyclic_pos_error_does_not_depend_on_the_hash_seed(tmp_path):
    # Set iteration order follows PYTHONHASHSEED; the error must not.
    cyclic = tmp_path / "cycle.pos"
    cyclic.write_text("node a 0\nnode b 0\nnode c 0\nnode d 0\nlt a b\nlt b c\nlt c d\nlt d a\n")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "msflow", "poset", str(cyclic)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2", "5")
    ]
    assert {(r.returncode, r.stdout, r.stderr) for r in runs} == {
        (1, "", "msflow: error: not antisymmetric: a <= b and b <= a\n")
    }


# The C locale's preferred encoding is ASCII; EncodingWarning turned into an
# error catches any file opened in the locale's encoding, even where the
# bytes would have decoded.
C_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": "utf-8"}


def test_files_are_utf8_whatever_the_locale(tmp_path):
    system = tmp_path / "cafe.msf"
    system.write_bytes(fixture_path("fig3.msf").read_bytes().replace(b"label fig3", "label café sphere".encode()))
    choice = tmp_path / "choice.msc"
    choice.write_text(
        "orbit gamma\nnew p_gamma q_gamma\npout q0 1\npout q1 1\npout q2 1\npout s 2\nqout q0 1\nqout q1 1\n",
        encoding="utf-8",
    )
    commands = [
        (["validate", str(system)], "validate café sphere: OK"),
        (["perturb", str(system), "--orbit", "gamma", "--all", "--out", str(tmp_path / "all")], "perturb café sphere,"),
        (["perturb", str(system), "--orbit", "gamma", "--choice", str(choice), "--out", str(tmp_path / "one.msf")], "wrote"),
        (["compare", str(tmp_path / "one.msf"), str(tmp_path / "all" / "cafe-gamma-01.msf")], "compare café sphere vs café sphere"),
        (["census", str(system)], "census of café sphere: 6 resolution(s)"),
    ]
    for argv, first in commands:
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "msflow", *argv],
            capture_output=True, env={**os.environ, **C_LOCALE},
        )
        assert (result.returncode, result.stderr.decode("utf-8")) == (0, ""), argv
        assert result.stdout.decode("utf-8").startswith(first), argv
    written = sorted((tmp_path / "all").iterdir()) + [tmp_path / "one.msf"]
    assert len(written) == 7
    for path in written:
        assert path.read_bytes().startswith("dim 2\nlabel café sphere\n".encode()), path.name


# ---------------------------------------------------------------------------
# JSON parity with library results


def test_validate_json(capsys):
    code, payload, _ = run_json(capsys, "validate", "fig5.msf")
    assert code == 0
    assert payload == {
        "command": "validate", "input": "fig5", "strict": False, "ok": True, "violations": [],
    }


def test_homology_json_matches_library(capsys):
    code, payload, _ = run_json(capsys, "homology", "fig5.msf")
    assert code == 0
    assert payload["betti"] == betti(build_complex(load_fixture("fig5.msf")))
    assert payload["matches_expected"] is False


def test_homology_refusal_json(capsys):
    code, payload, _ = run_json(capsys, "homology", "fig6.msf")
    assert code == 2
    assert payload["refused"] is True
    expected = [
        {"degree": v.degree, "source": v.source.label, "target": v.target.label}
        for v in check_d2(build_complex(load_fixture("fig6.msf")))
    ]
    assert payload["violations"] == expected


def test_d2_json_matches_library(capsys):
    code, payload, _ = run_json(capsys, "d2", "fig6.msf")
    assert code == 0
    assert [v["source"] for v in payload["violations"]] == ["r1", "r2"]


def test_compare_json(capsys):
    code, payload, _ = run_json(capsys, "compare", "fig4-X1.msf", "fig4-X2.msf")
    assert code == 0
    assert payload["isomorphic"] is True
    assert payload["mapping"]["q1"] == "q2"
    assert payload["verdict"] == "necessary conditions pass (inconclusive)"


# ---------------------------------------------------------------------------
# input resolution


def test_literal_path_wins(capsys, tmp_path):
    system = load_fixture("fig5.msf")
    mine = tmp_path / "mine.msf"
    mine.write_text(serialize(system))
    code, out, _ = run_cli(capsys, "validate", str(mine))
    assert code == 0
    assert "OK" in out


def test_fixtures_env_var_is_searched(capsys, tmp_path, monkeypatch):
    (tmp_path / "local-system.msf").write_text("dim 2\nrest q 0\n")
    monkeypatch.setenv("MSFLOW_FIXTURES", str(tmp_path))
    code, out, _ = run_cli(capsys, "validate", "local-system.msf")
    assert code == 0
    assert "local-system" in out


def test_env_var_does_not_shadow_literal_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MSFLOW_FIXTURES", str(tmp_path))  # empty directory
    code, _, _ = run_cli(capsys, "validate", str(fixture_path("fig5.msf")))
    assert code == 0


def test_bundled_fixtures_are_the_fallback(capsys, monkeypatch):
    monkeypatch.delenv("MSFLOW_FIXTURES", raising=False)
    code, _, _ = run_cli(capsys, "homology", "fig4-X3.msf")
    assert code == 0


# ---------------------------------------------------------------------------
# the installed entry points


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "msflow", "homology", "fig4-X2.msf"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "b0=1 b1=0 b2=1" in result.stdout


def console_script_target() -> str:
    """The ``msflow`` entry of [project.scripts] in pyproject.toml."""
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.search(r'^msflow\s*=\s*"([^"]+)"', section, re.M)[1]


def test_console_script_runs():
    """The console script works without an install: its target imports, and
    calling it, ``python -m msflow`` and any ``msflow`` executable on PATH
    all print the subcommand help."""
    module, _, attr = console_script_target().partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    commands = [
        [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())", "--help"],
        [sys.executable, "-m", "msflow", "--help"],
    ]
    if shutil.which("msflow"):
        commands.append(["msflow", "--help"])
    for command in commands:
        result = subprocess.run(command, capture_output=True, text=True)
        assert result.returncode == 0, command
        assert "validate" in result.stdout and "census" in result.stdout


# Prints, on its last line, the top-level packages outside the standard
# library that ``import msflow`` (no arguments) or ``python -m msflow <args>``
# adds to sys.modules.
LOAD_PROBE = """
import runpy, sys
startup = set(sys.modules)
if len(sys.argv) > 1:
    sys.argv = ["msflow", *sys.argv[1:]]
    try:
        runpy.run_module("msflow", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        assert done.code == 0, done.code
else:
    import msflow
loaded = {name.split(".")[0] for name in set(sys.modules) - startup}
print(sorted(loaded - set(sys.stdlib_module_names)))
"""


@pytest.mark.parametrize("argv", [[], ["homology", "fig5.msf"]])
def test_msflow_loads_only_the_standard_library(argv):
    """Zero runtime dependencies: importing msflow or running a command loads
    nothing outside the standard library but msflow itself."""
    result = subprocess.run([sys.executable, "-c", LOAD_PROBE, *argv], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "['msflow']"
