"""The benchmark's four workloads.

``setup(name, seed, work)`` generates and parses a workload's inputs and
returns a ``Workload``: one round of requests, each a closed-loop operation
plus the oracle check of its answer.  Every round holds the same requests, so
any number of whole rounds has the same mix.  msflow is called through module
attributes at call time, so the tracer's patched bindings are the ones used.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import msflow
import msflow.cli

import gen


@dataclass
class Request:
    """One operation: ``run`` is timed, ``check`` judges its answer later."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    limit_s: float  # per-operation time limit
    # latency_ms.tail percentile: at least 10 samples beyond it in a run of
    # min_rounds rounds.  It may sit below the highest such percentile: a
    # round's requests and the tail percentile are picked so that both
    # percentiles land among the samples of one request instead of between
    # two requests' extremes.
    tail_pct: int
    round: list[Request]
    # Rounds a run holds at least: as many as fit in BENCHMARK.json's
    # run_seconds at the seed commit, so that the sample size, and the samples
    # beyond the tail percentile, stay the same from run to run.
    min_rounds: int
    traced_round: list[Request] | None = None  # in-process stand-in when round spawns processes
    child_rss_kb: list[int] = field(default_factory=list)  # peak RSS per child, when ops spawn them


def setup(name: str, seed: int, work: Path) -> Workload:
    return SETUPS[name](random.Random(seed), work)


# ---------------------------------------------------------------------------
# census_family: census of the k-orbits-over-m-sinks scaling family

# Five cheap shapes; five seeded systems of (2,6,4), which hold the median;
# five of (2,6,5), which hold the tail percentile; (4,6,2); and (3,6,3),
# about 40% of a round on its own.  A percentile that falls among samples of
# one shape moves far less from run to run than one that falls between two.
CENSUS_SHAPES = (
    (3, 4, 2), (3, 5, 2), (3, 6, 2), (3, 7, 2), (3, 8, 2),
    (2, 6, 4), (2, 6, 4), (2, 6, 4), (2, 6, 4), (2, 6, 4),
    (2, 6, 5), (2, 6, 5), (2, 6, 5), (2, 6, 5), (2, 6, 5),
    (4, 6, 2), (3, 6, 3),
)


def _census(system):
    report = msflow.census(system)
    return report.total, tuple(sorted(cls.size for cls in report.classes))


def census_family(rng: random.Random, work: Path) -> Workload:
    requests = []
    for k, m, d in CENSUS_SHAPES:
        spec = gen.family_system(k, m, d, rng)
        system = msflow.parse(spec.msf())
        expected = functools.cache(lambda spec=spec, k=k, d=d: _expected_census(spec, k, d))
        requests.append(Request(f"census {k},{m},{d}", functools.partial(_census, system), lambda got, e=expected: got == e()))
    return Workload("census_family", limit_s=60.0, tail_pct=70, round=requests, min_rounds=2)


def _expected_census(spec, k, d):
    import oracles

    return oracles.resolution_count(k, d), tuple(oracles.family_class_sizes(spec))


# ---------------------------------------------------------------------------
# grid_complex: homology, refusal and claims on cubical torus grids


def _homology(text):
    system = msflow.parse(text)
    violations = msflow.validate(system)
    cx = msflow.build_complex(system)
    witnesses = frozenset((v.degree, v.source.label, v.target.label) for v in msflow.check_d2(cx))
    try:
        return len(violations), witnesses, tuple(msflow.betti(cx)), None
    except msflow.D2Error as err:
        return len(violations), witnesses, None, frozenset((v.degree, v.source.label, v.target.label) for v in err.violations)


def _claims(system, choice):
    report = msflow.apply_choice(system, choice).claims_report
    return report.case, report.all_passed


def grid_complex(rng: random.Random, work: Path) -> Workload:
    import oracles

    claims_spec = gen.grid_system(gen.torus_cells(2, 12), 12, rng)
    orbit = gen.add_orbit(claims_spec, rng, index=1, feeders=0, drains=3, drain_index=0)
    claims_system = msflow.parse(claims_spec.msf())
    choices = rng.sample(msflow.enumerate_choices_2d(claims_system, orbit), 5)

    def homology(dim, m):
        spec = gen.grid_system(gen.torus_cells(dim, m), m, rng)
        want = (0, frozenset(), tuple(oracles.torus_betti(dim)), None)
        return Request(f"homology T{dim} m={m}", functools.partial(_homology, spec.msf()), want.__eq__)

    def refusal(m):
        spec = gen.grid_system(gen.torus_cells(3, m), m, rng)
        gen.add_orbit(spec, rng, index=1, feeders=2, drains=3, drain_index=1)
        want = functools.cache(lambda: oracles.d2_witnesses(spec))
        return Request(f"refusal T3 m={m}", functools.partial(_homology, spec.msf()), lambda got: got == (0, want(), None, want()))

    def claims(i):
        return Request("claims T2 m=12", functools.partial(_claims, claims_system, choices[i]), ("repeller", True).__eq__)

    # Five claims operations and three 2-torus grids with m=16 cost about the
    # same and hold both percentiles; six cheaper requests and m=20 flank them.
    requests = [
        homology(3, 4), claims(0), refusal(4), claims(1), homology(2, 12), claims(2), homology(2, 14),
        claims(3), refusal(5), claims(4), homology(3, 5), homology(2, 16), homology(2, 16),
        homology(2, 16), homology(2, 20),
    ]
    return Workload("grid_complex", limit_s=20.0, tail_pct=75, round=requests, min_rounds=3)


# ---------------------------------------------------------------------------
# grid_compare: poset isomorphism, torus vs renamed torus and torus vs Klein

# Torus pairs compare a grid with a copy under seeded names that carry no
# coordinates, so the search has to find the mapping; torus against Klein
# must run the search to exhaustion.  At the seed commit the copy's search
# time varies several-fold with its names (m=6: 0.06-0.59 s, m=7: 0.18-4.3 s,
# m=8: past the 10 s limit on 3 of 8 seeds), so a round holds many torus
# pairs of m=4 to 6 and leaves m=7 out: one m=7 pair would double the
# run-to-run spread of throughput.  Both grids of a Klein pair are named from
# their glued edge, so the exhaustive search costs the same on every seed.
# Percentiles land among samples of one request, away from the edges of their
# spread: the median among the Klein pairs with m=3, which as many requests
# undercut (torus m=4 and the faster half of m=5) as exceed; the tail among
# the 16 Klein pairs with m=4, the slowest requests.
TORUS_PAIRS = (4,) * 20 + (5,) * 24 + (6,) * 6
KLEIN_PAIRS = (3,) * 20 + (4,) * 16


def _compare(a, b):
    verdict = msflow.is_isomorphic(a, b)
    return verdict.isomorphic, verdict.mapping


def grid_compare(rng: random.Random, work: Path) -> Workload:
    import oracles

    def poset(spec):
        return msflow.face_poset(msflow.parse(spec.msf()))

    # Torus-Klein pairs of one size differ only in names, so networkx decides
    # each size once.
    verdicts: dict[int, bool] = {}

    def distinct(m, a, b):
        if m not in verdicts:
            verdicts[m] = not oracles.nx_isomorphic(a, b)
        return verdicts[m]

    def torus_pair(m):
        a = gen.grid_system(gen.torus_cells(2, m), m, rng)
        b = gen.grid_system(gen.torus_cells(2, m), m, rng, coords=False)
        check = lambda got: got[0] and oracles.is_cover_isomorphism(a, b, dict(got[1]))
        return Request(f"torus vs renamed torus m={m}", functools.partial(_compare, poset(a), poset(b)), check)

    def klein_pair(m):
        a = gen.grid_system(gen.torus_cells(2, m), m, rng, shift=False)
        b = gen.grid_system(gen.klein_cells(m), m, rng, shift=False)
        check = lambda got: not got[0] and distinct(m, a, b)
        return Request(f"torus vs klein m={m}", functools.partial(_compare, poset(a), poset(b)), check)

    # The two pair types alternate until the Klein pairs run out.
    pairs = itertools.zip_longest(map(torus_pair, TORUS_PAIRS), map(klein_pair, KLEIN_PAIRS))
    requests = [request for pair in pairs for request in pair if request is not None]
    return Workload("grid_compare", limit_s=10.0, tail_pct=88, round=requests, min_rounds=1)


# ---------------------------------------------------------------------------
# cli_fixtures: python -m msflow on the bundled fixtures


def _golden_complex(path: Path) -> dict:
    """Bases, matrices and Euler characteristic read from a golden
    ``msflow complex`` rendering."""
    bases, matrices, euler, degree = {}, {}, None, None
    for line in path.read_text().splitlines():
        if match := re.match(r"B_(\d+): (.*)", line):
            bases[match[1]] = [] if match[2] == "(empty)" else match[2].split()
        elif match := re.match(r"d_(\d+) \(rows", line):
            degree, matrices[match[1]] = match[1], None
        elif match := re.match(r"euler characteristic: (-?\d+)", line):
            euler = int(match[1])
        elif degree is not None and matrices[degree] is None:
            matrices[degree] = []  # the column header
        elif degree is not None:
            matrices[degree].append([int(x) for x in line.split()[1:]])
    return {"bases": bases, "matrices": matrices, "euler": euler}


def _cli_checks(root: Path, work: Path) -> dict[str, tuple[list[str], Callable, Callable]]:
    """argv plus text and JSON checks of (exit code, stdout) per command form.
    The facts come from tests/golden/ and the README's worked examples."""
    golden_text = (root / "tests" / "golden" / "fig5_complex.txt").read_text()
    golden = _golden_complex(root / "tests" / "golden" / "fig5_complex.txt")
    choice = work / "fig3-gamma.msc"
    out_dir = work / "cli-out"
    claims_ok = "claims (repeller): i=pass ii=pass iii=pass"
    return {
        "validate": (
            ["validate", "fig3.msf"],
            lambda rc, out: rc == 0 and out.startswith("validate fig3: OK"),
            lambda rc, out: rc == 0 and json.loads(out)["ok"] is True,
        ),
        "complex": (
            ["complex", "fig5.msf"],
            lambda rc, out: rc == 0 and out == golden_text,
            lambda rc, out: rc == 0 and {k: json.loads(out)[k] for k in ("bases", "matrices", "euler")} == golden,
        ),
        "d2": (
            ["d2", "fig6.msf"],
            lambda rc, out: rc == 0 and "2 violation(s)" in out,
            lambda rc, out: rc == 0 and len(json.loads(out)["violations"]) == 2,
        ),
        "homology": (
            ["homology", "fig5.msf"],
            lambda rc, out: rc == 0 and "b0=2 b1=1 b2=1" in out,
            lambda rc, out: rc == 0 and json.loads(out)["betti"] == [2, 1, 1],
        ),
        "homology-refused": (
            ["homology", "fig6.msf"],
            lambda rc, out: rc == 2 and "refused" in out and out.count("d2.d3 != 0") == 2,
            lambda rc, out: rc == 2 and json.loads(out)["refused"] is True and len(json.loads(out)["violations"]) == 2,
        ),
        "perturb-all": (
            ["perturb", "fig3.msf", "--orbit", "gamma", "--all", "--out", str(out_dir)],
            lambda rc, out: rc == 0 and "6 choice(s)" in out and out.count(claims_ok) == 6,
            lambda rc, out: rc == 0 and [r["claims"]["all_passed"] for r in json.loads(out)["results"]] == [True] * 6,
        ),
        "perturb-choice": (
            ["perturb", "fig3.msf", "--orbit", "gamma", "--choice", str(choice)],
            lambda rc, out: rc == 0 and "rest p_gamma 2" in out and "conn p_gamma q_gamma 2" in out,
            lambda rc, out: rc == 0 and json.loads(out)["claims"]["all_passed"] is True,
        ),
        "poset": (
            ["poset", "fig2-Y.pos"],
            lambda rc, out: rc == 0 and out.startswith("poset of fig2-Y: 4 nodes"),
            lambda rc, out: rc == 0 and len(json.loads(out)["nodes"]) == 4,
        ),
        "compare": (
            ["compare", "fig4-X1.msf", "fig4-X3.msf"],
            lambda rc, out: rc == 0 and "isomorphic: no" in out,
            lambda rc, out: rc == 0 and json.loads(out)["isomorphic"] is False,
        ),
        "census": (
            ["census", "fig3.msf"],
            lambda rc, out: rc == 0 and out.startswith("census of fig3: 6 resolution(s) in 4 class(es)"),
            lambda rc, out: rc == 0 and (json.loads(out)["total"], len(json.loads(out)["classes"])) == (6, 4),
        ),
    }


def _spawn(argv: list[str], work: Path, env: dict, rss: list[int]) -> tuple[int, str]:
    """Run ``python -m msflow argv`` to completion; record its peak RSS."""
    with open(work / "stdout", "w+b") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "msflow", *argv], stdout=out, stderr=subprocess.DEVNULL, cwd=work, env=env
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # the time limit fired: stop the child, then re-raise
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss.append(usage.ru_maxrss)
        out.seek(0)
        return proc.returncode, out.read().decode()


def _in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = msflow.cli.run(argv)
    return rc, out.getvalue()


def cli_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MSFLOW_FIXTURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def cli_fixtures(rng: random.Random, work: Path) -> Workload:
    root = Path(__file__).resolve().parent.parent
    (work / "fig3-gamma.msc").write_text(
        "orbit gamma\nnew p_gamma q_gamma\npout q0 1\npout q1 1\npout q2 1\npout s 2\nqout q0 2\n"
    )
    env = cli_env(root)
    forms = []
    for name, (argv, text_ok, json_ok) in _cli_checks(root, work).items():
        forms += [(name, argv, text_ok), (name + " --json", argv + ["--json"], json_ok)]
    rng.shuffle(forms)
    forms.sort(key=lambda form: form[0] != "validate")  # the cheapest forms lead: one doubles as warm-up

    workload = Workload("cli_fixtures", limit_s=20.0, tail_pct=80, round=[], min_rounds=3, traced_round=[])
    for name, argv, ok in forms:
        check = lambda got, ok=ok: ok(*got)
        workload.round.append(Request(name, functools.partial(_spawn, argv, work, env, workload.child_rss_kb), check))
        workload.traced_round.append(Request(name, functools.partial(_in_process, argv), check))
    return workload


SETUPS = {
    "census_family": census_family,
    "grid_complex": grid_complex,
    "grid_compare": grid_compare,
    "cli_fixtures": cli_fixtures,
}
