"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload census_family --seed 1 --seconds 12 --trace 0

The checkout root is the parent of this directory; msflow is imported from
its ``src/``.  One client runs whole rounds of the workload's requests in a
closed loop for about ``--seconds``, and the oracles in ``oracles.py`` check
every answer afterwards.  ``--trace 0`` reports the end-to-end metrics named
in BENCHMARK.json; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics, per round.  A readable summary goes to
stderr; the last line of stdout is the JSON result.

Every reported time is a wall time rescaled to a fixed machine speed: a
reference loop is timed before each operation, and the operation's time is
multiplied by REF_S over the median of the three reference times around it.
On a shared host whose speed drifts by tens of percent over seconds this
cuts the run-to-run spread several-fold (see bench/README.md).  The traced
run reports the median speed factor and the unscaled median latency too, so
that a comparison between commits can see when the factor itself moved.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"  # scratch files and dumps, inside the checkout
SETUP_PROBES = 3  # setup_s is the median of this many fresh processes
CLI_PROBES = 5
WORKLOADS = ("census_family", "grid_complex", "grid_compare", "cli_fixtures")
REF_S = 0.005  # the reference loop's time on the quiet machine the baseline came from


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work just now."""
    t0 = time.perf_counter()
    x = 0
    for j in range(70_000):
        x += j * j % 7
    return time.perf_counter() - t0


class OpTimeout(Exception):
    """The per-operation time limit fired."""


def _alarm(signum, frame):
    raise OpTimeout()


class Outcome:
    __slots__ = ("request", "seconds", "ref", "scaled", "status", "answer", "op", "traced")

    def __init__(self, request, seconds: float, ref: float, status: str, answer, op: int, traced: bool):
        self.request, self.seconds, self.ref, self.status, self.answer = request, seconds, ref, status, answer
        self.op, self.traced, self.scaled = op, traced, seconds


def execute(requests, limit_s: float, tracer=None) -> list[Outcome]:
    """Run each request once under the per-operation time limit, each after
    a reference timing."""
    outcomes = []
    for request in requests:
        op = 0
        if tracer is not None:
            tracer.op += 1
            op = tracer.op
        ref = reference()
        answer, status = None, "ok"
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            answer = request.run()
        except OpTimeout:
            status = "timeout"
        except RecursionError:
            status = "RecursionError"
        except Exception as err:  # any other raise is a failed operation, reported in the summary
            status = f"{type(err).__name__}: {err}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcomes.append(Outcome(request, time.perf_counter() - t0, ref, status, answer, op, tracer is not None))
    return outcomes


def rescale(outcomes: list[Outcome]) -> None:
    """Scale each operation to REF_S by the median of the reference timed
    before it, before the previous one and after it (the next one's)."""
    refs = [o.ref for o in outcomes] + [reference()]
    for i, o in enumerate(outcomes):
        o.scaled = o.seconds * REF_S / statistics.median(refs[max(0, i - 1) : i + 2])


def judge(outcomes: list[Outcome]) -> None:
    """Check every answer with its oracle; a wrong one is a failed operation."""
    for outcome in outcomes:
        if outcome.status != "ok":
            continue
        try:
            right = bool(outcome.request.check(outcome.answer))
        except Exception:  # an answer the check cannot read is wrong
            right = False
        if not right:
            outcome.status = "wrong answer"
        outcome.answer = None


def loop(seconds: float, body, min_count: int = 1) -> int:
    """Call ``body`` whole times: once, then as many more as bring the total
    operation time, scaled, nearest to ``seconds``, and at least
    ``min_count`` in all.  ``body`` returns its outcomes.  Counting scaled
    time keeps the count, and so the sample size, the same when the machine
    runs slow; the floor keeps it from dropping by a round when a round's
    time sits near a rounding boundary.  Returns the count."""
    first = sum(o.seconds * REF_S / o.ref for o in body())
    count = max(min_count, round(seconds / first))
    for _ in range(count - 1):
        body()
    return count


def percentile(values: list[float], pct: float) -> float:
    """Linearly interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency(outcome: Outcome, limit_s: float) -> float:
    """Scaled time of one operation; a failed one is charged the limit on
    top, so it always counts as having missed the limit."""
    return outcome.scaled if outcome.status == "ok" else limit_s + outcome.scaled


def scaled_wall(argv: list[str], env=None, until_line: bool = False) -> float:
    """Scaled wall time of a child process: until it exits, or until it
    prints its first line.  The child must exit with status 0."""
    before = reference()
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as proc:
        (proc.stdout.readline if until_line else proc.stdout.read)()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited with status {proc.returncode}")
    return wall * REF_S / ((before + reference()) / 2)


def prepare(workload: str, seed: int):
    """Generate and parse the inputs, then warm up on the first request."""
    import workloads

    WORK.mkdir(exist_ok=True)
    wl = workloads.setup(workload, seed, WORK)
    execute(wl.round[:1], wl.limit_s)
    return wl


def measure(wl, seconds: float) -> tuple[dict, list[Outcome]]:
    outcomes: list[Outcome] = []
    start = time.perf_counter()

    def one_round():
        outcomes.extend(execute(wl.round, wl.limit_s))
        return outcomes[-len(wl.round) :]

    rounds = loop(seconds, one_round, wl.min_rounds)
    elapsed = time.perf_counter() - start
    rss_kb = max(wl.child_rss_kb) if wl.child_rss_kb else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rescale(outcomes)
    judge(outcomes)
    times = [latency(o, wl.limit_s) for o in outcomes]
    metrics = {
        "throughput_ops_s": sum(o.status == "ok" for o in outcomes) / sum(times),
        "latency_ms.p50": 1000 * percentile(times, 50),
        "latency_ms.tail": 1000 * percentile(times, wl.tail_pct),
        "peak_rss_mb": rss_kb / 1024,
    }
    print(f"{wl.name}: {rounds} round(s) of {len(wl.round)} in {elapsed:.2f} s; tail is p{wl.tail_pct}", file=sys.stderr)
    return metrics, outcomes


def measure_traced(wl, seconds: float, seed: int) -> tuple[dict, list[Outcome]]:
    import spans
    from workloads import cli_env

    tracer = spans.Tracer()
    requests = wl.traced_round or wl.round
    outcomes: list[Outcome] = []

    def pair():
        outcomes.extend(execute(requests, wl.limit_s))
        with tracer.installed():
            outcomes.extend(execute(requests, wl.limit_s, tracer))
        return outcomes[-2 * len(requests) :]

    rounds = loop(seconds, pair)
    rescale(outcomes)
    plain = [o for o in outcomes if not o.traced]
    metrics = tracer.layer_metrics(rounds, {o.op: o.scaled / o.seconds for o in outcomes if o.traced})
    busy = sum(o.scaled for o in outcomes if o.traced) / sum(o.scaled for o in plain)
    metrics["trace.overhead_pct"] = 100 * (busy - 1)
    metrics["host.speed_factor"] = statistics.median(REF_S / o.ref for o in plain)
    metrics["host.raw_latency_ms.p50"] = 1000 * statistics.median(o.seconds for o in plain)
    metrics["cli.run_s"] = statistics.median(o.scaled for o in plain) if wl.traced_round else 0.0
    env = cli_env(ROOT)
    interpreter = statistics.median(scaled_wall([sys.executable, "-c", "pass"], env) for _ in range(CLI_PROBES))
    imported = statistics.median(scaled_wall([sys.executable, "-c", "import msflow"], env) for _ in range(CLI_PROBES))
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = imported - interpreter
    dump = WORK / f"spans-{wl.name}-{seed}.jsonl"
    tracer.write(dump)
    print(f"{wl.name}: {rounds} untraced + {rounds} traced round(s); {len(tracer.spans)} spans in {dump}", file=sys.stderr)
    judge(outcomes)
    return metrics, outcomes


def report(wl, args, metrics: dict, outcomes: list[Outcome], wanted: list[dict]) -> dict:
    """Write the per-operation dump and the readable summary; return the result."""
    with open(WORK / f"ops-{wl.name}-{args.seed}.jsonl", "w") as dump:
        for o in outcomes:
            row = {"kind": o.request.kind, "seconds": o.seconds, "reference": o.ref, "scaled": o.scaled, "status": o.status}
            dump.write(json.dumps(row) + "\n")
    kinds: dict[str, list[Outcome]] = {}
    for o in outcomes:
        kinds.setdefault(o.request.kind, []).append(o)
    for kind, group in kinds.items():
        median_ms = 1000 * statistics.median(o.scaled for o in group)
        print(f"  {kind:<42} {median_ms:>14.6g} ms median of {len(group)}", file=sys.stderr)
    speed = statistics.median(REF_S / o.ref for o in outcomes)
    print(f"  {'machine speed (REF_S / reference)':<42} {speed:>14.6g} median", file=sys.stderr)
    for m in wanted:
        print(f"  {m['name']:<42} {metrics[m['name']]:>14.6g} {m['unit']}", file=sys.stderr)
    failures: dict[str, int] = {}
    for o in outcomes:
        if o.status != "ok":
            failures[f"{o.request.kind}: {o.status}"] = failures.get(f"{o.request.kind}: {o.status}", 0) + 1
    failed = sum(failures.values())
    print(f"  {'failed_share':<42} {failed / len(outcomes):>14.6g} ({failed} of {len(outcomes)})", file=sys.stderr)
    for key, count in sorted(failures.items()):
        print(f"  failed x{count}: {key}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "msflow" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: {ROOT} holds no msflow sources (src/msflow) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _alarm)
    # One CPU for this process and its children, so that the reference loop
    # and the operations it scales run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    probe = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    setup_s = statistics.median(scaled_wall(probe, until_line=True) for _ in range(SETUP_PROBES))
    wl = prepare(args.workload, args.seed)
    if args.trace:
        metrics, outcomes = measure_traced(wl, args.seconds, args.seed)
    else:
        metrics, outcomes = measure(wl, args.seconds)
        metrics["setup_s"] = setup_s
    result = report(wl, args, metrics, outcomes, spec["per_layer"] if args.trace else spec["end_to_end"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
