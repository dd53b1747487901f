"""Command-line front end: msflow {validate|complex|d2|homology|perturb|poset|compare|census}.

Every command reads .msf / .msc / .pos files, prints a deterministic
human-readable report (or JSON with --json), and signals through exit codes:
0 report delivered, 1 input or validation error, 2 semantic refusal
(homology on a complex whose differential does not square to zero).

File arguments that do not resolve as paths are looked up by basename in
$MSFLOW_FIXTURES (if set) and then in the bundled fixture directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import ejcomplex, flowdata, perturb, poset
from .ejcomplex import ChainComplexGF2, D2Error, InvalidSystemError
from .flowdata import FlowSystem


BUNDLED_FIXTURES = Path(__file__).parent / "fixtures"


def fixtures_dir() -> Path:
    """The bundled fixture directory (overridable via $MSFLOW_FIXTURES)."""
    return Path(os.environ.get("MSFLOW_FIXTURES") or BUNDLED_FIXTURES)


def resolve_input(path_str: str) -> Path:
    """Resolve a file argument: literal path, then $MSFLOW_FIXTURES, then the
    bundled fixtures."""
    p = Path(path_str)
    for candidate in (p, fixtures_dir() / p.name, BUNDLED_FIXTURES / p.name):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"cannot find {path_str!r} (also searched the fixture directories)")


def load_system(path_str: str) -> tuple[FlowSystem, str]:
    path = resolve_input(path_str)
    system = flowdata.parse(path.read_bytes())
    return system, system.label or path.stem


def load_poset(path_str: str) -> tuple[poset.LabeledPoset, str, FlowSystem | None]:
    """Load a .pos poset or the face poset of a gradient .msf system.
    Returns (poset, display name, the flow system or None for a .pos file)."""
    path = resolve_input(path_str)
    if path.suffix == ".pos":
        return poset.parse_poset(path.read_bytes()), path.stem, None
    system = flowdata.parse(path.read_bytes())
    if system.orbits():
        names = ", ".join(e.name for e in system.orbits())
        raise ValueError(f"{path.name} contains closed orbits ({names}); run 'msflow perturb' first")
    return poset.face_poset(system), system.label or path.stem, system


def emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# ---------------------------------------------------------------------------
# Rendering helpers


def render_matrix(cx: ChainComplexGF2, k: int) -> list[str]:
    rows, cols = cx.basis(k - 1), cx.basis(k)
    lines = [f"d_{k} (rows B_{k - 1}, cols B_{k}):"]
    if not rows or not cols:
        lines.append("  (empty)")
        return lines
    mat = cx.boundary(k)
    row_width = max(len(r.label) for r in rows)
    col_widths = [max(len(c.label), 1) for c in cols]
    header = " " * row_width + "".join(" " + c.label.rjust(w) for c, w in zip(cols, col_widths))
    lines.append(header)
    for i, r in enumerate(rows):
        entries = "".join(" " + str(mat[i, j]).rjust(w) for j, w in enumerate(col_widths))
        lines.append(r.label.ljust(row_width) + entries)
    return lines


def render_complex(cx: ChainComplexGF2, name: str) -> str:
    lines = [f"chain complex of {name} (top degree {cx.top_degree})"]
    for k in range(cx.top_degree, -1, -1):
        basis = cx.basis(k)
        lines.append(f"B_{k}: " + (" ".join(e.label for e in basis) if basis else "(empty)"))
    for k in range(cx.top_degree, 0, -1):
        lines.extend(render_matrix(cx, k))
    lines.append(f"euler characteristic: {ejcomplex.euler_characteristic(cx)}")
    return "\n".join(lines) + "\n"


def complex_payload(cx: ChainComplexGF2, name: str) -> dict:
    return {
        "command": "complex",
        "input": name,
        "top_degree": cx.top_degree,
        "bases": {str(k): [e.label for e in cx.basis(k)] for k in range(cx.top_degree + 1)},
        "matrices": {str(k): cx.boundary(k).tolist() for k in range(1, cx.top_degree + 1)},
        "euler": ejcomplex.euler_characteristic(cx),
    }


def descriptor_payload(d: perturb.ChoiceDescriptor) -> dict:
    return {
        "orbit": d.orbit,
        "p": d.p_name,
        "q": d.q_name,
        "p_out": dict(d.p_out),
        "q_out": dict(d.q_out),
        "p_in": dict(d.p_in),
        "q_in": dict(d.q_in),
    }


def claims_payload(report: perturb.ClaimsReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "case": report.case,
        "claims": [
            {"name": o.name, "description": o.description, "passed": o.passed, "witnesses": list(o.witnesses)}
            for o in report.outcomes
        ],
        "products_equal": report.products_equal,
        "products_zero": report.products_zero,
        "all_passed": report.all_passed,
    }


def claims_text(report: perturb.ClaimsReport | None) -> str:
    if report is None:
        return "claims: (not evaluated)"
    bits = " ".join(f"{o.name}={'pass' if o.passed else 'FAIL'}" for o in report.outcomes)
    return f"claims ({report.case}): {bits}"


def witnesses(violations: list[ejcomplex.D2Violation]) -> tuple[list[dict], str]:
    """The d2 witnesses as JSON and as text lines."""
    payload = [{"degree": v.degree, "source": v.source.label, "target": v.target.label} for v in violations]
    return payload, "\n".join(str(v) for v in violations)


def resolution_payload(d: perturb.ChoiceDescriptor, result: perturb.PerturbationResult) -> dict:
    return {
        "descriptor": descriptor_payload(d),
        "attaching_degree": result.attaching_degree,
        "claims": claims_payload(result.claims_report),
    }


def write_resolution(out_path: Path, text: str, d: perturb.ChoiceDescriptor, result: perturb.PerturbationResult) -> str:
    """Write the resolved system's .msf ``text`` and say what was written."""
    out_path.write_text(text, encoding="utf-8")
    return f"wrote {out_path}  [{d.summary()}]  {claims_text(result.claims_report)}"


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> int:
    system, name = load_system(args.file)
    violations = flowdata.validate(system, strict=args.strict)
    payload = {
        "command": "validate",
        "input": name,
        "strict": args.strict,
        "ok": not violations,
        "violations": [{"rule": v.rule, "elements": list(v.elements), "message": v.message} for v in violations],
    }
    if violations:
        text = f"validate {name}: {len(violations)} violation(s)\n" + "\n".join(str(v) for v in violations)
    else:
        text = f"validate {name}: OK ({len(system.elements)} elements, {len(system.connections)} connections)"
    emit(args, payload, text)
    return 1 if violations else 0


def cmd_complex(args) -> int:
    system, name = load_system(args.file)
    cx = ejcomplex.build_complex(system)
    emit(args, complex_payload(cx, name), render_complex(cx, name))
    return 0


def cmd_d2(args) -> int:
    system, name = load_system(args.file)
    cx = ejcomplex.build_complex(system)
    violations = ejcomplex.check_d2(cx)
    found, listing = witnesses(violations)
    payload = {"command": "d2", "input": name, "violations": found}
    if violations:
        text = f"d2 check of {name}: {len(violations)} violation(s)\n" + listing
    else:
        text = f"d2 check of {name}: boundary composition is zero in every degree"
    emit(args, payload, text)
    return 0


def cmd_homology(args) -> int:
    system, name = load_system(args.file)
    cx = ejcomplex.build_complex(system)
    try:
        numbers = ejcomplex.betti(cx)
    except D2Error as err:
        found, listing = witnesses(err.violations)
        payload = {"command": "homology", "input": name, "refused": True, "violations": found}
        emit(args, payload, f"homology of {name}: refused, differential does not square to zero\n" + listing)
        return 2
    expected = list(system.expected_betti) if system.expected_betti is not None else None
    matches = expected == numbers if expected is not None else None
    payload = {
        "command": "homology",
        "input": name,
        "refused": False,
        "betti": numbers,
        "expected": expected,
        "matches_expected": matches,
    }
    lines = [f"homology of {name}: " + " ".join(f"b{k}={b}" for k, b in enumerate(numbers))]
    if expected is not None:
        declared = " ".join(str(b) for b in expected)
        computed = " ".join(str(b) for b in numbers)
        if matches:
            lines.append(f"declared expect-betti {declared} matches")
        else:
            lines.append(f"note: declared expect-betti {declared} does not match computed {computed}")
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_poset(args) -> int:
    p, name, _ = load_poset(args.file)
    payload = {
        "command": "poset",
        "input": name,
        "nodes": [{"name": x, "label": p.label(x)} for x in p.nodes],
        "covers": [list(c) for c in p.covers()],
    }
    lines = [f"poset of {name}: {len(p)} nodes"]
    lines += [f"node {x} {p.label(x)}" for x in p.nodes]
    lines.append("covers:")
    lines += [f"{a} < {b}" for a, b in p.covers()]
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_compare(args) -> int:
    pa, name_a, system_a = load_poset(args.file_a)
    pb, name_b, system_b = load_poset(args.file_b)
    verdict = poset.is_isomorphic(pa, pb)

    # cell_equivalence_verdict's summary, read off this verdict: the face
    # posets are labeled by index, so differing cell counts per dimension
    # are differing node counts per label, and not isomorphic either way.
    summary: str | None = None
    if system_a is not None and system_b is not None:
        summary = poset.INCONCLUSIVE if verdict.isomorphic else poset.NOT_EQUIVALENT

    payload = {
        "command": "compare",
        "inputs": [name_a, name_b],
        "isomorphic": verdict.isomorphic,
        "mapping": verdict.mapping_dict() if verdict.isomorphic else None,
        "certificate": verdict.certificate,
        "verdict": summary,
    }
    lines = [f"compare {name_a} vs {name_b}", f"isomorphic: {'yes' if verdict.isomorphic else 'no'}"]
    if verdict.isomorphic:
        lines.append("mapping: " + (" ".join(f"{x}->{y}" for x, y in verdict.mapping) or "(empty)"))
    if verdict.certificate:
        lines.append(f"certificate: {verdict.certificate}")
    if summary is not None:
        lines.append(f"verdict: {summary}")
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_perturb(args) -> int:
    system, name = load_system(args.file)
    if violations := flowdata.validate(system):
        raise InvalidSystemError(violations)
    if args.all:
        choices = perturb.enumerate_choices_2d(system, args.orbit)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = Path(resolve_input(args.file)).stem
        entries = []
        lines = [f"perturb {name}, orbit {args.orbit}: {len(choices)} choice(s)"]
        for i, d in enumerate(choices, start=1):
            result = perturb.apply_choice(system, d)
            out_path = out_dir / f"{stem}-{args.orbit}-{i:02d}.msf"
            lines.append(write_resolution(out_path, flowdata.serialize(result.system), d, result))
            entries.append({"file": str(out_path), **resolution_payload(d, result)})
        emit(args, {"command": "perturb", "input": name, "orbit": args.orbit, "results": entries}, "\n".join(lines))
        return 0

    descriptor = perturb.parse_choice(resolve_input(args.choice).read_bytes())
    if descriptor.orbit != args.orbit:
        raise ValueError(f"--orbit {args.orbit} does not match the choice's orbit {descriptor.orbit}")
    result = perturb.apply_choice(system, descriptor)
    serialized = flowdata.serialize(result.system)
    payload = {"command": "perturb", "input": name, **resolution_payload(descriptor, result), "system": serialized}
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        text = write_resolution(out_path, serialized, descriptor, result)
    else:
        text = serialized
    emit(args, payload, text)
    return 0


def cmd_census(args) -> int:
    system, name = load_system(args.file)
    report = poset.census(system)
    payload = {
        "command": "census",
        "input": name,
        "total": report.total,
        "classes": [
            {
                "size": cls.size,
                "members": [[descriptor_payload(d) for d in combo] for combo in cls.members],
            }
            for cls in report.classes
        ],
    }
    lines = [f"census of {name}: {report.total} resolution(s) in {len(report.classes)} class(es)"]
    for idx, cls in enumerate(report.classes, start=1):
        lines.append(f"class {idx} ({cls.size} member(s)):")
        for combo in cls.members:
            lines.append("  " + ("; ".join(d.summary() for d in combo) if combo else "(gradient input, no choices)"))
    emit(args, payload, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msflow",
        description="Combinatorial Morse-Smale flows: chain complexes over GF(2), orbit removal, face-poset comparison.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a .msf system against the structural rules")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true", help="additionally enforce the 2D saddle separatrix budget")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("complex", parents=[common], help="print the chain-complex bases and boundary matrices")
    p.add_argument("file")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("d2", parents=[common], help="list the witnesses that the boundary fails to square to zero")
    p.add_argument("file")
    p.set_defaults(func=cmd_d2)

    p = sub.add_parser("homology", parents=[common], help="compute GF(2) Betti numbers (refuses when d2 != 0)")
    p.add_argument("file")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("perturb", parents=[common], help="replace a closed orbit by a rest-point pair")
    p.add_argument("file")
    p.add_argument("--orbit", required=True, help="name of the orbit to replace")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="write every enumerated choice to --out")
    group.add_argument("--choice", help="apply a single .msc choice descriptor")
    p.add_argument("--out", help="output directory for --all, or output file for --choice")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("poset", parents=[common], help="print the face poset of a gradient system or .pos file")
    p.add_argument("file")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("compare", parents=[common], help="decide labeled poset isomorphism of two inputs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("census", parents=[common], help="group all orbit resolutions by face-poset isomorphism")
    p.add_argument("file")
    p.set_defaults(func=cmd_census)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "all", False) and not args.out:
        print("msflow: error: --all needs --out <directory>", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # the reader left, as `| head` does: not an input error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # nothing left to flush at exit
        return 1
    except (OSError, ValueError) as err:  # parse, choice and validation errors are ValueErrors
        print(f"msflow: error: {err}", file=sys.stderr)
        return 1
