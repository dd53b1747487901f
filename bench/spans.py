"""Span tracing of msflow's public functions, installed from outside.

``Tracer.installed()`` replaces each traced function at every module binding
of it inside the msflow package (the modules import names from each other, so
``rank`` is also ``ejcomplex.rank`` and ``validate`` is also
``poset.validate``) and puts the originals back on exit.  Each call records a
span: name, start, end, parent span and operation id.  Spans stay in memory
until ``write`` dumps them; ``layer_metrics`` turns them into calls and self
time per function plus counters of the work each layer did.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Public functions traced per layer module; LabeledPoset.__init__ is added
# separately because it is a method.
TRACED = {
    "gf2": ("rank", "multiply"),
    "flowdata": ("parse", "validate", "serialize"),
    "ejcomplex": ("build_complex", "check_d2", "betti", "compare_matrices"),
    "perturb": ("enumerate_choices_2d", "apply_choice", "verify_franks_claims", "resolve_all_detailed"),
    "poset": ("face_poset", "invariant_profile", "is_isomorphic", "census"),
    "cli": ("run",),
}
INIT_SPAN = "poset.LabeledPoset.init"

# Certificate text of each non-isomorphic IsoVerdict, by the invariant tier
# that decided it (see msflow.poset._profile_certificate).
TIERS = (
    ("node counts per label differ", "label_counts"),
    ("downset-size multisets", "downset_sizes"),
    ("incidence multisets differ", "incidence"),
    ("per-node signature multisets differ", "signatures"),
    ("invariant profiles agree but no", "search_exhausted"),
)
TIER_NAMES = tuple(name for _, name in TIERS) + ("search_found",)


def tier(verdict) -> str:
    """The tier that decided an IsoVerdict, read from its certificate."""
    if verdict.isomorphic:
        return "search_found"
    for text, name in TIERS:
        if text in (verdict.certificate or ""):
            return name
    raise ValueError(f"unclassified isomorphism certificate {verdict.certificate!r}")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._open: list[int] = []

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, *args)
            index = len(spans)
            spans.append(None)  # reserved, so children can name their parent
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # A tuple of atoms drops out of the garbage collector's scans.
                spans[index] = (name, start, time.perf_counter(), parent, self.op)
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        return traced

    def _hooks(self, name: str) -> dict:
        def entries(counts, *matrices):
            counts["gf2.entries_computed"] += sum(m.rows * m.cols for m in matrices[:2])

        def witnesses(counts, found):
            counts["ejcomplex.d2_witnesses"] += len(found)

        def resolutions(counts, found):
            counts["perturb.resolutions"] += len(found)

        def verdicts(counts, verdict):
            counts["poset.iso.tier." + tier(verdict)] += 1

        return {
            "gf2.rank": {"before": entries},
            "gf2.multiply": {"before": entries},
            "ejcomplex.check_d2": {"after": witnesses},
            "perturb.resolve_all_detailed": {"after": resolutions},
            "poset.is_isomorphic": {"after": verdicts},
        }.get(name, {})

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        import msflow.cli  # noqa: F401  (cli is not imported by the package)

        modules = [m for key, m in sorted(sys.modules.items()) if key == "msflow" or key.startswith("msflow.")]
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules["msflow." + layer]
            for fn_name in names:
                original = getattr(module, fn_name)
                span = f"{layer}.{fn_name}"
                wrappers[id(original)] = (original, self._wrap(span, original, **self._hooks(span)))
        patched = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)][1])
            cls = sys.modules["msflow.poset"].LabeledPoset
            init = cls.__init__
            patched.append((cls, "__init__", init))
            cls.__init__ = self._wrap(INIT_SPAN, init)
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def layer_metrics(self, rounds: int, scale: dict[int, float]) -> dict[str, float]:
        """Calls, self time and counters per round of requests; ``scale``
        maps an operation id to the factor its times are multiplied by."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start - child_time[i]) * scale.get(op, 1.0)
        out = {}
        for layer, names in TRACED.items():
            for fn_name in names:
                span = f"{layer}.{fn_name}"
                out[span + ".calls"] = calls[span] / rounds
                out[span + ".self_s"] = self_s[span] / rounds
        out[INIT_SPAN + ".calls"] = calls[INIT_SPAN] / rounds
        out[INIT_SPAN + ".self_s"] = self_s[INIT_SPAN] / rounds
        for key in ("gf2.entries_computed", "ejcomplex.d2_witnesses", "perturb.resolutions"):
            out[key] = self.counts[key] / rounds
        decided = sum(self.counts["poset.iso.tier." + t] for t in TIER_NAMES)
        for t in TIER_NAMES:
            out["poset.iso.tier." + t] = self.counts["poset.iso.tier." + t] / rounds
        out["poset.iso.useful_ratio"] = self.counts["poset.iso.tier.search_found"] / decided if decided else 0.0
        out["poset.iso.useful_ratio.base"] = decided / rounds
        return out

    def write(self, path) -> None:
        """One JSON line per span, in start order."""
        with open(path, "w") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
