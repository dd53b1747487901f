"""Face posets, bases, and why isomorphism checks need certificates.

A CW complex orders its cells by "lies in the closure of"; a gradient-like
flow orders its rest points by "flows down to".  The bundled pair of
four-cell complexes (fig2-Y / fig2-Yprime) differ only in where the 2-cell
attaches, and the base of that cell — the smallest subcomplex containing
it, i.e. its downset — tells them apart: two cells versus all four.

When two posets are not isomorphic the checker says why, in tiers: per-label
counts, then downset-size multisets, then pairwise incidence multisets, then
full signature multisets, with a backtracking search as the final word.
"""

from msflow import face_poset, is_isomorphic, parse, parse_poset
from msflow.cli import fixtures_dir


def load_pos(name):
    return parse_poset((fixtures_dir() / name).read_text())


y = load_pos("fig2-Y.pos")
yprime = load_pos("fig2-Yprime.pos")

print("Y nodes:", dict(sorted(y.labels().items())))
print("base of the 2-cell d in Y:      ", sorted(y.downset("d")))
print("base of the 2-cell d in Y-prime:", sorted(yprime.downset("d")))

verdict = is_isomorphic(y, yprime)
print("isomorphic:", verdict.isomorphic)
print("certificate:", verdict.certificate)
print()

# The same machinery applied to flows: face posets of two gradient systems.
x1 = face_poset(parse((fixtures_dir() / "fig4-X1.msf").read_text()))
x3 = face_poset(parse((fixtures_dir() / "fig4-X3.msf").read_text()))
print("covers of the first variant:", x1.covers())
verdict = is_isomorphic(x1, x3)
print("isomorphic:", verdict.isomorphic)
print("certificate:", verdict.certificate)
