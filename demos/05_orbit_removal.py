"""Trading a closed orbit for a rest-point pair — in every admissible way.

A repelling orbit of index k can be replaced by rest points p (index k+1)
and q (index k) joined by a double connection.  The new source p inherits
the orbit's downstream connections, but the new saddle q has two free
separatrices and nothing dictates where they land: that choice is the whole
story.  For each choice we also verify three structural claims relating the
complexes before and after — the orbit row vanishes, the middle matrices
agree under gamma+ <-> p, gamma- <-> q, and the bottom matrices differ only
in the orbit's column — which together force the composed boundaries to
stay equal (and zero).
"""

from msflow import apply_choice, enumerate_choices_2d, parse, serialize
from msflow.cli import fixtures_dir

system = parse((fixtures_dir() / "fig3.msf").read_text())
print("input:", system.label, "with orbit gamma of index 1")
print()

choices = enumerate_choices_2d(system, "gamma")
print(len(choices), "admissible choices for the saddle's two separatrices:")
for choice in choices:
    result = apply_choice(system, choice)
    report = result.claims_report
    claims = " ".join(f"{o.name}={'pass' if o.passed else 'FAIL'}" for o in report.outcomes)
    print(f"  q_out={dict(choice.q_out)}  claims: {claims}")

print()
print("the replacement with both separatrices on distinct sinks q0, q1:")
chosen = next(c for c in choices if dict(c.q_out) == {"q0": 1, "q1": 1})
print(serialize(apply_choice(system, chosen).system), end="")
