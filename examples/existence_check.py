"""Theorem 4.1: deciding whether a hazard-free cover exists at all.

Some (function, transition set) pairs have *no* hazard-free sum-of-products
implementation: the covering conditions (every required cube inside one
product) and the intersection conditions (no product may clip a 1->0
transition cube without holding its start point) can be unsatisfiable
together.  The exact method can only discover this after generating every
dhf-prime implicant; Espresso-HF's check (Theorem 4.1) needs one forced
``supercube_dhf`` chain per required cube.

Run: python examples/existence_check.py
"""

from repro.cubes import Cover
from repro.hazards import (
    HazardFreeInstance,
    Transition,
    existence_report,
    supercube_dhf,
)
from repro.hf import espresso_hf, NoSolutionError

# Inputs a, b, c.  ON = ab + bc', OFF = ab' + a'bc.
on = Cover.from_strings(["11-", "-10"])
off = Cover.from_strings(["10-", "011"])
transitions = [
    Transition((1, 1, 1), (1, 0, 0)),  # f falls; privileged cube a, start abc
    Transition((0, 1, 0), (1, 1, 0)),  # f holds 1; required cube bc'
]
instance = HazardFreeInstance(on, off, transitions, name="unsolvable")

report = existence_report(instance)
print(f"hazard-free cover exists: {report.exists}")
for q in report.failures:
    print(
        f"   required cube {q.cube.input_string()} (output {q.output}, "
        f"transition {q.transition}) has no dhf-supercube"
    )

# Walk the forced expansion chain by hand to see why.
priv = instance.privileged_for_output(0)
off0 = instance.off_for_output(0)
bad = report.failures[0].cube
print(f"\nforced expansion chain for {bad.input_string()}:")
print(f"   bc' = {bad.input_string()} illegally intersects privileged cube "
      f"{priv[0].cube.input_string()} (start {priv[0].start.input_string()})")
grown = bad.supercube(priv[0].start)
print(f"   -> absorb the start point: {grown.input_string()}")
hits = [o.input_string() for o in off0 if grown.intersects_input(o)]
print(f"   -> {grown.input_string()} intersects the OFF-set ({hits[0]}): undefined")
assert supercube_dhf([bad], priv, off0) is None

print("\nEspresso-HF refuses the instance up front, naming the same cubes:")
try:
    espresso_hf(instance)
except NoSolutionError as err:
    assert err.failures == report.failures
    print(f"   NoSolutionError: {err}")
