"""Three ways to analyse a cover for hazards, plus VCD waveform export.

Takes the textbook static-1 hazard (f = ab + a'c during an `a` change with
b = c = 1) and analyses the hazardous and the repaired cover with:

1. the Theorem 2.11 verifier (algebraic, exact),
2. the eight-valued waveform algebra (exact for two-level logic, also
   classifies the hazard type),
3. Monte-Carlo delay simulation (operational witness), exporting the
   glitching waveform to a VCD file for a waveform viewer.

Run: python examples/hazard_analysis.py
"""

from repro.cubes import Cover
from repro.detect import Netlist
from repro.hazards import HazardFreeInstance, Transition, verify_hazard_free_cover
from repro.simulate import (
    classify_network,
    find_glitch,
    has_static_hazard_ternary,
)
from repro.simulate.vcd import write_vcd

# f = ab + a'c; the transition drops a while b = c = 1, so f stays 1.
hazardous = Cover.from_strings(["11-", "0-1"])
repaired = Cover.from_strings(["11-", "0-1", "-11"])  # + consensus cube bc
transition = Transition((1, 1, 1), (0, 1, 1))

on = Cover.from_strings(["11-", "0-1", "-11"])
off = Cover.from_strings(["0-0", "10-"])
instance = HazardFreeInstance(on, off, [transition], name="textbook")

print("transition: a falls with b = c = 1 (f must hold 1)\n")
for label, cover in [("hazardous f = ab + a'c", hazardous),
                     ("repaired  f = ab + a'c + bc", repaired)]:
    network = Netlist.from_cover(cover)
    print(f"{label}:")
    violations = verify_hazard_free_cover(instance, cover)
    print(f"   Theorem 2.11 : {violations[0] if violations else 'hazard-free'}")
    print(f"   8-valued sim : output class {classify_network(network, transition).name}")
    print(f"   ternary sim  : {'X (potential hazard)' if has_static_hazard_ternary(network, transition) else 'stable 1'}")
    glitch = find_glitch(network, transition, trials=400)
    if glitch:
        waveform = " -> ".join(str(v) for _, v in glitch.output_waveform)
        print(f"   Monte-Carlo  : GLITCH found (trial {glitch.trial}): {waveform}")
        write_vcd("hazard.vcd", {"f": glitch.output_waveform})
        print("                  waveform written to hazard.vcd")
    else:
        print("   Monte-Carlo  : clean over 400 random delay assignments")
    print()

print("the consensus cube bc holds the output at 1 while ab and a'c trade "
      "places — exactly what\nhazard-free minimization inserts automatically.")
