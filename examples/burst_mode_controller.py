"""Synthesize and minimize a hand-written burst-mode controller.

Models a small DMA-style bus controller in the burst-mode style the paper's
benchmarks come from: states, input bursts (sets of input changes that can
arrive in any order) and output bursts.  The controller is synthesized into
a hazard-free minimization instance (next-state + output logic with one-hot
fed-back state variables), minimized with Espresso-HF, verified, written to
a PLA file, and spot-checked with the Monte-Carlo delay simulator.

Inputs : req (transfer request), grant (bus grant), done (device done)
Outputs: busreq (bus request), xfer (transfer enable)

Run: python examples/burst_mode_controller.py
"""

from repro.bm import BurstModeSpec, synthesize
from repro.detect import Netlist
from repro.hf import espresso_hf
from repro.hazards import verify_hazard_free_cover
from repro.pla import write_pla
from repro.simulate import find_glitch

REQ, GRANT, DONE = 0, 1, 2
BUSREQ, XFER = 0, 1

spec = BurstModeSpec(n_inputs=3, n_outputs=2, name="dma-ctrl")
spec.add_state("idle")
spec.add_state("arbitrating")
spec.add_state("transfer")

# idle --[req+ / busreq+]--> arbitrating
spec.add_transition("idle", "arbitrating", input_burst={REQ}, output_burst={BUSREQ})
# arbitrating --[grant+ / xfer+]--> transfer
spec.add_transition("arbitrating", "transfer", input_burst={GRANT}, output_burst={XFER})
# transfer --[done+, req- / xfer-, busreq-]--> idle' (polarities toggled)
spec.add_transition(
    "transfer", "idle", input_burst={DONE, REQ}, output_burst={XFER, BUSREQ}
)

print(f"spec: {spec}")
for state in spec.states.values():
    for t in state.transitions:
        print(f"   {t}")

result = synthesize(spec)
instance = result.instance
print(f"\nsynthesized: {instance}")
print(f"   total states (after polarity unrolling): {result.n_synth_states}")
print(f"   {result.state_names}")
print(f"   required cubes  : {len(instance.required_cubes())}")
print(f"   privileged cubes: {len(instance.privileged_cubes())}")

hf = espresso_hf(instance)
print(f"\nEspresso-HF: {hf.summary()}")
violations = verify_hazard_free_cover(instance, hf.cover)
print(f"verification: {'hazard-free' if not violations else violations}")

print("\nminimized next-state + output logic (inputs: req grant done | state one-hot):")
for cube in hf.cover.sorted():
    print(f"   {cube.input_string()}  ->  {cube.output_string()}")

write_pla(instance, "dma-ctrl.pla")
write_pla(hf.cover, "dma-ctrl.min.pla", pla_type="f", name="dma-ctrl minimized")
print("\nwrote dma-ctrl.pla (instance) and dma-ctrl.min.pla (minimized cover)")

print("\nMonte-Carlo glitch check on every specified transition / output:")
clean = True
network = Netlist.from_cover(hf.cover)
for j in range(instance.n_outputs):
    for t in instance.transitions:
        if find_glitch(network, t, trials=100, seed=j, output=j) is not None:
            clean = False
print("   no glitches found" if clean else "   GLITCH FOUND (bug!)")
