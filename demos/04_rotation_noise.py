"""Rotation errors: invisible to syndromes, visible to component detectors.

A unit-quaternion rotation multiplies amplitudes without moving basis
states, so every stabilizer measurement still reads +1.  The j/k component
strengths expose it, and knowing the parameters lets the inverse rotation
restore the state exactly.
"""

import math

from hqec.quaternion import K_AXIS
from hqec.codes import PauliString, get_code, stabilizer_expectation_sign, syndrome_of
from hqec.noise import (
    AngleDistribution,
    ErrorEvent,
    NoiseModel,
    RotationError,
    apply_event,
    correct_rotation,
    detect_rotations,
    jk_excess,
    sample_error,
)

code = get_code("perfect5")
theta = math.pi / 8

print("== a rotation produces the trivial syndrome ==")
event = ErrorEvent(PauliString.identity(5), (RotationError(2, K_AXIS, theta),))
damaged = apply_event(code.codeword_zero, event)
print("syndrome of the Pauli part:", syndrome_of(event.pauli, code))
print("generator expectation signs on the damaged codeword:",
      [stabilizer_expectation_sign(damaged, g) for g in code.generators])
print("...all +1: a plain syndrome cycle cannot see this error")

print()
print("== but the k-component strength can ==")
flags = detect_rotations(damaged, code.codeword_zero, threshold=0.01)
for flag in flags:
    print(f"  flagged qubit {flag.qubit}: j={flag.j_strength:.4f} k={flag.k_strength:.4f}")
print(f"expected k strength: 0.5 * sin^2(pi/8) = {0.5 * math.sin(theta) ** 2:.4f}")
print(f"global j/k excess before correction: {jk_excess(damaged, code.codeword_zero):.4f}")

print()
print("== inverse rotation restores the codeword ==")
restored = correct_rotation(damaged, 2, K_AXIS, theta)
print(f"excess after correction: {jk_excess(restored, code.codeword_zero):.2e}")
print("states equal:", restored.amps.isclose(code.codeword_zero.amps, tol=1e-12))

print()
print("== sampled events are reproducible from (seed, trial) ==")
model = NoiseModel(p_rot=0.3, rot_angle=AngleDistribution("uniform", math.pi / 6))
for trial in range(3):
    event = sample_error(model, 0.1, 5, seed=123, trial=trial)
    rots = ", ".join(f"q{r.qubit}@{r.angle:.3f}" for r in event.rotations) or "none"
    print(f"  trial {trial}: pauli={event.pauli.label:<6} rotations: {rots}")
again = sample_error(model, 0.1, 5, seed=123, trial=1)
print("resampling trial 1 gives the same event:", again == sample_error(model, 0.1, 5, 123, 1))
