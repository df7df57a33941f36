"""Desk-scale logical-error-rate experiment.

Validates the Monte Carlo engine against the exact three-qubit closed
form, fits the textbook code's log-log slope, and runs the paired
pipeline comparison under combined Pauli + rotation noise: the detecting
pipeline can never do worse than the baseline at shared seeds, because
correction only removes failure causes.

Trial counts here are kept small so the script runs in seconds; the
acceptance suite runs the full-size versions.
"""

import math
import warnings

from hqec.noise import AngleDistribution, NoiseModel
from hqec.experiments import (
    SweepConfig,
    closed_form_three_qubit,
    figure1_csv,
    figure1_data,
    fit_threshold,
    run_sweep,
    scaling_model,
    suppression_factor,
)

print("== Monte Carlo vs exact closed form (three-qubit, bit flips) ==")
config = SweepConfig(
    code_id="three",
    noise=NoiseModel(p=0.0, pauli_weights=(1.0, 0.0, 0.0)),
    p_values=(0.02, 0.05, 0.1, 0.2),
    trials=20_000,
    seed=7,
)
for pt in run_sweep(config).points:
    exact = closed_form_three_qubit(pt.p)
    print(f"  p={pt.p:<5} estimated={pt.p_L:.5f} exact={exact:.5f} "
          f"(+-{3 * pt.stderr:.5f} at 3 sigma)")

print()
print("== slope of the textbook [[5,1,3]] code under depolarizing noise ==")
config = SweepConfig(
    code_id="perfect5",
    noise=NoiseModel(p=0.0),
    p_values=tuple(0.003 * (10 ** (k / 4)) for k in range(5)),
    trials=40_000,
    seed=1,
)
result = run_sweep(config)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    fit = fit_threshold(result)
print(f"  fitted slope: {fit.exponent:.3f} (single-error correction shows as ~2)")
print(f"  threshold conventions: intercept {fit.p_th:.4f}, crossing {fit.p_th_crossing:.4f}")

print()
print("== suppression factor from the scaling law ==")
p_th, p = 0.015, 0.015 / 2.14
lam = suppression_factor(scaling_model(p, p_th, 3), scaling_model(p, p_th, 5))
print(f"  at p = p_th / 2.14 the d -> d+2 ratio is {lam:.2f}")

print()
print("== paired pipelines under Pauli + rotation noise ==")
noise = NoiseModel(p=0.0, p_rot=0.05, rot_angle=AngleDistribution("fixed", math.pi / 8))
base = dict(
    code_id="perfect5",
    noise=noise,
    p_values=(0.002, 0.005, 0.01, 0.02),
    trials=5_000,
    seed=42,
)
data = figure1_data(SweepConfig(**base))
print("  p        baseline    detecting")
for std_pt, q_pt in zip(data.standard.points, data.quaternionic.points):
    print(f"  {std_pt.p:<8} {std_pt.p_L:<11.5f} {q_pt.p_L:.5f}")
print("baseline failures are dominated by undetected rotations; the")
print("detecting pipeline removes them and leaves only the Pauli floor")
print()
print("first lines of the combined CSV (annotation columns carry the")
print("published target exponents and thresholds):")
for line in figure1_csv(data).splitlines()[:3]:
    print("  " + line)
