"""Finite-memory reinforcement and its effect on consensus.

When reinforcement balls expire after M steps the draw process becomes a
Markov chain of order M.  The demo shows the law reduction at M >= n, then
sweeps the expected consensus value over memory lengths for weak and strong
reinforcement with a polarized initial opinion vector.  Emits the sweep
table as CSV.
"""

from pathlib import Path

from polyagraph import (
    FiniteMemoryParams,
    UrnParams,
    memory_sweep,
    opinion_preset,
    polya_joint_pmf,
    sample_polya,
)
from polyagraph.io import write_sweep_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

params = UrnParams(5, 5, 2)

print("--- the finite-memory law ---")
fm1 = FiniteMemoryParams(params, memory=1)
print(f"M = 1: P(1,1,1) = {polya_joint_pmf(fm1, (1, 1, 1)):.7f} "
      f"(infinite memory: {polya_joint_pmf(params, (1, 1, 1)):.7f})")
fm_big = FiniteMemoryParams(params, memory=6)
z = (1, 0, 1, 1, 0, 1)
print(f"M = 6 covers the horizon, laws coincide: "
      f"{polya_joint_pmf(fm_big, z):.10f} vs {polya_joint_pmf(params, z):.10f}")
print(f"sampled with M = 2: {sample_polya(FiniteMemoryParams(params, 2), 12, seed=5).draws}")

print("\n--- memory sweep of the expected consensus ---")
n, runs = 10, 2000
x0 = opinion_preset("polarized", n)
print(f"n = {n}, x(0) polarized ({int(x0[0])} / {int(x0[-1])}), {runs} runs per cell")
points = memory_sweep(
    params, n,
    deltas=(0.2, 1.0, 10.0),
    memories=(1, 2, 4, 6, 8, 10),
    runs=runs,
    x0=x0,
    seed=42,
)
print(f"{'delta':>6} {'M':>3} {'value':>9} {'se':>7} {'baseline':>9}")
for p in points:
    print(f"{p.delta:>6} {p.memory:>3} {p.value:>9.4f} {p.std_error:>7.4f} {p.baseline:>9.4f}")
print("weak reinforcement barely notices the memory; strong reinforcement")
print("drifts with M and returns to the baseline once M reaches n")

sweep_path = OUT / "memory_sweep.csv"
write_sweep_csv(sweep_path, points)
print(f"\nwrote {sweep_path}")
