"""Averaging consensus on connected realizations.

Runs one trajectory to its closed-form limit, then reproduces the
10-node experiment: 200 independent seeded runs, consensus values read at
t = 100, compared with the exact expected value pi_E . x(0).
Emits the trajectory and histogram data as CSV.
"""

import math
from pathlib import Path

import numpy as np

from polyagraph import (
    UrnParams,
    averaging_matrix,
    expected_stationary_exact,
    expected_stationary_mc,
    iterate,
    opinion_preset,
    sample_connected_graph,
)
from polyagraph.consensus import AveragingOperator
from polyagraph.io import write_histogram_csv, write_trajectory_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

params = UrnParams(5, 5, 2)
n = 10
x0 = opinion_preset("paper-n10", n)

print("--- one realization, one trajectory ---")
g = sample_connected_graph(params, n, seed=11)
print(f"draws = {g.draws} (last node forced universal, so the graph is connected)")
sys_ = averaging_matrix(g)
print(f"stationary weights pi* = {np.round(sys_.pi_star, 4)}")
traj = iterate(sys_, x0, tol=1e-12)
print(f"x(0) = {tuple(x0)}")
print(f"limit pi* . x(0) = {traj.limit:.10f}, reached tolerance at t = {traj.converged_at}")
print("high-degree nodes move little and drag the rest toward them")
traj_path = OUT / "trajectory_n10.csv"
write_trajectory_csv(traj_path, traj)
print(f"wrote {traj_path}")

print("\n--- expected consensus weights ---")
exact = expected_stationary_exact(params, n)  # forward-backward DP over (red count, W)
mc = expected_stationary_mc(params, n, runs=20000, seed=99)
print(f"exact pi_E      = {np.round(exact.pi, 5)}")
print(f"monte carlo pi_E = {np.round(mc.pi, 5)} (20000 runs)")
print(f"largest entry is the forced-universal node {n}")

print("\n--- the 200-run histogram experiment ---")
runs, t = 200, 100
# all runs step together through one set of buffers: row r is the
# realization of stream (2024, r), and W.power(x0, t) is x(t) of every run
W = AveragingOperator.sample(params, n, runs, seed=2024)
snapshots = W.power(x0, t).mean(axis=1)
theory = float(exact.pi @ x0)
se = snapshots.std(ddof=1) / math.sqrt(runs)
print(f"sample mean of consensus values at t = {t}: {snapshots.mean():.6f}")
print(f"exact expected value pi_E . x(0):          {theory:.6f}")
print(f"difference = {abs(snapshots.mean() - theory) / se:.2f} standard errors")
hist_path = OUT / "histogram_n10.csv"
write_histogram_csv(hist_path, snapshots, sample_mean=float(snapshots.mean()), theoretical=theory)
print(f"wrote {hist_path}")
