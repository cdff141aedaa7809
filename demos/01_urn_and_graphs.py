"""Walk through the urn draw process and the graphs it generates.

Samples reinforced draw sequences, evaluates their exact joint law, builds
the corresponding threshold graphs, and round-trips the weight
characterization.  Emits a graph JSON document and an edge CSV into
demos/out/.
"""

from pathlib import Path

from polyagraph import (
    UrnParams,
    beta_binomial_pmf,
    build_graph,
    creation_sequence_from_weights,
    polya_joint_pmf,
    sample_polya,
    weights_from_sequence,
)
from polyagraph.io import graph_json_payload, write_edge_csv, write_json

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

params = UrnParams(red_initial=5, black_initial=5, reinforcement=2)
print(f"urn: R = {params.red_initial}, B = {params.black_initial}, "
      f"reinforcement = {params.reinforcement}  (rho = {params.rho}, delta = {params.delta})")

print("\n--- sampling ---")
for seed in (1, 2, 3):
    z = sample_polya(params, n=12, seed=seed)
    print(f"seed {seed}: draws = {z.draws}, reds = {sum(z.draws)}")
print("reinforcement at work: long runs of one color are common even at rho = 1/2")

print("\n--- exact joint law ---")
for z in ((1,), (1, 1), (1, 0), (0, 1)):
    print(f"P{z} = {polya_joint_pmf(params, z):.7f}")
print("(1,0) and (0,1) agree: the process is exchangeable")
print(f"P(two reds among 2 draws) = {beta_binomial_pmf(params, 2, 2):.7f} (Beta-Binomial)")

print("\n--- graph construction ---")
z = (1, 0, 0, 1, 0)
g = build_graph(z)
print(f"draws {z} -> edges {sorted(g.edge_set())}")
print(f"degrees (self-loop counts once): {list(g.degrees())}, trace = {g.trace()}")
print(f"d(2,3) = {g.distance(2, 3)} (bridged by the universal node 4)")
print(f"d(5,1) = {g.distance(5, 1)} (no universal node after 5)")

print("\n--- weight characterization ---")
w = weights_from_sequence(z, tau=1.0)
print(f"weights realizing the same graph: {tuple(round(x, 4) for x in w.weights)}, tau = {w.threshold}")
seq, relabeling = creation_sequence_from_weights(w)
print(f"peeling extremes recovers draws = {seq.draws}, relabeling = {relabeling}")

json_path = OUT / "graph.json"
edges_path = OUT / "edges.csv"
write_json(json_path, graph_json_payload(g, params=params, seed=None))
write_edge_csv(edges_path, g)
print(f"\nwrote {json_path} and {edges_path}")
