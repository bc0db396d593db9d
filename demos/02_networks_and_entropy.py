"""From one day's distance matrix to networks, entropy, and hubs.

The co-occurrence network joins assets whose windows currently move alike;
its connected components are the market's blocs, and the entropy of the
bloc-size distribution summarizes how fragmented the market is (high = every
asset on its own; zero = one bloc). Differencing two consecutive distance
matrices yields the differential network, whose red edges mark pairs that
moved apart and blue edges pairs that moved closer; nodes collecting at
least three same-colored edges are the hubs of the day's rewiring.
"""

import numpy as np

from market_rewire import (
    Shock,
    SynthSpec,
    cooccurrence_network,
    connected_components,
    count_hubs,
    difference_matrix,
    differential_network,
    distance_matrix,
    generate,
    graph_based_entropy,
    windows_at,
)
from market_rewire.export import export_graph

panel = generate(
    SynthSpec(n_assets=9, n_days=80, seed=20, shocks=[Shock(45, 70, 0.95)])
)
classes = {m.asset_id: m.asset_class for m in panel.assets}
W = 20

# a calm day: window ends well before the shock
calm = distance_matrix(windows_at(panel, t=40, w=W))
print(f"calm day {calm.end_date}: pairwise distances")
print(np.round(calm.d, 1))

for theta in (1.0, 2.0, 4.0):
    g = cooccurrence_network(calm, theta)
    comps = connected_components(g)
    print(
        f"  threshold {theta}: {len(g.edges)} edges, {len(comps)} components, "
        f"entropy {graph_based_entropy(comps):.3f} bits"
    )

# a stressed day: window fully inside the shock
stressed = distance_matrix(windows_at(panel, t=68, w=W))
g = cooccurrence_network(stressed, 2.0)
comps = connected_components(g)
print(
    f"\nstressed day {stressed.end_date}: {len(g.edges)} edges, "
    f"{len(comps)} component(s), entropy {graph_based_entropy(comps):.3f} bits"
)

# the rewiring between two consecutive days early in the shock
prev = distance_matrix(windows_at(panel, t=48, w=W))
curr = distance_matrix(windows_at(panel, t=49, w=W))
diff = difference_matrix(curr, prev)
sg = differential_network(diff, 1.0, curr.asset_ids, curr.end_date)
hubs = count_hubs(sg, 3)
print(f"\nonset rewiring {prev.end_date} -> {curr.end_date}:")
print(f"  {len(sg.red_edges)} red (farther) edges, {len(sg.blue_edges)} blue (closer) edges")
print(f"  closer hubs : {sorted(hubs.closer_hub_ids)}")
print(f"  farther hubs: {sorted(hubs.farther_hub_ids)}")

print("\nDOT snapshot of the differential network:\n")
print(export_graph(sg, "dot", classes))
