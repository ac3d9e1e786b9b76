"""The degree-3 pipeline, step by step.

2-connected hosts are labeled by one walk around the boundary: chord
endpoints alternate 0/1, 2-vertex runs fill with 0/1 plus a single 2 when
the run is odd, chords take 3, outer edges alternate 4/5.  An odd boundary
gets a small seam repair inside one endface.  Hosts with cut vertices are
peeled one leaf block at a time.
"""

from outerlabel import Graph, label_delta3, label_k2, recognize_embed, span, verify
from outerlabel.delta3 import Diagnostics, LabelK2Options, pin_outer_edge
from outerlabel import generators as gen

# --- the canonical walk -------------------------------------------------------

g = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
f, trace = label_k2(recognize_embed(g))
print("hexagon + chord:")
print(" vertex labels:", [f.vertex(v) for v in range(6)])
print(" chord label:  ", f.edge(0, 3))
print(" outer edges:  ", [f.edge(i, (i + 1) % 6) for i in range(6)])

# --- odd boundary: the seam repair ---------------------------------------------

g7 = Graph.from_edges([(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
f, trace = label_k2(recognize_embed(g7))
print("\n7-cycle + chord (odd boundary):")
print(" repaired face:", trace.seam_face)
print(" patched elements:", sorted(trace.patched, key=repr))
print(" verified:", not verify(f, 2), " span:", span(f))

# --- steering the walk ----------------------------------------------------------

opts = LabelK2Options(start_vertex=3, start_parity=1)
f, _ = label_k2(recognize_embed(g), opts)
pin_outer_edge(f, (1, 2), 5)  # exchanges 4 and 5 on every edge if needed
print("\nsteered walk: start at 3 with label 1; edge (1,2) pinned to 5")
print(" vertex labels:", [f.vertex(v) for v in range(6)],
      " edge (1,2):", f.edge(1, 2))

# --- cut vertices ----------------------------------------------------------------

# a chorded block and a chordless square hanging off the same bridge path
g = Graph.from_edges(
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3),   # chorded block
     (1, 6),                                                   # bridge
     (6, 7), (7, 8), (8, 9), (9, 6)]                           # leaf square
)
print("\ncut-vertex host: max degree", g.max_degree())
d = Diagnostics()
f = label_delta3(g, d)
print(" span:", span(f), " verified:", not verify(f, 2))

# --- the guarantee over a corpus -------------------------------------------------

worst = 0
for seed in range(200):
    try:
        h = gen.gen_glued_outerplanar(11, seed=seed,
                                      constraints={"max_degree": 3}, retries=15)
    except gen.ConstraintsUnsatisfiable:
        continue
    lab = label_delta3(h)
    assert not verify(lab, 2)
    worst = max(worst, span(lab))
print("\nworst span over 200 degree-3 samples:", worst, "(bound is 5)")
