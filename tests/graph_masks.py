"""Graphs decoded from the edge-subset bitmasks the certify sweeps
enumerate, for the tests that check a sweep graph by graph."""

from itertools import combinations

from gapsampler import build_graph


def graph_from_mask(n, mask, require_connected=True):
    """Decode an edge-subset bitmask (bit e = e-th pair of K_n, pairs in
    lexicographic order) into a Graph."""
    pairs = list(combinations(range(n), 2))
    edges = [(u, v) for e, (u, v) in enumerate(pairs) if (mask >> e) & 1]
    return build_graph(n, edges, require_connected=require_connected)
