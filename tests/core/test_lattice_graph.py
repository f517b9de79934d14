"""Tests validating the lattice against networkx as an independent
graph library."""

import networkx as nx

from repro.datagen.publications import query1


def to_networkx(lattice):
    """The lattice as a directed graph, finer -> coarser: one node per
    point, one edge per single relaxation step (``successors``)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(lattice.points())
    for point in lattice.points():
        for successor in lattice.successors(point):
            graph.add_edge(point, successor)
    return graph


def graph_and_lattice():
    lattice = query1().lattice()
    return to_networkx(lattice), lattice


class TestGraphStructure:
    def test_is_dag(self):
        graph, _ = graph_and_lattice()
        assert nx.is_directed_acyclic_graph(graph)

    def test_node_and_point_counts(self):
        graph, lattice = graph_and_lattice()
        assert graph.number_of_nodes() == lattice.size() == 30

    def test_single_source_and_sink(self):
        graph, lattice = graph_and_lattice()
        sources = [n for n in graph if graph.in_degree(n) == 0]
        sinks = [n for n in graph if graph.out_degree(n) == 0]
        assert sources == [lattice.top]
        assert sinks == [lattice.bottom]

    def test_everything_reachable_from_top(self):
        graph, lattice = graph_and_lattice()
        reachable = nx.descendants(graph, lattice.top)
        assert len(reachable) == lattice.size() - 1

    def test_topological_order_agrees(self):
        graph, lattice = graph_and_lattice()
        order = lattice.topo_finer_first()
        position = {point: i for i, point in enumerate(order)}
        for finer, coarser in graph.edges:
            assert position[finer] < position[coarser]

    def test_transitive_reduction_within_edges(self):
        # Every edge is a single relaxation step, so the graph's
        # reachability must equal the lattice's leq relation.
        graph, lattice = graph_and_lattice()
        closure = nx.transitive_closure(graph)
        points = list(lattice.points())
        for first in points[:12]:
            for second in points[:12]:
                if first == second:
                    continue
                assert closure.has_edge(first, second) == (
                    lattice.leq(first, second)
                ), (first, second)
