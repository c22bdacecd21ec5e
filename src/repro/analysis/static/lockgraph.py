"""The static lock-order graph.

Nodes are the indexes locks are taken on (base tables, views,
secondary indexes); there is an edge ``u -> v`` when some statement
shape's footprint acquires a lock on ``u`` and *later* one on ``v`` —
i.e. a transaction may hold ``u`` while waiting on ``v``. Deadlock
requires a cycle in the wait-for graph, and every wait-for edge between
one-row statements projects onto a lock-order edge, so **an acyclic
lock-order graph proves the registered views deadlock-free** under the
footprints' one-row model (orders between the rows of one multi-row
statement are outside it), and each strongly connected component is a
deadlock-prone combination worth flagging before any transaction runs
(diagnostic ``SA010``, naming the views whose bindings take the locks
of its edges).

The interesting edges, with the statement shapes that induce them:

* ``left -> right`` — a left-side insert holds the left table's intent
  while it point-reads the matched right row;
* ``right -> left`` — a right-side insert point-reads the left rows that
  reference it and then takes its own key: the opposite order, so a
  single join view already forms a two-table cycle.

A view's writes come after every read of the statement, so an aggregate
view — escrow or not — never reads back into its base and never closes
a cycle: the static restatement of the paper's claim that escrow
maintenance composes without deadlocks.
"""

from repro.analysis.static.footprint import statement_footprint


class LockOrderGraph:
    """Directed multigraph of lock acquisition order."""

    def __init__(self):
        self.nodes = set()
        # (u, v) -> set of footprint labels inducing the edge
        self.edges = {}
        # (u, v) -> set of views whose bindings take either lock
        self.views = {}

    @classmethod
    def from_catalog(cls, catalog, strategy="escrow", serializable=True):
        """Compose the footprints of every DML shape on every table."""
        graph = cls()
        for schema in catalog.tables():
            for op in ("insert", "update", "delete"):
                graph.add_footprint(
                    statement_footprint(
                        catalog, schema.name, op, strategy, serializable
                    )
                )
        return graph

    def add_footprint(self, footprint):
        """Add ``u -> v`` for every pair of steps where ``u`` is
        acquired before ``v`` (held-while-requesting), keeping
        re-acquisitions."""
        steps = footprint.steps
        for i, early in enumerate(steps):
            self.nodes.add(early.index)
            for late in steps[i + 1:]:
                if late.index == early.index:
                    continue
                key = (early.index, late.index)
                self.edges.setdefault(key, set()).add(footprint.label)
                self.views.setdefault(key, set()).update(
                    step.view for step in (early, late) if step.view
                )

    def successors(self, node):
        return self._adjacency().get(node, [])

    def _adjacency(self):
        """Sorted successor lists, built in one pass over the edges."""
        adjacency = {node: [] for node in self.nodes}
        for (u, v) in self.edges:
            adjacency[u].append(v)
        for targets in adjacency.values():
            targets.sort()
        return adjacency

    # -- cycle detection (Tarjan, iterative) ---------------------------

    def strongly_connected_components(self):
        index_of, low, on_stack = {}, {}, set()
        stack, components = [], []
        counter = [0]

        adjacency = self._adjacency()

        for root in sorted(self.nodes):
            if root in index_of:
                continue
            work = [(root, iter(adjacency[root]))]
            index_of[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index_of:
                        index_of[child] = low[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(adjacency[child])))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index_of[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(tuple(sorted(component)))
        return components

    def deadlock_components(self):
        """SCCs of size > 1: each is a set of indexes whose locks can be
        requested in conflicting orders."""
        return [
            scc for scc in self.strongly_connected_components()
            if len(scc) > 1
        ]

    def component_edge_map(self, components):
        """The internal edges of each SCC with their inducing statement
        labels, ``(u, v, labels)`` in order, keyed by position in
        ``components`` — one pass over the edge set for them all."""
        owner = {}
        for i, component in enumerate(components):
            for node in component:
                owner[node] = i
        grouped = {i: [] for i in range(len(components))}
        for (u, v) in self.edges:
            i = owner.get(u)
            if i is not None and owner.get(v) == i:
                grouped[i].append((u, v))
        return {
            i: [
                (u, v, tuple(sorted(self.edges[(u, v)])))
                for (u, v) in sorted(pairs)
            ]
            for i, pairs in grouped.items()
        }

    def views_inducing(self, edges):
        """The views whose bindings take the locks of ``edges`` (``(u, v,
        ...)`` tuples), sorted."""
        return tuple(sorted(set().union(
            *(self.views[(u, v)] for u, v, *_ in edges)
        )))

    def render_lines(self):
        lines = [f"lock-order graph: {len(self.nodes)} indexes, "
                 f"{len(self.edges)} edges"]
        for (u, v) in sorted(self.edges):
            labels = ", ".join(sorted(self.edges[(u, v)]))
            lines.append(f"  {u} -> {v}  [{labels}]")
        return lines
