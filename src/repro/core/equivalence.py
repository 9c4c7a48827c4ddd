"""Frequency-equivalence classes via cycle equivalence
(paper section 6.1.2, reference [14]).

Execution counts of blocks and edges form a *circulation* once a
virtual return edge from exit to entry is added: flow is conserved at
every node.  Two flow edges provably carry equal flow in every valid
execution iff they form a **2-edge cut** of the underlying undirected
graph (removing both disconnects it):

* conservation across the cut forces ``f(e1) = f(e2)`` when the edges
  cross it in opposite directions, and ``f(e1) = f(e2) = 0`` when they
  cross the same way (counts are non-negative);
* a single-edge cut (a bridge) carries no cycle, hence zero flow -- a
  dead block.

Blocks participate by splitting each block into an internal flow edge
(b_in -> b_out) whose flow is the block's execution count, so blocks
and CFG edges land in one unified partition.  Infinite loops get no
virtual exit edge: a loop with no path to the exit is a cycle of its
own in the flow graph, and a single edge leading into it is a bridge.

The partition is computed in linear time, in two passes over the
expanded flow graph:

1. a low-link pass finds the bridges: the zero-flow set, each bridge
   its own class;
2. the Johnson-Pearson-Pingali bracket-list pass [14] classifies the
   remaining edges.  JPP assumes a graph without bridges, so it runs
   on the graph with the bridges removed, with a DFS started from
   every unvisited node; there, two edges are cycle equivalent iff
   they have the same set of *brackets* (back edges spanning them),
   and a tree edge's set is named by its topmost bracket plus the set
   size.

Both passes are iterative, so CFG size is not bounded by the recursion
limit.  Edges are identified by id rather than by endpoints, because
the flow graph has parallel edges (a branch to the next instruction).
"""

from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from repro.core.cfg import CFG, EXIT

if TYPE_CHECKING:
    from repro.obs.observability import Observability

#: A partition member: a block index or ``("e", edge index)``.
Node = Union[int, Tuple[str, int]]

#: Per node of the flow graph: ``(edge id, neighbour)`` pairs.
Adjacency = List[List[Tuple[int, int]]]

_NIL = -1


class EquivalenceClasses:
    """Partition of blocks and edges into same-frequency classes.

    ``class_of`` maps a block index or an ``("e", edge_index)`` pair to
    a class id; ``members`` is the inverse mapping.  ``zero`` lists
    nodes proved to execute zero times (bridge edges of the flow graph).
    """

    def __init__(self, class_of: Dict[Node, int],
                 members: Dict[int, List[Node]],
                 zero: Iterable[Node] = ()) -> None:
        self.class_of = class_of
        self.members = members
        self.zero = frozenset(zero)

    def class_of_block(self, index: int) -> int:
        return self.class_of[index]

    def class_of_edge(self, index: int) -> int:
        return self.class_of[("e", index)]

    def __len__(self) -> int:
        return len(self.members)


def compute_equivalence(cfg: CFG,
                        obs: Optional["Observability"] = None
                        ) -> EquivalenceClasses:
    """Compute cycle-equivalence classes of blocks and edges of *cfg*.

    With missing CFG edges (unresolved indirect jumps) flow conservation
    cannot be trusted, so every block and edge is its own class, exactly
    as in the paper.  *obs* (optional
    :class:`repro.obs.Observability`) wraps the pass in an
    ``analyze.equivalence`` span and counts the resulting classes, the
    zero-flow members and the procedures downgraded to singleton
    classes (``analyze.equivalence.unresolved``).
    """
    from repro.obs import NULL_OBS

    sink = obs or NULL_OBS
    with sink.span("analyze.equivalence", proc=cfg.proc.name):
        classes = _compute_equivalence(cfg)
    sink.counter("analyze.equivalence.classes").inc(len(classes.members))
    sink.counter("analyze.equivalence.zero_flow").inc(len(classes.zero))
    if cfg.missing_edges:
        sink.counter("analyze.equivalence.unresolved").inc()
    return classes


def _compute_equivalence(cfg: CFG) -> EquivalenceClasses:
    nodes: List[Node] = [block.index for block in cfg.blocks]
    nodes += [("e", edge.index) for edge in cfg.edges]
    if cfg.missing_edges:
        return EquivalenceClasses({node: i for i, node in enumerate(nodes)},
                                  {i: [node] for i, node in enumerate(nodes)})

    num_nodes, ends = _flow_graph(cfg)
    adj: Adjacency = [[] for _ in range(num_nodes)]
    for eid, (tail, head) in enumerate(ends):
        adj[tail].append((eid, head))
        adj[head].append((eid, tail))
    bridges = _bridges(adj, len(ends))
    edge_class = _cycle_classes(adj, bridges)

    # Flow-edge ids: 0 is the virtual entry edge, then one per block,
    # then one per CFG edge (the virtual return edge is last).
    class_of: Dict[Node, int] = {}
    members: Dict[int, List[Node]] = {}
    renumber: Dict[int, int] = {}
    zero: List[Node] = []
    for eid, node in enumerate(nodes, start=1):
        if bridges[eid]:
            zero.append(node)
            key = -1 - eid
        else:
            key = edge_class[eid]
        cid = renumber.setdefault(key, len(renumber))
        class_of[node] = cid
        members.setdefault(cid, []).append(node)
    return EquivalenceClasses(class_of, members, zero)


def _flow_graph(cfg: CFG) -> Tuple[int, List[Tuple[int, int]]]:
    """The expanded flow graph as ``(node count, [(tail, head)])``.

    Block ``b`` is the edge ``2b -> 2b + 1`` (its in and out nodes);
    the entry and exit nodes come after the blocks.  Edge ids follow
    the list order: entry edge, blocks, CFG edges, return edge.
    """
    entry = 2 * len(cfg.blocks)
    exit_ = entry + 1
    ends = [(entry, 2 * cfg.entry)]
    ends += [(2 * block.index, 2 * block.index + 1)
             for block in cfg.blocks]
    ends += [(2 * edge.src + 1, exit_ if edge.dst == EXIT else 2 * edge.dst)
             for edge in cfg.edges]
    ends.append((exit_, entry))
    return exit_ + 1, ends


def _dfs(adj: Adjacency, skip: Sequence[bool]
         ) -> Tuple[List[int], List[int], List[int], List[int],
                    List[Tuple[int, int, int]]]:
    """Iterative DFS forest of *adj* without the edges marked in *skip*.

    Every unvisited node starts a new tree.  Returns ``(order, num,
    parent, parent_edge, back)``: preorder, preorder numbers, tree
    parent node and edge (``_NIL`` at roots), and each non-tree edge
    once as ``(edge id, descendant, ancestor)``.  An undirected DFS
    has no cross edges, so every non-tree edge is such a back edge.
    """
    size = len(adj)
    num = [_NIL] * size
    parent = [_NIL] * size
    parent_edge = [_NIL] * size
    order: List[int] = []
    back: List[Tuple[int, int, int]] = []
    for root in range(size):
        if num[root] != _NIL:
            continue
        num[root] = len(order)
        order.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            node, todo = stack[-1]
            for eid, other in todo:
                if skip[eid] or eid == parent_edge[node]:
                    continue
                if num[other] == _NIL:
                    num[other] = len(order)
                    order.append(other)
                    parent[other] = node
                    parent_edge[other] = eid
                    stack.append((other, iter(adj[other])))
                    break
                if num[other] < num[node]:
                    back.append((eid, node, other))
            else:
                stack.pop()
    return order, num, parent, parent_edge, back


def _bridges(adj: Adjacency, num_edges: int) -> List[bool]:
    """Flag the bridges of *adj* by edge id (the low-link test)."""
    bridge = [False] * num_edges
    order, num, parent, parent_edge, back = _dfs(adj, bridge)
    low = list(num)
    for _, node, ancestor in back:
        low[node] = min(low[node], num[ancestor])
    for node in reversed(order):
        up = parent[node]
        if up == _NIL:
            continue
        if low[node] == num[node]:
            bridge[parent_edge[node]] = True
        elif low[node] < low[up]:
            low[up] = low[node]
    return bridge


def _cycle_classes(adj: Adjacency, bridges: Sequence[bool]) -> List[int]:
    """Cycle-equivalence class per edge id of the bridge-free graph.

    The Johnson-Pearson-Pingali bracket-list pass.  Every tree edge of
    a bridge-free graph has at least one bracket, so ``top`` is always
    defined.  Bracket lists are doubly linked through ``nxt``/``prv``
    so that concatenation, push and delete are O(1); back edges are
    brackets under their own edge ids, capping brackets get fresh ids
    after them.  Bridges keep class ``_NIL``.
    """
    num_edges = len(bridges)
    order, num, parent, parent_edge, back = _dfs(adj, bridges)
    size = len(adj)
    children: List[List[int]] = [[] for _ in range(size)]
    for node in order:
        if parent[node] != _NIL:
            children[parent[node]].append(node)
    ups: List[List[Tuple[int, int]]] = [[] for _ in range(size)]
    downs: List[List[int]] = [[] for _ in range(size)]
    for eid, node, ancestor in back:
        ups[node].append((eid, num[ancestor]))
        downs[ancestor].append(eid)

    inf = size
    hi = [inf] * size
    caps: List[List[int]] = [[] for _ in range(size)]
    head = [_NIL] * size
    tail = [_NIL] * size
    length = [0] * size
    nxt = [_NIL] * num_edges
    prv = [_NIL] * num_edges
    recent_size = [_NIL] * num_edges
    recent_class = [_NIL] * num_edges
    edge_class = [_NIL] * num_edges
    classes = 0

    for node in reversed(order):
        hi0 = min((target for _, target in ups[node]), default=inf)
        hi1 = hi2 = inf
        for child in children[node]:
            value = hi[child]
            if value < hi1:
                hi1, hi2 = value, hi1
            elif value < hi2:
                hi2 = value
        hi[node] = min(hi0, hi1)

        # Concatenate the children's bracket lists.
        first = last = _NIL
        count = 0
        for child in children[node]:
            if not length[child]:
                continue
            if first == _NIL:
                first = head[child]
            else:
                nxt[last] = head[child]
                prv[head[child]] = last
            last = tail[child]
            count += length[child]

        # Brackets ending here (capping ones, then back edges) close;
        # a back edge still unclassified starts a class of its own.
        for bracket in caps[node] + downs[node]:
            before, after = prv[bracket], nxt[bracket]
            if before == _NIL:
                first = after
            else:
                nxt[before] = after
            if after == _NIL:
                last = before
            else:
                prv[after] = before
            count -= 1
        for eid in downs[node]:
            if edge_class[eid] == _NIL:
                edge_class[eid] = classes
                classes += 1

        # Push the back edges leaving upward, then the capping bracket
        # for the second-highest child.  A child whose brackets end at
        # this very node (hi2 == num[node]) needs none: its bracket
        # would run from the node to itself and never be deleted.
        pushes = [eid for eid, _ in ups[node]]
        if hi2 < hi0 and hi2 < num[node]:
            cap = len(nxt)
            for column in (nxt, prv, recent_size, recent_class, edge_class):
                column.append(_NIL)
            caps[order[hi2]].append(cap)
            pushes.append(cap)
        for bracket in pushes:
            prv[bracket] = _NIL
            nxt[bracket] = first
            if first == _NIL:
                last = bracket
            else:
                prv[first] = bracket
            first = bracket
            count += 1
        head[node], tail[node], length[node] = first, last, count

        # Classify the tree edge from the parent: same top bracket and
        # same list size means the same bracket set.
        eid = parent_edge[node]
        if eid == _NIL:
            continue
        if recent_size[first] != count:
            recent_size[first] = count
            recent_class[first] = classes
            classes += 1
        edge_class[eid] = recent_class[first]
        if count == 1:
            edge_class[first] = edge_class[eid]
    return edge_class
