"""Search information over degenerate shortest paths.

The pair quantity is H(s->d) = -log2 of the probability that a
non-backtracking random walker follows one of the shortest paths from
s to d: each path contributes (1/k_s) * prod over interior nodes j of
1/(k_j - 1). The sum over all shortest paths is pushed forward along
one BFS per source (dynamic programming over the shortest-path DAG),
never by path enumeration.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Optional, Sequence

from .errors import NetskelError, UnreachableError
from .graph import Graph, require_connected

# Below this probability the per-source DP switches to log-space
# accumulation; plain products would denormalize/underflow.
UNDERFLOW_THRESHOLD = 1e-300

# The share of N*L below which a forked worker costs more than it saves:
# walking all sources costs about N*L. On a 2-CPU machine two workers broke
# even at N*L of 3e5 to 5e5 in the sweeps of BENCH_11.json, but at about 3e4
# on a quiet VM in the walk sweep of BENCH_14.json. The value stays until
# the break-even is measured again over several days.
FORK_BREAK_EVEN_WORK = 250_000

# True while a _spread shares its items: in this process until its children
# are reaped, and in every child, which inherits it. A _spread called from
# an item then runs its own items where it is, so no share forks again.
_sharing = False


class SearchInfoReport(NamedTuple):
    """Whole-network search information in bits.

    average_bits uses the N^2 denominator (the s=d diagonal counts as 0).
    """

    node_count: int
    link_count: int
    per_source_bits: tuple[float, ...]
    total_bits: float
    average_bits: float

    @classmethod
    def from_source_bits(cls, g: Graph, per_source_bits: Iterable[float]) -> SearchInfoReport:
        """The report of g given each source's bits in index order."""
        per_source = tuple(per_source_bits)
        total = math.fsum(per_source)
        n = g.node_count
        return cls(n, g.link_count, per_source, total, total / (n * n))


def _log_row(g: Graph, source: int) -> list[float]:
    """The row of _source_row computed in log space, for sources whose
    walker probability underflows.

    One BFS: when v is popped, every neighbor one hop closer to the source
    has been popped and its log2 A is final, so log2 A(v) is the
    log-sum-exp of log2 A(u) - log2(k_u - 1) over those neighbors (or
    -log2 k_s on the first hop). fsum rounds correctly and max ignores
    order, so summing in adjacency order gives the same bits as in pop
    order. An unreached node is at distance N, as in _walk.
    """
    adjacency, degrees = g.adjacency, g.degrees
    log2 = math.log2
    n = g.node_count
    dist = [n] * n
    la = [-math.inf] * n
    dist[source] = 0
    la[source] = 0.0
    order = list(adjacency[source])
    for v in order:
        dist[v] = 1
        la[v] = -log2(len(order))
    for v in order:
        dv = dist[v]
        if dv > 1:
            terms = [la[u] - log2(degrees[u] - 1) for u in adjacency[v] if dist[u] == dv - 1]
            top = max(terms)
            la[v] = top + log2(math.fsum(2.0 ** (t - top) for t in terms))
        for w in adjacency[v]:
            if dist[w] == n:
                dist[w] = dv + 1
                order.append(w)
    return [0.0 - x for x in la]


def _walk(g: Graph, source: int) -> Optional[list[float]]:
    """The probability A(d) that the walker from source reaches each node d
    along a shortest path (0.0 if unreachable), or None if A underflows.

    One BFS that pushes A forward as it pops each node u: A(v) is 1/k_s
    on the first hop, and every v one hop further than u gains
    A(u)/(k_u - 1). Predecessors are popped before v, in the order a
    separate DAG pass would sum them, so A(u) is complete when u is
    popped; if it is below UNDERFLOW_THRESHOLD, the walk gives up.

    An unreached node is at distance N and every BFS level is below N, so a
    predecessor or a neighbour on u's own level costs one comparison.
    """
    adjacency, degrees = g.adjacency, g.degrees
    dist = [g.node_count] * g.node_count
    a = [0.0] * g.node_count
    dist[source] = 0
    a[source] = 1.0
    order = list(adjacency[source])
    for v in order:
        dist[v] = 1
        a[v] = 1.0 / len(order)
    for u in order:
        au = a[u]
        if au < UNDERFLOW_THRESHOLD:
            return None
        k = degrees[u]
        if k == 1:  # a leaf's one neighbor is its predecessor
            continue
        w = au / (k - 1)
        du = dist[u] + 1
        for v in adjacency[u]:
            dv = dist[v]
            if dv >= du:
                if dv == du:
                    a[v] += w
                else:
                    dist[v] = du
                    a[v] = w
                    order.append(v)
    return a


def _source_row(g: Graph, source: int) -> list[float]:
    """H(source->d) in bits for every node d: 0.0 at the source, inf where
    d is unreachable; -log2 of _walk, or _log_row where the walk underflows."""
    a = _walk(g, source)
    if a is None:
        return _log_row(g, source)
    log2, inf = math.log2, math.inf
    return [0.0 - log2(x) if x else inf for x in a]


def _source_bits(g: Graph, source: int) -> float:
    """fsum of _source_row on a connected graph, bit for bit, without the
    row: fsum rounds correctly and rounding is symmetric, so negating the
    sum of log2 A equals summing the negated terms."""
    a = _walk(g, source)
    if a is None:
        return math.fsum(_log_row(g, source))
    return 0.0 - math.fsum(map(math.log2, a))


def _worker_count(work: int) -> int:
    """The number of processes to share work in, given in N*L units (what
    walking every source of a graph costs): one per CPU this process may run
    on, but none with less than FORK_BREAK_EVEN_WORK. Below 2, the work is
    done here alone; so too where the platform cannot fork, or where another
    thread is live, since a forked child keeps only the calling thread and
    any lock another one holds stays locked."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not can_fork or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), work // FORK_BREAK_EVEN_WORK)


def _send_share(item: Callable[[int], str], share: range, write_end: int) -> NoReturn:
    """In a forked child: send item(i) for each i of the share over the pipe,
    space-separated, and leave with status 0, or 1 on any failure, without
    running the parent's exit handlers or flushing its buffers."""
    status = 1
    try:
        with open(write_end, "wb") as pipe:
            pipe.write(" ".join(map(item, share)).encode("ascii"))
        status = 0
    finally:
        os._exit(status)


def _spread(count: int, work: int, item: Callable[[int], str]) -> list[str]:
    """[item(i) for i in range(count)], where work (in N*L units) is what
    all the items cost: shared among k = _worker_count(work) processes if
    2 <= k <= count and no _spread is sharing already, else run here. With
    fewer items than processes, the items run here, so each may spread its
    own inner work instead.

    Children forked here take the shares i, i+k, i+2k, ... for i = 1..k-1
    and send their items back over a pipe, while this process takes 0, k,
    2k, ...; an item is one word of ASCII text, such as a float.hex, which
    round-trips exactly. Every share that no child delivered (its pipe or
    its fork failed, or its child exited nonzero or sent too few words) is
    done here once every child is reaped, so its items may spread again.
    Every child is reaped before this returns or raises.
    """
    global _sharing
    workers = 1 if _sharing else _worker_count(work)
    if not 2 <= workers <= count:
        return [item(i) for i in range(count)]
    children = {}  # first item of a child's share: (pid, read end of its pipe)
    items = [""] * count
    _sharing = True
    try:
        for first in range(1, workers):
            ends: tuple[int, ...] = ()
            try:
                ends = read_end, write_end = os.pipe()
                pid = os.fork()
            except OSError:
                for end in ends:
                    os.close(end)
                continue
            if pid == 0:
                os.close(read_end)  # so that a write with no reader left fails
                _send_share(item, range(first, count, workers), write_end)
            os.close(write_end)
            children[first] = pid, open(read_end, "rb")
        items[::workers] = map(item, range(0, count, workers))
        texts = {
            first: pipe.read().decode("ascii").split() for first, (_, pipe) in children.items()
        }
    finally:
        _sharing = False
        for _, pipe in children.values():
            pipe.close()  # a child still writing gets EPIPE and exits
        sent = {first for first, (pid, _) in children.items() if os.waitpid(pid, 0)[1] == 0}
    for first in range(1, workers):
        share = range(first, count, workers)
        words = texts[first] if first in sent else ()
        items[first::workers] = words if len(words) == len(share) else map(item, share)
    return items


def _all_source_bits(g: Graph) -> list[float]:
    """_source_bits of every source of a connected graph, in index order.

    The sources may be shared among processes (_spread), which send their
    bits as float.hex text; the list is the serial one bit for bit.
    """
    n = g.node_count
    words = _spread(n, n * g.link_count, lambda s: float.hex(_source_bits(g, s)))
    return list(map(float.fromhex, words))


def search_information_rows(g: Graph) -> Iterator[list[float]]:
    """For each source s in index order, the row of H(s->d) in bits over
    every d: 0.0 at d = s, inf where d is unreachable from s. The rows are
    produced one at a time, so a caller that streams them holds O(N)."""
    for s in range(g.node_count):
        yield _source_row(g, s)


def pair_search_information(g: Graph, s: int, d: int) -> float:
    """Bits of routing information from s to d over all shortest paths."""
    if not (0 <= s < g.node_count):
        raise NetskelError(f"invalid source index {s}")
    if not (0 <= d < g.node_count):
        raise NetskelError(f"invalid destination index {d}")
    bits = _source_row(g, s)[d]
    if bits == math.inf:
        raise UnreachableError(f"node {g.labels[d]!r} is unreachable from {g.labels[s]!r}")
    return bits


def total_search_information(g: Graph) -> SearchInfoReport:
    """Sum of H(s->d) over all ordered pairs of a connected graph."""
    require_connected(g)
    return SearchInfoReport.from_source_bits(g, _all_source_bits(g))


def _forest_total_bits(adjacency: Sequence[Sequence[int]]) -> list[float]:
    """Exact total search information of each tree of a forest in O(N), in
    order of the trees' smallest nodes.

    Every pair of a tree of n nodes has one path, so H = sum_s (n-1)*log2(k_s)
    + sum_j log2(k_j - 1) * ((n-1)^2 - sum_b n_b^2), where the n_b are the
    sizes of the branches at j: the second factor counts the ordered pairs
    whose path passes through j. Branch sizes do not depend on the root and
    fsum does not depend on the order of its terms, so any root gives the
    same bits. Subtree sizes come from one iterative pass, so deep trees
    need no recursion.
    """
    node_count = len(adjacency)
    parent = [-1] * node_count  # a root is its own parent
    size = [1] * node_count
    child_sq = [0] * node_count  # sum of squared child subtree sizes
    log2 = math.log2
    totals = []
    for root in range(node_count):
        if parent[root] >= 0:
            continue
        parent[root] = root
        order = [root]
        for u in order:
            pu = parent[u]
            for v in adjacency[u]:
                if v != pu:
                    parent[v] = u
                    order.append(v)
        for v in order[:0:-1]:
            size[parent[v]] += size[v]
            child_sq[parent[v]] += size[v] ** 2
        n = len(order)
        pairs = (n - 1) ** 2
        terms = []
        for v in order:
            k = len(adjacency[v])
            if k > 1:  # a leaf's term (n-1)*log2(1) is 0
                terms.append((n - 1) * log2(k))
            if k > 2:  # the branch through v's parent, then one per child
                terms.append(log2(k - 1) * (pairs - (n - size[v]) ** 2 - child_sq[v]))
        totals.append(math.fsum(terms))
    return totals


def chain_search_information(n: int) -> float:
    """Closed-form total search information of a path of n nodes: (n-2)(n-1)."""
    if n < 1:
        raise NetskelError(f"chain needs at least 1 node, got {n}")
    if n <= 2:
        return 0.0
    return float((n - 2) * (n - 1))


def ring_min_simplified_H(n: int) -> tuple[float, tuple[int, int, int]]:
    """Minimal simplified search information of an n-ring and its chain split.

    The skeleton is always a triangle (6 bits); the three super-node chains
    are as even as possible, which minimizes 6 + sum (p-2)(p-1). Equals
    n^2/3 - 3n + 12 when n is divisible by 3.
    """
    if n < 3:
        raise NetskelError(f"ring needs at least 3 nodes, got {n}")
    base, extra = divmod(n, 3)
    parts = tuple(sorted((base + (1 if i < extra else 0) for i in range(3)), reverse=True))
    bits = 6.0 + sum(chain_search_information(p) for p in parts)
    return bits, parts  # type: ignore[return-value]
