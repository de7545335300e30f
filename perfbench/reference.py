"""Independent brute-force reference for every output the benchmark checks.

Nothing here calls the program's verification code.  Updates are replayed
into plain per-device rule lists, and each header's action on a device is
the action of the highest-priority rule that matches it (earlier-installed
first among equal priorities, DROP when nothing matches).  Forwarding
graphs are walked per header class with this module's own searches.  The
header space is small enough to cover every header.

The checks return lists of human-readable errors; an empty list means the
output agrees with the reference.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dataplane.rule import DROP

Vector = Tuple[object, ...]


class HeaderSpace:
    """Enumerates the concrete headers of a layout as flat integers.

    Fields are concatenated first-field-most-significant; BDD variable
    ``offset(field) + i`` is bit ``i`` of the field counted from its most
    significant bit, the layout's documented variable order.
    """

    def __init__(self, layout) -> None:
        self.fields = [(f.name, f.width) for f in layout.fields]
        self.offsets = {name: layout.offset(name) for name, _ in self.fields}
        self.bits = sum(w for _, w in self.fields)
        self.size = 1 << self.bits
        self._values: Dict[Tuple[int, tuple], List[int]] = {}
        self._headers: Dict[tuple, List[int]] = {}

    def field_values(self, header: int) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, width in reversed(self.fields):
            out[name] = header & ((1 << width) - 1)
            header >>= width
        return out

    def assignment(self, header: int) -> Dict[int, bool]:
        out: Dict[int, bool] = {}
        values = self.field_values(header)
        for name, width in self.fields:
            base, value = self.offsets[name], values[name]
            for i in range(width):
                out[base + i] = bool((value >> (width - 1 - i)) & 1)
        return out

    def _allowed(self, width: int, ternaries: tuple) -> List[int]:
        key = (width, ternaries)
        hit = self._values.get(key)
        if hit is None:
            allowed: Set[int] = set()
            for value, mask in ternaries:
                free = ((1 << width) - 1) & ~mask
                if free & (free + 1) == 0:  # wildcard low bits: one range
                    start = value & mask
                    allowed.update(range(start, start + free + 1))
                else:
                    allowed.update(
                        v for v in range(1 << width) if v & mask == value & mask
                    )
            hit = self._values[key] = sorted(allowed)
        return hit

    def headers_of(self, match) -> List[int]:
        """Every header a rule match (or None = everything) covers."""
        patterns = {} if match is None else match.patterns
        key = tuple(sorted((n, p.ternaries) for n, p in patterns.items()))
        hit = self._headers.get(key)
        if hit is None:
            headers = [0]
            for name, width in self.fields:
                pattern = patterns.get(name)
                values = (
                    range(1 << width)
                    if pattern is None
                    else self._allowed(width, pattern.ternaries)
                )
                headers = [(h << width) | v for h in headers for v in values]
            hit = self._headers[key] = headers
        return hit

    def dst_scope(self, scope: Optional[Tuple[int, int]]) -> List[int]:
        """Headers whose dst lies in the (value, length) prefix."""
        if scope is None:
            return list(range(self.size))
        value, length = scope
        width = dict(self.fields)["dst"]
        mask = ((1 << length) - 1) << (width - length)
        return [
            h for h in range(self.size)
            if self.field_values(h)["dst"] & mask == value & mask
        ]


def next_hops(action) -> Tuple[int, ...]:
    if action == DROP or action is None:
        return ()
    if isinstance(action, int):
        return (action,)
    return tuple(action)


class ReferenceFib:
    """Per-device rule lists and the per-header action they induce."""

    def __init__(self, space: HeaderSpace, switches: Sequence[int]) -> None:
        self.space = space
        self.switches = sorted(switches)
        self.rules: Dict[int, list] = {d: [] for d in self.switches}
        self._actions: Dict[int, list] = {}

    def apply(self, update) -> None:
        rules = self.rules[update.device]
        if update.is_insert:
            rules.append(update.rule)
        else:
            rules.remove(update.rule)  # the earliest-installed equal rule
        self._actions.pop(update.device, None)

    def apply_all(self, updates: Iterable) -> None:
        for update in updates:
            self.apply(update)

    def actions(self, device: int) -> list:
        arr = self._actions.get(device)
        if arr is None:
            arr = [DROP] * self.space.size
            order = sorted(
                enumerate(self.rules[device]),
                key=lambda ir: (ir[1].priority, -ir[0]),
            )
            for _, rule in order:  # last painted = highest priority wins
                action = rule.action
                for h in self.space.headers_of(rule.match):
                    arr[h] = action
            self._actions[device] = arr
        return arr

    def classes(self) -> Tuple[List[Vector], Dict[Vector, List[int]]]:
        """(vector of each header, headers of each distinct vector)."""
        columns = [self.actions(d) for d in self.switches]
        vectors = list(zip(*columns))
        groups: Dict[Vector, List[int]] = {}
        for h, vec in enumerate(vectors):
            groups.setdefault(vec, []).append(h)
        return vectors, groups


class Graph:
    """Forwarding-graph searches over one action vector."""

    def __init__(self, topology, switches: Sequence[int]) -> None:
        self.index = {d: i for i, d in enumerate(switches)}
        self.external = set(topology.externals())
        self.links = set(topology.directed_edges())
        self._memo: Dict[tuple, bool] = {}

    def _succ(self, vec: Vector, node: int) -> List[int]:
        return [h for h in next_hops(vec[self.index[node]])
                if (node, h) in self.links]

    def reached(self, vec: Vector, source: int,
                avoid: Optional[int] = None) -> Tuple[Set[int], bool, bool]:
        """(nodes reached from source, some walk stops, some walk loops).

        A walk stops at a switch with no usable next hop; externals are
        sinks.  Walks never enter ``avoid``.
        """
        seen: Set[int] = set()
        stops = False
        stack = [source]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node in self.external:
                continue
            succ = [h for h in self._succ(vec, node) if h != avoid]
            if not succ:
                stops = True
            stack.extend(h for h in succ if h not in seen)
        return seen, stops, self._cycle(vec, [n for n in seen if n not in self.external])

    def _cycle(self, vec: Vector, starts: Iterable[int]) -> bool:
        colour: Dict[int, int] = {}
        for start in starts:
            if colour.get(start):
                continue
            colour[start] = 1
            stack = [(start, iter(self._succ(vec, start)))]
            while stack:
                node, it = stack[-1]
                for hop in it:
                    if hop in self.external:
                        continue
                    state = colour.get(hop, 0)
                    if state == 1:
                        return True
                    if state == 0:
                        colour[hop] = 1
                        stack.append((hop, iter(self._succ(vec, hop))))
                        break
                else:
                    colour[node] = 2
                    stack.pop()
        return False

    def delivers(self, vec: Vector, source: int, avoid: Optional[int] = None) -> bool:
        key = (vec, source, avoid)
        hit = self._memo.get(key)
        if hit is None:
            hit = source != avoid and bool(
                self.reached(vec, source, avoid)[0] & self.external)
            self._memo[key] = hit
        return hit

    def loops(self, vec: Vector) -> bool:
        hit = self._memo.get(vec)
        if hit is None:
            hit = self._memo[vec] = self._cycle(vec, self.index)
        return hit


def query_answer(graph: Graph, groups: Dict[Vector, List[int]],
                 scope: Set[int], spec) -> Tuple[bool, int]:
    """(holds, witness header count) of one query spec, by brute force."""
    kind, source, waypoint, _ = spec
    witness = 0
    for vec, headers in groups.items():
        inside = sum(1 for h in headers if h in scope)
        if not inside:
            continue
        if kind == "reach":
            hit = graph.delivers(vec, source)
        elif kind == "loop":
            hit = graph.loops(vec)
        else:
            hit = graph.delivers(vec, source, avoid=waypoint)
        if hit:
            witness += inside
    if kind == "reach":
        return witness == len(scope), witness
    return witness == 0, witness


def requirement_verdict(graph: Graph, vectors: List[Vector], headers: List[int],
                        source: int, dest: int) -> str:
    """'satisfied' when every walk of every header ends at ``dest``,
    'violated' when some header cannot reach ``dest`` at all."""
    violated = satisfied = False
    for h in headers:
        nodes, stops, loops = graph.reached(vectors[h], source)
        if dest not in nodes:
            violated = True
        elif not stops and not loops and nodes & graph.external == {dest}:
            satisfied = True
        else:
            raise ValueError(f"header {h}: some but not all walks reach {dest}")
    return "violated" if violated else "satisfied"


def check_model(space: HeaderSpace, switches: Sequence[int],
                vectors: List[Vector], universe: List[int],
                ecs: List[Tuple[object, Vector]], label: str) -> List[str]:
    """Compare one model's ECs (predicate, action vector) to the reference.

    Checks the two properties the inverse model must have — the ECs
    partition the universe (their sat-counts sum to its size and each
    reference header lies in the EC of its vector) and no two ECs share an
    action vector — and that each EC holds exactly the headers whose
    brute-force behaviour is its vector.
    """
    errors: List[str] = []
    by_vec: Dict[Vector, object] = {}
    sizes: Dict[Vector, int] = {}
    for pred, vec in ecs:
        if vec in by_vec:
            errors.append(f"{label}: two ECs share action vector {vec}")
        by_vec[vec] = pred
        sizes[vec] = sizes.get(vec, 0) + pred.sat_count()
    total = sum(sizes.values())
    if total != len(universe):
        errors.append(f"{label}: EC sat-counts sum to {total}, universe has {len(universe)}")
    expected: Dict[Vector, int] = {}
    for h in universe:
        vec = vectors[h]
        expected[vec] = expected.get(vec, 0) + 1
        pred = by_vec.get(vec)
        if pred is None:
            errors.append(f"{label}: header {h} behaves as {vec}, which no EC has")
            break
        if not pred.evaluate(space.assignment(h)):
            errors.append(f"{label}: header {h} is not in the EC of its behaviour")
            break
    for vec, count in sizes.items():
        if expected.get(vec, 0) != count:
            errors.append(f"{label}: EC {vec} has {count} headers, reference {expected.get(vec, 0)}")
            break
    return errors


def model_ecs(view, switches: Sequence[int]) -> List[Tuple[object, Vector]]:
    """(predicate, per-switch action vector) of every EC of a read view."""
    return [
        (pred, tuple(view.action_of(vec, d) for d in switches))
        for pred, vec in view.entries()
    ]


def collected_ecs(entries, switches: Sequence[int]) -> List[Tuple[object, Vector]]:
    """The same for a fleet's collected (predicate, {device: action}) pairs."""
    return [
        (pred, tuple(actions.get(d, DROP) for d in switches))
        for pred, actions in entries
    ]


def check_answers(answers: List[Tuple[object, Tuple[bool, int]]],
                  expected: Callable[[object], Tuple[bool, int]],
                  label: str) -> List[str]:
    """Compare served (holds, headers) answers with the reference's."""
    errors = []
    for spec, got in answers:
        want = expected(spec)
        if tuple(got) != want:
            errors.append(f"{label}: {spec} answered {tuple(got)}, reference {want}")
    return errors


def check_loop_verdicts(verdicts: Sequence[tuple], loop_now: bool, label: str,
                        definite: int) -> List[str]:
    """Loop verdicts of some batches against the reference's loop status.

    ``verdicts`` holds one tuple of (name, verdict) pairs per batch.  With
    ``definite`` 0 (not every switch has synchronised yet) a loop verdict
    may be ``unknown``; otherwise each batch must carry exactly
    ``definite`` loop verdicts (one per subspace), all equal to the
    reference's.
    """
    want = "violated" if loop_now else "satisfied"
    for batch in verdicts:
        loops = [verdict for name, verdict in batch if name == "loop"]
        if definite and loops != [want] * definite:
            return [f"{label}: loop verdicts {loops}, reference {want} "
                    f"from each of {definite} subspace(s)"]
        if any(v not in ("unknown", want) for v in loops):
            return [f"{label}: loop verdicts {loops}, reference {want}"]
    return []
