"""Seeded inputs for the four benchmark workloads.

Every input is a pure function of the workload name and the seed, so a run
can repeat its timed phase from a fresh program state on identical input.
The seed picks a symmetry of the fabric (see ``Symmetry``) that every
drawn device, prefix and query is mapped through, so two seeds feed the
program different inputs whose work is the same up to relabelling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.subspace import SubspacePartition
from repro.dataplane.rule import Rule
from repro.dataplane.update import RuleUpdate, delete, insert
from repro.fibgen.addressing import rack_destinations
from repro.fibgen.ecmp import std_fib_ecmp
from repro.fibgen.shortest_path import std_fib
from repro.headerspace.fields import HeaderLayout, dst_only_layout, dst_src_layout
from repro.headerspace.match import Match
from repro.network.generators import fabric
from repro.network.topology import Topology
from repro.spec.requirement import Requirement, requirement

#: A query as plain data: (kind, source, waypoint, scope) where scope is a
#: (dst value, prefix length) pair or None.
QuerySpec = Tuple[str, Optional[int], Optional[int], Optional[Tuple[int, int]]]

#: Fixed query mix asked on every pass: 8 reach, 8 loop, 8 waypoint; half
#: of each kind scoped to a random dst prefix.
QUERY_KINDS = ("reach",) * 8 + ("loop",) * 8 + ("waypoint",) * 8

#: Seed of the fixed stream every workload draws from; ``--seed`` only
#: picks the fabric symmetry the draws are mapped through.
CANONICAL = 0

#: Timed ``fattree_churn`` batches per pass, 2 per switch.
FATTREE_BATCHES = 56

#: ``serve_rw`` churn: batches of 4 installs on top of an overlay of at
#: most 48 live rules.  The 12 batches that fill the overlay join the base
#: batch of the set-up, so every timed batch installs 4 rules and withdraws
#: the 4 oldest.
SERVE_CAP = 48
SERVE_BATCHES = 16
#: The serve client asks this many independently drawn mixes per pass:
#: 6 queries after each batch.
SERVE_QUERY_ROUNDS = 4

#: One reachability requirement the converged ECMP FIB violates, beside the
#: satisfied ones, so both verdicts are checked.
REQS_SATISFIED = 3


@dataclass
class Inputs:
    """Everything one workload feeds the program, plus what the checks need."""

    name: str
    topology: Topology
    layout: HeaderLayout
    #: Updates installed during set-up (the base FIB), per device, in order.
    base: List[Tuple[int, List[RuleUpdate]]]
    #: The timed batches as (device, updates), in submission order; the
    #: device is -1 for a mixed-device batch.
    batches: List[Tuple[int, List[RuleUpdate]]]
    queries: List[QuerySpec]
    partition: Optional[SubspacePartition] = None
    requirements: List[Requirement] = field(default_factory=list)
    #: Requirement name -> (packet-space dst prefix, source, destination node).
    req_specs: Dict[str, Tuple[Tuple[int, int], int, int]] = field(
        default_factory=dict
    )
    #: A fixed batch pair that closes a two-switch forwarding loop.
    loop_probe: List[Tuple[int, List[RuleUpdate]]] = field(default_factory=list)

    @property
    def num_updates(self) -> int:
        return sum(len(b) for _, b in self.batches)

    def describe(self) -> Dict[str, object]:
        topo = self.topology
        return {
            "switches": len(topo.switches()),
            "links": len(topo.directed_edges()) // 2,
            "header_bits": self.layout.total_bits,
            "base_updates": sum(len(u) for _, u in self.base),
            "batches": len(self.batches),
            "updates": self.num_updates,
            "queries": len(self.queries),
            "subspaces": len(self.partition) if self.partition else 1,
            "requirements": len(self.requirements),
        }


def _per_device(
    topology: Topology, rules: Dict[int, List[Rule]]
) -> List[Tuple[int, List[RuleUpdate]]]:
    """One insert batch per switch, in ascending device order."""
    return [
        (d, [insert(d, r) for r in rules.get(d, [])])
        for d in sorted(topology.switches())
    ]


def _pod_partition(topology: Topology, layout: HeaderLayout) -> SubspacePartition:
    """One dst-prefix subspace per pod (the racks of a pod are contiguous)."""
    pods = sorted(
        {d.label("pod") for d in topology.devices() if d.label("pod") is not None}
    )
    racks = rack_destinations(topology)
    width = layout.field("dst").width
    plen = max(1, (len(racks) - 1).bit_length())
    per_pod = len(racks) // len(pods)
    block = plen - max(0, (per_pod - 1).bit_length())
    prefixes = [((p * per_pod) << (width - plen), block) for p in pods]
    return SubspacePartition.dst_prefix_partition(
        layout, prefixes, names=[f"pod{p}" for p in pods]
    )


class Symmetry:
    """A seeded automorphism of the fabric, the only thing the seed picks.

    Pods, the ToRs (and so the racks) of each pod, the fabric planes and
    the spines of each plane are permuted; rack prefixes move with their
    racks.  Every workload draws its churn, requirements and queries from
    one fixed stream and maps them through the symmetry, so two seeds feed
    the program different devices and prefixes but isomorphic work.
    """

    def __init__(self, rng: random.Random, topology: Topology, layout: HeaderLayout) -> None:
        by_name = {topology.name_of(d.device_id): d.device_id for d in topology.devices()}
        labels = {d.device_id: d.labels for d in topology.devices()}
        pods = sorted({l["pod"] for l in labels.values() if "pod" in l})
        planes = sorted({l["plane"] for l in labels.values() if "plane" in l})
        pod_to = dict(zip(pods, rng.sample(pods, len(pods))))
        plane_to = dict(zip(planes, rng.sample(planes, len(planes))))
        tors = {p: sorted(l["index"] for l in labels.values()
                          if l.get("role") == "tor" and l["pod"] == p) for p in pods}
        spines = {f: sorted(l["index"] for l in labels.values()
                            if l.get("role") == "spine" and l["plane"] == f) for f in planes}
        tor_to = {p: dict(zip(t, rng.sample(t, len(t)))) for p, t in tors.items()}
        spine_to = {f: dict(zip(i, rng.sample(i, len(i)))) for f, i in spines.items()}
        self.device: Dict[int, int] = {}
        for d, l in labels.items():
            role = l.get("role")
            if role == "tor":
                p, t = pod_to[l["pod"]], tor_to[l["pod"]][l["index"]]
                self.device[d] = by_name[f"p{p}_tor{t}"]
                self.device[l["rack"]] = by_name[f"p{p}_rack{t}"]
            elif role == "fabric":
                self.device[d] = by_name[f"p{pod_to[l['pod']]}_fab{plane_to[l['index']]}"]
            elif role == "spine":
                f = plane_to[l["plane"]]
                self.device[d] = by_name[f"spine{f}_{spine_to[l['plane']][l['index']]}"]
        racks = rack_destinations(topology)
        self.rack_index = [racks.index(self.device[r]) for r in racks]
        width = layout.field("dst").width
        self._shift = width - max(1, (len(racks) - 1).bit_length())

    def dst(self, value: int) -> int:
        """The image of a dst value: same offset inside the image rack."""
        low = value & ((1 << self._shift) - 1)
        return (self.rack_index[value >> self._shift] << self._shift) | low


def _queries(rng: random.Random, sym: Symmetry, topology: Topology,
             layout: HeaderLayout) -> List[QuerySpec]:
    """The fixed query mix, mapped through the seed's symmetry.

    Query ``i`` has a fixed kind, source role (ToR, fabric or spine) and,
    for odd ``i``, a dst scope of 2 (a pod), 4 (a rack), 5 or 6 bits —
    lengths whose blocks the symmetry maps onto blocks.
    """
    roles = {r: sorted(topology.select(role=r)) for r in ("tor", "fabric", "spine")}
    width = layout.field("dst").width
    out: List[QuerySpec] = []
    for i, kind in enumerate(QUERY_KINDS):
        scope = None
        if i % 2:
            scope = (sym.dst(rng.getrandbits(width)), (2, 4, 5, 6)[(i // 2) % 4])
        source = rng.choice(roles[("tor", "fabric", "spine")[i % 3]])
        waypoint = None
        if kind == "waypoint":
            waypoint = sym.device[rng.choice([s for s in roles["fabric"] if s != source])]
        out.append((kind, None if kind == "loop" else sym.device[source], waypoint, scope))
    return out


def _device_stream(rng: random.Random, topology: Topology):
    """Switches in rounds, each round a fresh shuffle."""
    switches = sorted(topology.switches())
    while True:
        yield from rng.sample(switches, len(switches))


def _churn(
    rng: random.Random,
    sym: Symmetry,
    topology: Topology,
    layout: HeaderLayout,
    base: Dict[int, List[Rule]],
    n_batches: int,
    inserts: int,
    cap: int,
    per_device: bool,
) -> List[Tuple[int, List[RuleUpdate]]]:
    """Install-and-withdraw bursts of more-specific dst prefixes.

    Switches take turns in shuffled rounds, so each gets the same share;
    prefix lengths cycle through the 5 lengths longer than a rack's.  Each
    inserted rule steers its prefix onto the device's other shortest-path
    next hop toward the owning rack, where the base FIB uses one and an
    alternative exists (traffic engineering onto an equal-cost path), so
    the FIB stays loop-free and every per-batch loop verdict has a
    definite brute-force answer.  Once more than ``cap`` overlay rules are
    live (per device when ``per_device``), the oldest are withdrawn in the
    same batch.
    """
    racks = rack_destinations(topology)
    width = layout.field("dst").width
    rack_len = max(1, (len(racks) - 1).bit_length())
    base_hop = {
        (d, r.match.pattern("dst").ternaries[0][0] >> (width - rack_len)): r.action
        for d, rules in base.items() for r in rules
    }
    trees = [topology.shortest_path_tree(rack) for rack in racks]
    turns = _device_stream(rng, topology)
    count = 0
    live: Dict[int, List[Tuple[int, Rule]]] = {}
    batches: List[Tuple[int, List[RuleUpdate]]] = []
    for _ in range(n_batches):
        device = sym.device[next(turns)] if per_device else -1
        batch: List[RuleUpdate] = []
        for _ in range(inserts):
            d = device if per_device else sym.device[next(turns)]
            value = sym.dst(rng.getrandbits(width))
            k = value >> (width - rack_len)
            hops = sorted(trees[k][d])
            others = [h for h in hops if h != base_hop.get((d, k))]
            plen = width - 4 + count % 5
            count += 1
            rule = Rule(10_000 + plen, Match.dst_prefix(value, plen, layout),
                        (others or hops)[0])
            batch.append(insert(d, rule))
            live.setdefault(device, []).append((d, rule))
        while len(live[device]) > cap:
            d, rule = live[device].pop(0)
            batch.append(delete(d, rule))
        batches.append((device, batch))
    return batches


def _requirements(
    rng: random.Random, sym: Symmetry, topology: Topology, layout: HeaderLayout
) -> Tuple[List[Requirement], Dict[str, Tuple[Tuple[int, int], int, int]]]:
    """Rack-to-rack reachability: ToR ``.*`` rack, for some rack prefixes.

    The first ``REQS_SATISFIED`` ask for the rack that owns the packet
    space; the last asks a rack that does not, so the converged FIB
    violates it.  Source, owner and (for the violated one) the asked rack
    sit in three different pods.
    """
    racks = rack_destinations(topology)
    width = layout.field("dst").width
    rack_len = max(1, (len(racks) - 1).bit_length())
    tors: Dict[int, List[int]] = {}
    for tor in sorted(topology.select(role="tor")):
        tors.setdefault(topology.device(tor).labels["pod"], []).append(tor)
    rack_of = lambda tor: racks.index(topology.device(tor).labels["rack"])
    reqs: List[Requirement] = []
    specs: Dict[str, Tuple[Tuple[int, int], int, int]] = {}
    for i in range(REQS_SATISFIED + 1):
        a, b, c = rng.sample(sorted(tors), 3)
        source = sym.device[rng.choice(tors[a])]
        k = rack_of(sym.device[rng.choice(tors[b])])
        asked = k if i < REQS_SATISFIED else rack_of(sym.device[rng.choice(tors[c])])
        dest = racks[asked]
        space = (k << (width - rack_len), rack_len)
        name = f"reach{i}"
        reqs.append(
            requirement(
                name,
                topology,
                layout,
                Match.dst_prefix(space[0], space[1], layout),
                [topology.name_of(source)],
                f"{topology.name_of(source)} .* {topology.name_of(dest)}",
            )
        )
        specs[name] = (space, source, dest)
    return reqs, specs


def _lnet() -> Topology:
    return fabric(pods=4, tors_per_pod=4, fabrics_per_pod=2,
                  spines_per_plane=2, name="LNet")


def _streams(seed: int, topology: Topology, layout: HeaderLayout):
    """(fixed draw stream, the seed's symmetry)."""
    return random.Random(CANONICAL), Symmetry(random.Random(seed), topology, layout)


def ecmp_storm(seed: int) -> Inputs:
    """LNet-ecmp storm: the whole FIB, one batch per device."""
    topo = _lnet()
    layout = dst_src_layout(10, 4)
    rng, sym = _streams(seed, topo, layout)
    rules = std_fib_ecmp(topo, layout, src_buckets=4)
    reqs, specs = _requirements(rng, sym, topo, layout)
    return Inputs(
        "ecmp_storm",
        topo,
        layout,
        base=[],
        batches=_per_device(topo, rules),
        queries=_queries(rng, sym, topo, layout),
        partition=_pod_partition(topo, layout),
        requirements=reqs,
        req_specs=specs,
    )


def fattree_churn(seed: int) -> Inputs:
    """Fat-tree APSP base FIB, then per-device churn batches."""
    topo = _lnet()
    layout = dst_only_layout(12)
    rng, sym = _streams(seed, topo, layout)
    rules = std_fib(topo, layout)
    # The first round of churn gives each switch its 2 overlay rules and
    # joins the set-up, so every timed batch installs 2 and withdraws 2.
    fill = len(topo.switches())
    batches = _churn(rng, sym, topo, layout, rules, n_batches=fill + FATTREE_BATCHES,
                     inserts=2, cap=2, per_device=True)
    base = _per_device(topo, rules) + batches[:fill]
    batches = batches[fill:]
    tor = topo.id_of("p0_tor0")
    fab = topo.id_of("p0_fab0")
    loop_match = Match.dst_prefix((1 << 12) - 1, 12, layout)
    probe = [
        (tor, [insert(tor, Rule(20_000, loop_match, fab))]),
        (fab, [insert(fab, Rule(20_000, loop_match, tor))]),
    ]
    return Inputs("fattree_churn", topo, layout, base=base,
                  batches=batches, queries=_queries(rng, sym, topo, layout),
                  loop_probe=probe)


def serve_rw(seed: int) -> Inputs:
    """Serve daemon: base FIB, then mixed-device churn batches."""
    topo = _lnet()
    layout = dst_only_layout(10)
    rng, sym = _streams(seed, topo, layout)
    rules = std_fib(topo, layout)
    base_updates = [u for _, b in _per_device(topo, rules) for u in b]
    fill = SERVE_CAP // 4
    batches = _churn(rng, sym, topo, layout, rules, n_batches=fill + SERVE_BATCHES,
                     inserts=4, cap=SERVE_CAP, per_device=False)
    base_updates += [u for _, b in batches[:fill] for u in b]
    batches = batches[fill:]
    queries = [q for _ in range(SERVE_QUERY_ROUNDS)
               for q in _queries(rng, sym, topo, layout)]
    return Inputs("serve_rw", topo, layout, base=[(-1, base_updates)],
                  batches=batches, queries=queries)


def fleet_storm(seed: int) -> Inputs:
    """The ecmp_storm traffic, for a one-worker fleet."""
    inputs = ecmp_storm(seed)
    inputs.name = "fleet_storm"
    inputs.requirements = []
    inputs.req_specs = {}
    return inputs


BUILDERS = {
    "ecmp_storm": ecmp_storm,
    "fattree_churn": fattree_churn,
    "serve_rw": serve_rw,
    "fleet_storm": fleet_storm,
}
