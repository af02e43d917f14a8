"""Seeded inputs for the ladder's workloads.

Everything a workload feeds the program is made here from ``--seed``:
the fat-tree's dark prefix, which cloud-corpus networks to audit or
serve, and the serve-mix clients' operation sequences.  The same seed
always gives the same inputs.  Each draw uses its own
``random.Random`` keyed by a string (hashed with SHA-512 by ``random``,
so draws do not depend on ``PYTHONHASHSEED``).

The program only ever sees the rendered config texts (filename → text),
which is what users hand the tool.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.gen import build_cloud_network, build_fattree
from repro.gen.cloud import SUITE_SIZE
from repro.lang import write_config

#: Where serve-mix's revision B moves the renumbered rack: a /24 no
#: device of revision A has a route for.
DARK_PREFIX = "10.250.0.0/24"

#: The rack whose reachability and loop queries fattree-k4 verifies.
FATTREE_RACK = "tor_0_0"

#: Cloud networks audited by cloud-audit.  The generator forces the
#: equivalence-drift and black-hole classes to at least 6 routers, so a
#: size-matched draw uses 6-router networks for every class: classes
#: then differ by their seeded bug, not by size.
CLOUD_ROUTERS = 6

#: Bug classes of the §8.1 corpus, in audit order.
CLOUD_CLASSES = ("hijack", "drift", "blackhole", "clean")

#: serve-mix's cloud snapshot size: the smallest whose reachability,
#: loop and black-hole pool (112 queries), with the fat-tree's 42,
#: reaches the 150 distinct queries the workload needs.
SERVE_CLOUD_ROUTERS = 5

#: serve-mix operation mix, drawn independently per operation: 80%
#: ``/verify``, 12% ``/verify-batch`` of 4, 8% ``refresh``.
OP_WEIGHTS = (("verify", 80), ("batch", 12), ("refresh", 8))
BATCH_SIZE = 4
#: Query popularity follows Zipf's law in its classic form, weight
#: 1/rank.  The workload asks for a Zipf draw and names no exponent;
#: nothing was tuned.
ZIPF_EXPONENT = 1.0


def render(network) -> Dict[str, str]:
    """Config texts of a built network, one file per router."""
    return {f"{name}.cfg": write_config(dev)
            for name, dev in network.devices.items()}


# ---------------------------------------------------------------------------
# fattree-k4
# ---------------------------------------------------------------------------

def dark_prefix(seed: int) -> str:
    """A /24 of 10.250.0.0/16, where no fat-tree device has a route.

    Every such loop query costs the same under its conflict budget, so
    the seed varies the input without varying the work.  The racks are
    not drawn: their isomorphic reachability queries need 4000 to
    10000 conflicts depending on the rack, which would let the seed,
    not the code, set the timings.
    """
    third = random.Random(f"fattree-k4:{seed}").randrange(256)
    return f"10.250.{third}.0/24"


def fattree_inputs(seed: int) -> Tuple[Dict[str, str], str, str]:
    """The k=4 fat-tree's texts, the seeded dark prefix and the prefix
    of the verified rack (:data:`FATTREE_RACK`)."""
    tree = build_fattree(4)
    return (render(tree.network), dark_prefix(seed),
            tree.tor_subnet(FATTREE_RACK))


# ---------------------------------------------------------------------------
# cloud-audit
# ---------------------------------------------------------------------------

def cloud_class(cloud) -> str:
    """The seeded bug class of one corpus network."""
    if cloud.seeded_hijack:
        return "hijack"
    if cloud.seeded_equiv_drift:
        return "drift"
    if cloud.seeded_blackhole:
        return "blackhole"
    return "clean"


def cloud_pools(routers: int = CLOUD_ROUTERS) -> Dict[str, List[int]]:
    """Corpus indices of the ``routers``-router networks, per class."""
    pools: Dict[str, List[int]] = {name: [] for name in CLOUD_CLASSES}
    for index in range(SUITE_SIZE):
        cloud = build_cloud_network(index)
        if len(cloud.network.devices) == routers:
            pools[cloud_class(cloud)].append(index)
    return pools


def draw_cloud(seed: int, pools: Dict[str, List[int]]) -> List[int]:
    """One network per bug class, in :data:`CLOUD_CLASSES` order."""
    rng = random.Random(f"cloud-audit:{seed}")
    return [rng.choice(pools[name]) for name in CLOUD_CLASSES]


def draw_serve_cloud(seed: int) -> int:
    """The corpus index of serve-mix's cloud snapshot: one of the
    :data:`SERVE_CLOUD_ROUTERS`-router networks, any bug class."""
    candidates = sorted(itertools.chain.from_iterable(
        cloud_pools(SERVE_CLOUD_ROUTERS).values()))
    return random.Random(f"serve-mix:cloud:{seed}").choice(candidates)


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

def renumber_rack(texts: Dict[str, str], tor: str,
                  old_prefix: str, new_prefix: str) -> Dict[str, str]:
    """Revision B of a fat-tree: one ToR's rack moved to another /24."""
    old = old_prefix.rsplit(".", 1)[0] + "."
    new = new_prefix.rsplit(".", 1)[0] + "."
    out = dict(texts)
    out[f"{tor}.cfg"] = texts[f"{tor}.cfg"].replace(old, new)
    return out


def query_pool(snapshot: str, routers: Sequence[str],
               prefixes: Sequence[str]) -> List[Tuple[str, Dict]]:
    """Every (snapshot, query spec) of one snapshot: reachability from
    each single router plus loops and black holes, per prefix and
    k∈{0,1}."""
    pool = []
    for prefix in prefixes:
        for k in (0, 1):
            for router in routers:
                pool.append((snapshot, {
                    "property": "reachability", "sources": [router],
                    "dest_prefix": prefix, "max_failures": k}))
            for kind in ("loops", "blackholes"):
                pool.append((snapshot, {
                    "property": kind, "dest_prefix": prefix,
                    "max_failures": k}))
    return pool


def spec_key(spec: Dict) -> str:
    """A stable identity for one query spec."""
    sources = ",".join(spec.get("sources", ()))
    return (f"{spec['property']}[{sources}]->{spec['dest_prefix']}"
            f"/k{spec['max_failures']}")


def popularity(seed: int, size: int) -> List[int]:
    """Pool indices by popularity rank, most popular first: a seeded
    shuffle shared by both clients (tenants ask for the same popular
    queries)."""
    order = list(range(size))
    random.Random(f"serve-mix:ranks:{seed}").shuffle(order)
    return order


def serve_ops(seed: int, client: int,
              pool: Sequence[Tuple[str, Dict]]) -> Iterator[Tuple]:
    """The endless operation sequence of one serve-mix client.

    Each operation is ``("verify", snapshot, [i])``, ``("batch",
    snapshot, [i, j, k, l])`` (pool indices, all on one snapshot) or
    ``("refresh", "ft", [])``, its kind drawn by :data:`OP_WEIGHTS`.
    Each query is an independent Zipf draw over the seed's popularity
    ranking; a batch's further queries are redrawn until they fall on
    the first one's snapshot.
    """
    order = popularity(seed, len(pool))
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))))
    rng = random.Random(f"serve-mix:ops:{seed}:{client}")
    kinds = [kind for kind, _ in OP_WEIGHTS]
    kind_weights = [weight for _, weight in OP_WEIGHTS]

    def draw(snapshot=None) -> int:
        while True:
            index = rng.choices(order, cum_weights=cumulative)[0]
            if snapshot is None or pool[index][0] == snapshot:
                return index

    while True:
        kind = rng.choices(kinds, weights=kind_weights)[0]
        if kind == "refresh":
            yield ("refresh", "ft", [])
            continue
        first = draw()
        if kind == "verify":
            yield ("verify", pool[first][0], [first])
            continue
        snapshot = pool[first][0]
        rest = [draw(snapshot) for _ in range(BATCH_SIZE - 1)]
        yield ("batch", snapshot, [first] + rest)
