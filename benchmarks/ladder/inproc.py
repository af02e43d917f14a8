"""The in-process workloads: fattree-k4 and cloud-audit.

Each operation starts from config text, the way a user runs the tool:
``network_from_texts`` → ``Verifier`` (which runs the preflight lint) →
``verify*``.  The timed phase repeats whole units of work (the
fat-tree's two operations, one cloud network's audit) until ``seconds``
have passed, so it always ends after the unit in flight.  A traced run
installs an ``obs.Tracer`` and wraps every public call the ladder makes
in its own ``ladder.*`` span, so the program's spans nest under it.
"""

from __future__ import annotations

import itertools
import sys
import time
import traceback
from dataclasses import replace
from typing import Callable, List

from repro import Verifier, network_from_texts, obs
from repro.core import BatchQuery, properties as P
from repro.gen import build_cloud_network
from repro.obs.promexport import parse_exposition, to_prometheus

from . import draws
from .measure import Run, counters_from_exposition, peak_rss_mb, timed_setup

#: Conflict budget of the fat-tree dark-prefix loop query.
DARK_BUDGET = 5000
#: Conflict budget of every cloud-audit query (bounds the double-copy
#: fault-invariance proofs; the other checks need far fewer conflicts).
CLOUD_BUDGET = 50_000
#: Set-up repetitions (the median is reported): cloud-audit's takes
#: about 0.15 s, the fat-tree's milliseconds.
SETUP_REPS = 11
FATTREE_SETUP_REPS = 21


def _call(tracer, name: str, fn: Callable, *args, **kwargs):
    with tracer.span(f"ladder.{name}"):
        return fn(*args, **kwargs)


def _timed(run: Run, seconds: float) -> None:
    """One query operation's latency; in-process calls keep no verdict
    cache, so every one ran the solver."""
    run.latencies.append(seconds)
    run.fresh_latencies.append(seconds)


def _operation_failed(run: Run, what: str) -> None:
    run.failed += 1
    run.problems.append(f"{what}: {traceback.format_exc(limit=3)}")
    traceback.print_exc(file=sys.stderr)


def _finish(run: Run, tracer, start: float) -> None:
    run.wall_s = run.client_s = time.perf_counter() - start
    run.peak_rss_mb = peak_rss_mb()
    if tracer.enabled:
        run.spans = tracer.spans
        run.counters = counters_from_exposition(
            parse_exposition(to_prometheus(tracer.metrics)))


# ---------------------------------------------------------------------------
# fattree-k4
# ---------------------------------------------------------------------------

def fattree_k4(seed: int, seconds: float, trace: bool) -> Run:
    """The seeded dark-prefix loop query, then the rack's reachability
    and loop queries as one ``verify_batch``; repeated until
    ``seconds``."""
    run = Run("fattree-k4", seed, trace)
    run.setup_s, (texts, dark, rack) = timed_setup(
        lambda: draws.fattree_inputs(seed), FATTREE_SETUP_REPS)
    ops = [("dark", dark), (draws.FATTREE_RACK, rack)]
    tracer = obs.Tracer(lane="ladder") if trace else obs.NULL_TRACER
    start = time.perf_counter()
    deadline = start + seconds
    with obs.use(tracer):
        for index, (label, prefix) in enumerate(itertools.cycle(ops)):
            run.attempted += 1
            began = time.perf_counter()
            try:
                results = _fattree_op(tracer, texts, label, prefix)
            except Exception:
                _operation_failed(run, f"op {index} ({label})")
            else:
                _timed(run, time.perf_counter() - began)
                _check_fattree(run, index, label, results)
            # Whole cycles only: a query alone outlasts a short run, and
            # a run must not measure the dark query without the rack.
            if index % len(ops) == len(ops) - 1 and \
                    time.perf_counter() >= deadline:
                break
    _finish(run, tracer, start)
    return run


def _fattree_op(tracer, texts, label: str, prefix: str) -> List:
    network = _call(tracer, "network_from_texts", network_from_texts, texts)
    if label == "dark":
        verifier = _call(tracer, "Verifier", Verifier, network,
                         conflict_budget=DARK_BUDGET)
        query = P.NoForwardingLoops(dest_prefix_text=prefix)
        return [_call(tracer, "verify", verifier.verify, query)]
    verifier = _call(tracer, "Verifier", Verifier, network)
    batch = [
        BatchQuery(P.Reachability(sources="all", dest_prefix_text=prefix),
                   label=f"reach-{label}"),
        BatchQuery(P.NoForwardingLoops(dest_prefix_text=prefix),
                   label=f"loops-{label}"),
    ]
    return _call(tracer, "verify_batch", verifier.verify_batch, batch,
                 workers=1)


def _check_fattree(run: Run, index: int, label: str, results) -> None:
    """Every rack query holds by construction; the dark prefix has no
    routes anywhere, so its loop query holds whenever it is decided."""
    for result in results:
        name = f"{index}:{label}:{result.property_name}"
        run.results.append(replace(result, property_name=name))
        run.answered += 1
        run.solved += 1
        if result.holds is None:
            run.unknown += 1
            if label != "dark":
                run.problems.append(f"{name}: unexpected UNKNOWN")
                run.wrong += 1
            continue
        run.checks += 1
        if result.holds is not True:
            run.wrong += 1
            run.problems.append(f"{name}: expected HOLDS, got VIOLATED")


# ---------------------------------------------------------------------------
# cloud-audit
# ---------------------------------------------------------------------------

def cloud_inputs(seed: int):
    """One drawn corpus network per bug class, with its texts."""
    indices = draws.draw_cloud(seed, draws.cloud_pools())
    clouds = [build_cloud_network(index) for index in indices]
    return [(cloud, draws.render(cloud.network)) for cloud in clouds]


def cloud_audit(seed: int, seconds: float, trace: bool) -> Run:
    """The §8.1 four-check battery, one network at a time, cycling
    through the drawn networks until ``seconds`` have passed."""
    run = Run("cloud-audit", seed, trace)
    run.setup_s, networks = timed_setup(lambda: cloud_inputs(seed),
                                        SETUP_REPS)
    tracer = obs.Tracer(lane="ladder") if trace else obs.NULL_TRACER
    start = time.perf_counter()
    deadline = start + seconds
    with obs.use(tracer):
        for index, (cloud, texts) in enumerate(itertools.cycle(networks)):
            _audit(run, tracer, index, cloud, texts)
            if time.perf_counter() >= deadline:
                break
    _finish(run, tracer, start)
    return run


def _audit(run: Run, tracer, index: int, cloud, texts) -> None:
    """Build one network from its texts and run every check to the end
    (no early exit), then compare each check with the seeded label."""
    run.attempted += 1
    try:
        network = _call(tracer, "network_from_texts", network_from_texts,
                        texts)
        verifier = _call(tracer, "Verifier", Verifier, network,
                         conflict_budget=CLOUD_BUDGET)
    except Exception:
        _operation_failed(run, f"{cloud.name} load")
        return
    outcomes = {"hijack": [], "drift": [], "blackhole": [],
                "fault-invariance": []}

    def query(check: str, detail: str, fn: Callable, *args, **kwargs):
        run.attempted += 1
        began = time.perf_counter()
        try:
            result = _call(tracer, fn.__name__, fn, *args, **kwargs)
        except Exception:
            _operation_failed(run, f"{cloud.name} {check} {detail}")
            return
        _timed(run, time.perf_counter() - began)
        name = f"{index}:{cloud.name}:{check}:{detail}"
        run.results.append(replace(result, property_name=name))
        run.answered += 1
        run.solved += 1
        run.unknown += result.holds is None
        outcomes[check].append(result.holds)

    for prefix in cloud.management_prefixes[:3]:
        query("hijack", prefix, verifier.verify,
              P.Reachability(sources="all", dest_prefix_text=prefix))
    for members in cloud.roles.values():
        pairs = list(zip(members, members[1:]))
        # First and last pair: generated drift sits on a role's last member.
        for a, b in pairs[:1] + pairs[1:][-1:]:
            query("drift", f"{a}~{b}", verifier.verify_local_equivalence,
                  a, b, iface_pairing="by-name")
    edge = [r for r in network.router_names()
            if r.startswith(("tor", "core"))]
    space = f"10.{cloud.index % 120}.0.0/16"
    query("blackhole", space, verifier.verify,
          P.NoBlackHoles(allowed=edge, dest_prefix_text=space))
    # A rack in the inbound-filtered internal space: reachability there
    # can only change through failures, which is what the check isolates.
    racks = cloud.roles["tor"] or cloud.roles["core"]
    rack = f"10.{cloud.index % 120}.{len(racks) - 1}.0/24"
    query("fault-invariance", rack,
          verifier.verify_pairwise_fault_invariance, k=1, dest_prefix=rack)

    expected = {"hijack": cloud.seeded_hijack,
                "drift": cloud.seeded_equiv_drift,
                "blackhole": cloud.seeded_blackhole,
                "fault-invariance": False}
    for check, verdicts in outcomes.items():
        violated = False in verdicts
        if not violated and None in verdicts:
            continue  # undecided: counted in unknown_ratio, never wrong
        run.checks += 1
        if violated != expected[check]:
            run.wrong += 1
            run.problems.append(
                f"{cloud.name} {check}: violated={violated}, "
                f"seeded={expected[check]}")
