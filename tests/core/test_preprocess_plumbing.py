"""EncoderOptions.preprocess threads through every solver entry point.

The verifier, the batch engine and the equivalence checker all build
their own :class:`~repro.smt.Solver`; each must honor the option, and
the verdicts must be independent of it (the pipeline is transparent)."""

from repro.core import (BatchEngine, BatchQuery, EncoderOptions, Verifier,
                        properties as P)
from repro.smt import Solver

from tests.core.test_verifier import diamond, ospf_chain


def test_facade_default_and_toggle():
    assert Solver().preprocess is True
    assert Solver(preprocess=False)._sat.preprocess_enabled is False
    assert EncoderOptions().preprocess is True


def test_verifier_threads_option():
    builder, _ = ospf_chain(3)
    network = builder.build()
    prop = P.Reachability(sources="all", dest_prefix_text="10.9.0.0/24")
    results = {}
    for toggle in (True, False):
        verifier = Verifier(network,
                            options=EncoderOptions(preprocess=toggle))
        results[toggle] = verifier.verify(prop).holds
    assert results[True] == results[False] is True


def test_fault_invariance_threads_option():
    network = diamond().build()
    prop = P.Reachability(sources="all", dest_prefix_text="10.9.0.0/24")
    for toggle in (True, False):
        verifier = Verifier(network,
                            options=EncoderOptions(preprocess=toggle,
                                                   max_failures=1))
        assert verifier.verify(prop).holds is True


def test_batch_engine_threads_option():
    builder, _ = ospf_chain(3)
    network = builder.build()
    queries = [BatchQuery(P.Reachability(
                   sources="all", dest_prefix_text="10.9.0.0/24")),
               BatchQuery(P.NoForwardingLoops())]
    verdicts = {}
    for toggle in (True, False):
        results = BatchEngine(
            network, options=EncoderOptions(preprocess=toggle)).run(queries)
        verdicts[toggle] = [r.holds for r in results]
    assert verdicts[True] == verdicts[False] == [True, True]
