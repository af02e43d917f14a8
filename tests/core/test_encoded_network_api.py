"""API-surface tests for EncodedNetwork and Verifier plumbing."""

from repro import NetworkBuilder, Verifier
from repro.core import properties as P
from repro.core.encoder import EncoderOptions, NetworkEncoder
from repro.smt import FALSE


def tiny():
    builder = NetworkBuilder()
    for name in ("A", "B"):
        dev = builder.device(name)
        dev.enable_ospf()
        dev.ospf_network("10.0.0.0/8")
    builder.link("A", "B")
    builder.device("B").interface("host", "10.9.0.1/24")
    return builder.build()


class TestEncodedNetworkApi:
    def test_targets_and_defaults(self):
        enc = NetworkEncoder(tiny(), EncoderOptions()).encode()
        assert "B" in enc.targets_of("A")
        assert enc.data_fwd("A", "nonexistent") is FALSE
        assert enc.control_fwd("A", "nonexistent") is FALSE
        assert enc.link_failed("A", "B") is FALSE  # k = 0

    def test_fresh_names_are_unique(self):
        enc = NetworkEncoder(tiny(), EncoderOptions()).encode()
        a = enc.fresh_bool("x")
        b = enc.fresh_bool("x")
        assert a is not b
        v = enc.fresh_bv("y", 4)
        w = enc.fresh_bv("y", 4)
        assert v is not w

    def test_routers_sorted(self):
        enc = NetworkEncoder(tiny(), EncoderOptions()).encode()
        assert enc.routers() == ["A", "B"]

    def test_namespace_isolates_variables(self):
        encoder = NetworkEncoder(tiny(), EncoderOptions())
        enc1 = encoder.encode(ns="one.")
        enc2 = encoder.encode(ns="two.")
        assert enc1.dst_ip is not enc2.dst_ip


class TestWaypointEdgeCases:
    def test_source_is_first_waypoint(self):
        net = tiny()
        result = Verifier(net).verify(P.Waypointing(
            source="A", waypoints=["A"],
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True

    def test_source_is_entire_chain(self):
        net = tiny()
        result = Verifier(net).verify(P.Waypointing(
            source="A", waypoints=["A", "B"],
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True

    def test_empty_chain_is_trivially_held(self):
        net = tiny()
        result = Verifier(net).verify(P.Waypointing(
            source="A", waypoints=[],
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True


class TestFailuresNeeded:
    def test_property_can_force_failure_modeling(self):
        net = tiny()
        prop = P.Reachability(sources=["A"],
                              dest_prefix_text="10.9.0.0/24")
        prop.failures_needed = 1
        # A-B is a single link: with failures modeled the property breaks.
        result = Verifier(net).verify(prop)
        assert result.holds is False
        assert result.counterexample.failed_links
