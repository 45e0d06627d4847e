"""Unit tests for channels, interactions and interaction points."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.estelle import Channel, ChannelError, Interaction, InteractionPoint


@pytest.fixture
def channel():
    return Channel("Svc", user={"Req", "Abort"}, provider={"Conf", "Ind"})


class Owner:
    def __init__(self, name):
        self.name = name


def make_pair(channel):
    a = InteractionPoint(Owner("a"), "p", channel.role("user"))
    b = InteractionPoint(Owner("b"), "p", channel.role("provider"))
    a.connect_to(b)
    return a, b


class TestChannel:
    def test_requires_exactly_two_roles(self):
        with pytest.raises(ChannelError):
            Channel("Bad", only={"X"})
        with pytest.raises(ChannelError):
            Channel("Bad", a={"X"}, b={"Y"}, c={"Z"})

    def test_role_lookup(self, channel):
        assert channel.role("user").allows("Req")
        assert not channel.role("user").allows("Conf")
        with pytest.raises(ChannelError):
            channel.role("nope")

    def test_peer_roles_are_complementary(self, channel):
        user = channel.role("user")
        provider = channel.role("provider")
        assert user.peer is provider
        assert provider.peer is user

    def test_all_interactions(self, channel):
        assert channel.all_interactions() == {"Req", "Abort", "Conf", "Ind"}


class TestInteraction:
    def test_params_are_owned_and_module_output_hands_over_its_own(self, channel):
        """An interaction keeps the dict it is given (no copy), so every
        sender must pass one nobody else holds.  ``Module.output`` passes its
        ``**params``, which a caller's later mutation cannot reach, and logs
        the IP it sent on."""
        from repro.estelle import Module, ModuleAttribute, ip

        params = {"x": 1}
        assert Interaction("Req", params).params is params

        class Station(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
            svc = ip("svc", channel, role="user")

        station = Station("station")
        peer = InteractionPoint(Owner("b"), "p", channel.role("provider"))
        station.ips["svc"].connect_to(peer)
        station.output("svc", "Req", **params)
        params["x"] = 2
        assert peer.head().param("x") == 1
        assert station.send_log == {station.ips["svc"]: 1}

    def test_with_params_creates_new_interaction(self):
        first = Interaction("Req", {"a": 1})
        second = first.with_params(b=2)
        assert second.param("a") == 1 and second.param("b") == 2
        assert first.param("b") is None
        assert first.uid != second.uid

    def test_param_default(self):
        assert Interaction("Req").param("missing", 42) == 42


class TestInteractionPoint:
    def test_connect_and_exchange(self, channel):
        a, b = make_pair(channel)
        a.output(Interaction("Req", {"n": 1}))
        assert b.pending() == 1
        received = b.consume()
        assert received.name == "Req"
        assert received.param("n") == 1
        assert b.pending() == 0

    def test_output_unconnected_raises(self, channel):
        a = InteractionPoint(Owner("a"), "p", channel.role("user"))
        with pytest.raises(ChannelError):
            a.output(Interaction("Req"))

    def test_unconnected_output_names_the_nested_module_path(self, channel):
        """The diagnostic names the IP by the owner's full path, not by its
        bare name, so a nested module's error says where it is."""
        from repro.estelle import Module, ModuleAttribute, ip

        class Station(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS

        class Handler(Module):
            svc = ip("svc", channel, role="user")

        handler = Station("station").create_child(Handler, "h1")
        assert handler.path == "station/h1"
        with pytest.raises(ChannelError, match=re.escape("station/h1.svc is not")):
            handler.output("svc", "Req")
        assert handler.send_log == {}  # a refused send is not logged

    def test_output_wrong_role_raises(self, channel):
        a, b = make_pair(channel)
        with pytest.raises(ChannelError):
            a.output(Interaction("Conf"))  # Conf belongs to the provider role

    def test_cannot_connect_same_role(self, channel):
        a = InteractionPoint(Owner("a"), "p", channel.role("user"))
        b = InteractionPoint(Owner("b"), "p", channel.role("user"))
        with pytest.raises(ChannelError):
            a.connect_to(b)

    def test_cannot_connect_across_channels(self, channel):
        other = Channel("Other", user={"Req"}, provider={"Conf"})
        a = InteractionPoint(Owner("a"), "p", channel.role("user"))
        b = InteractionPoint(Owner("b"), "p", other.role("provider"))
        with pytest.raises(ChannelError):
            a.connect_to(b)

    def test_double_connection_rejected(self, channel):
        a, b = make_pair(channel)
        c = InteractionPoint(Owner("c"), "p", channel.role("provider"))
        with pytest.raises(ChannelError):
            a.connect_to(c)

    def test_disconnect_clears_both_sides(self, channel):
        a, b = make_pair(channel)
        a.disconnect()
        assert not a.connected and not b.connected

    def test_consume_empty_raises(self, channel):
        a, b = make_pair(channel)
        with pytest.raises(ChannelError):
            b.consume()

    def test_head_does_not_consume(self, channel):
        a, b = make_pair(channel)
        a.output(Interaction("Req"))
        assert b.head().name == "Req"
        assert b.pending() == 1

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
    def test_fifo_ordering_property(self, sequence):
        """Interactions are always delivered in the order they were sent."""
        channel = Channel("Svc", user={"Req"}, provider={"Conf"})
        a, b = make_pair(channel)
        for value in sequence:
            a.output(Interaction("Req", {"n": value}))
        received = [b.consume().param("n") for _ in range(b.pending())]
        assert received == sequence
