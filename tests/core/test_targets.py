"""Tests for @[...] target resolution and host sampling."""

import pytest

from repro.core.query import parse_query
from repro.core.query.targets import HostDescription, rendezvous_sample, target_matches


def target_of(text):
    return parse_query(f"select COUNT(*) from bid {text};").target


H1 = HostDescription("host1", services=["BidServers"], datacenter="DC1")
H2 = HostDescription("host2", services=["AdServers"], datacenter="DC1")
H3 = HostDescription("host3", services=["BidServers", "AdServers"], datacenter="DC2")


class TestMatching:
    def test_all(self):
        t = target_of("@[all]")
        assert all(target_matches(t, h) for h in (H1, H2, H3))

    def test_server_eq(self):
        t = target_of("@[Server = host1]")
        assert target_matches(t, H1)
        assert not target_matches(t, H2)

    def test_servers_in(self):
        t = target_of("@[Servers in (host1, host3)]")
        assert target_matches(t, H1)
        assert not target_matches(t, H2)
        assert target_matches(t, H3)

    def test_service_in(self):
        t = target_of("@[Service in BidServers]")
        assert target_matches(t, H1)
        assert not target_matches(t, H2)
        assert target_matches(t, H3)  # multi-service host

    def test_service_case_insensitive(self):
        t = target_of("@[Service in bidservers]")
        assert target_matches(t, H1)

    def test_datacenter(self):
        t = target_of("@[Datacenter = dc2]")
        assert not target_matches(t, H1)
        assert target_matches(t, H3)

    def test_compound_and(self):
        """Paper 3.2's example: AdServers clients in the San Jose DC."""
        t = target_of("@[Service in AdServers and Datacenter = DC1]")
        assert not target_matches(t, H1)
        assert target_matches(t, H2)
        assert not target_matches(t, H3)  # right service, wrong DC

    def test_paper_figure_9_target(self):
        t = target_of("@[Service in BidServers and Server = host1]")
        assert target_matches(t, H1)
        assert not target_matches(t, H3)


class TestHostSampling:
    def test_full_rate_keeps_all(self):
        hosts = list(range(20))
        assert sorted(rendezvous_sample(hosts, 1.0, seed=1)) == hosts

    def test_sample_size_is_ceiling(self):
        hosts = list(range(20))
        assert len(rendezvous_sample(hosts, 0.10, seed=1)) == 2
        assert len(rendezvous_sample(hosts, 0.05, seed=1)) == 1
        assert len(rendezvous_sample(hosts, 0.51, seed=1)) == 11

    def test_at_least_one_host(self):
        assert len(rendezvous_sample([1, 2, 3], 0.01, seed=1)) == 1

    def test_deterministic_in_seed(self):
        hosts = list(range(100))
        assert rendezvous_sample(hosts, 0.2, seed=7) == rendezvous_sample(hosts, 0.2, seed=7)
        assert rendezvous_sample(hosts, 0.2, seed=7) != rendezvous_sample(hosts, 0.2, seed=8)

    def test_subset_of_input(self):
        hosts = list(range(50))
        chosen = rendezvous_sample(hosts, 0.3, seed=3)
        assert set(chosen) <= set(hosts)
        assert len(set(chosen)) == len(chosen)

    def test_empty_input(self):
        assert rendezvous_sample([], 0.5, seed=1) == []

    def test_bad_rate(self):
        from repro.core.query.errors import ScrubValidationError

        with pytest.raises(ScrubValidationError):
            rendezvous_sample([1], 0.0, seed=1)
        with pytest.raises(ScrubValidationError):
            rendezvous_sample([1], 1.5, seed=1)
