"""Cluster topology: data centers, services, host inventory.

A topology is the static shape of the deployment — which hosts exist,
where they live, and which services they run.  The directory built from
it describes each host for Scrub's ``@[...]`` target expressions (paper
Section 3.2).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.agent.agent import ScrubAgent
from ..core.query.targets import HostDescription
from .host import DEFAULT_COST_MODEL, CostModel, SimHost

__all__ = ["Topology", "ClusterDirectory"]


class Topology:
    """Mutable host inventory with service/datacenter indexing."""

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL) -> None:
        self._hosts: dict[str, SimHost] = {}
        self._cost_model = cost_model

    def add_host(
        self, name: str, datacenter: str, services: Iterable[str] = ()
    ) -> SimHost:
        if name in self._hosts:
            raise ValueError(f"host {name!r} already exists")
        host = SimHost(name, datacenter, services, self._cost_model)
        self._hosts[name] = host
        return host

    def add_service(
        self, service: str, datacenter: str, count: int, name_prefix: str | None = None
    ) -> list[SimHost]:
        """Add *count* hosts running *service* in *datacenter*.

        Host names are ``<prefix><dc>-<index>``; the prefix defaults to
        a lowercased service name.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        prefix = name_prefix if name_prefix is not None else service.lower()
        created = []
        start = sum(
            1
            for host in self._hosts.values()
            if service in host.services and host.datacenter == datacenter
        )
        for i in range(start, start + count):
            created.append(
                self.add_host(f"{prefix}-{datacenter}-{i}", datacenter, [service])
            )
        return created

    def host(self, name: str) -> SimHost:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(
                f"no host {name!r}; known: {sorted(self._hosts)[:10]}..."
            ) from None

    def hosts(self) -> list[SimHost]:
        return list(self._hosts.values())

    def hosts_in_service(self, service: str) -> list[SimHost]:
        wanted = service.lower()
        return [
            host
            for host in self._hosts.values()
            if any(s.lower() == wanted for s in host.services)
        ]

    def hosts_in_datacenter(self, datacenter: str) -> list[SimHost]:
        return [h for h in self._hosts.values() if h.datacenter == datacenter]

    def datacenters(self) -> tuple[str, ...]:
        return tuple(sorted({h.datacenter for h in self._hosts.values()}))

    def services(self) -> tuple[str, ...]:
        out: set[str] = set()
        for host in self._hosts.values():
            out.update(host.services)
        return tuple(sorted(out))

    def __len__(self) -> int:
        return len(self._hosts)

    def __iter__(self) -> Iterator[SimHost]:
        return iter(self._hosts.values())

    def __contains__(self, name: str) -> bool:
        return name in self._hosts


class ClusterDirectory:
    """The simulated cluster's implementation of
    :class:`repro.core.server.HostDirectory`: the topology's hosts that
    have a live agent, described the way ``@[...]`` targeting reads them."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology

    def hosts(self) -> list[tuple[HostDescription, ScrubAgent]]:
        return [
            (host.description, host.agent)
            for host in self._topology
            if host.agent is not None
        ]
