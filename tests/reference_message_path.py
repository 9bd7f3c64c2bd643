"""The message path as it was before it became a callback chain: one
``_deliver`` process per message around one ``_transfer_proc`` process
per transfer.  Kept as the reference ``tests/test_net_message_path.py``
compares :class:`~repro.net.Transport` / :class:`~repro.net.Network`
against; nothing under ``src/`` may import it.
"""

from repro.net import Network, Transport
from repro.net.bandwidth import TransferAbortedError
from repro.obs.events import TransferAborted


class ReferenceNetwork(Network):

    def set_host_online(self, name, online, reason="link down"):
        if online or name in self._offline:
            return super().set_host_online(name, online, reason)
        host = self._hosts[name]
        self._offline.add(name)  # each aborted flow's process publishes
        self._scheduler.abort_flows((host.uplink, host.downlink), reason)

    def _start(self, source, destination, size, done, delay=0.0):
        self.sim.process(self._transfer_proc(source, destination, size, done),
                         name=f"xfer:{source.name}->{destination.name}")

    def _transfer_proc(self, source, destination, size, done):
        try:
            if source.name in self._offline \
                    or destination.name in self._offline:
                raise TransferAbortedError(
                    "host offline", source.name, destination.name, size)
            delay = self.latency(source.name, destination.name)
            if delay > 0:
                yield self.sim.timeout(delay)
            if source.name in self._offline \
                    or destination.name in self._offline:
                raise TransferAbortedError(
                    "host offline", source.name, destination.name, size)
            yield self._scheduler.start_flow(
                (source.uplink, destination.downlink), size)
        except TransferAbortedError as exc:
            bus = self.sim.bus
            if bus.wants(TransferAborted):
                bus.publish(TransferAborted(
                    at=self.sim.now, src=source.name, dst=destination.name,
                    size=size, reason=exc.reason))
            done.fail(TransferAbortedError(
                exc.reason, source.name, destination.name, size))
            return
        done.succeed(size)


class ReferenceTransport(Transport):

    def send(self, message):
        if message.dst not in self._endpoints:
            raise KeyError(f"no endpoint registered for {message.dst!r}")
        delivered = self.sim.event()
        self.sim.process(
            self._deliver(message, delivered),
            name=f"msg:{message.kind}:{message.src}->{message.dst}")
        return delivered

    def _deliver(self, message, delivered):
        try:
            yield self.network.transfer(
                message.src, message.dst, message.size)
        except TransferAbortedError:
            self.dropped += 1
            return
        message.delivered_at = self.sim.now
        self.delivered_by_kind[message.kind] = (
            self.delivered_by_kind.get(message.kind, 0) + 1)
        endpoint = self._endpoints[message.dst]
        if endpoint._take is None or not endpoint._take(message):
            yield endpoint.inbox.put(message)
        delivered.succeed(message)
