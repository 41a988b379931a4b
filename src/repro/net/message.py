"""Message types exchanged over the simulated network.

The network layer is deliberately transport-agnostic: every interaction is a
:class:`Message` carrying a *kind* (request, response or one-way), a method
name and an arbitrary payload.  The RPC layer (:mod:`repro.net.rpc`) builds
its request/response correlation on top of these fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from .address import Address


class MessageKind(Enum):
    """Discriminates the three message categories used by the RPC layer."""

    REQUEST = "request"
    RESPONSE = "response"
    ONEWAY = "oneway"


@dataclass(frozen=True, slots=True)
class Message:
    """A single message travelling between two endpoints.

    Attributes
    ----------
    source, destination:
        Endpoint addresses.
    kind:
        Request, response or one-way notification.
    method:
        Name of the remote method being invoked (requests/one-ways) or that
        was invoked (responses).
    payload:
        Arguments for requests (a mapping), the return value for successful
        responses, or the exception instance for failed responses.
    request_id:
        Correlation identifier linking a response to its request.
    is_error:
        ``True`` for responses that carry an exception as their payload.
    sent_at:
        Simulated time at which the message was handed to the network.
    """

    source: Address
    destination: Address
    kind: MessageKind
    method: str
    payload: Any = None
    request_id: int = 0
    is_error: bool = False
    sent_at: float = 0.0

    def reply(self, payload: Any, *, sent_at: float, is_error: bool = False) -> "Message":
        """Build the response message for this request.

        ``sent_at`` is deliberately required: a response stamped with the
        dataclass default (epoch zero) would poison live-mode latency
        metrics and perturbation-window accounting, so the responder must
        pass its runtime clock explicitly.
        """
        if self.kind is not MessageKind.REQUEST:
            raise ValueError("only request messages can be replied to")
        return Message(
            source=self.destination,
            destination=self.source,
            kind=MessageKind.RESPONSE,
            method=self.method,
            payload=payload,
            request_id=self.request_id,
            is_error=is_error,
            sent_at=sent_at,
        )


@dataclass(slots=True)
class TrafficStats:
    """Aggregate traffic counters maintained by the network."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    per_method: dict[str, int] = field(default_factory=dict)

    def record_sent(self, message: Message) -> None:
        self.sent += 1
        per_method = self.per_method
        method = message.method
        per_method[method] = per_method.get(method, 0) + 1

    def record_delivered(self, message: Message) -> None:
        self.delivered += 1

    def record_dropped(self, message: Message) -> None:
        self.dropped += 1

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict copy suitable for experiment reports."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "per_method": dict(self.per_method),
        }


@dataclass(frozen=True, slots=True)
class DeliveryReceipt:
    """Returned by :meth:`repro.net.transport.Network.send` for tracing."""

    message: Message
    delivered: bool
    latency: Optional[float]
    reason: Optional[str] = None
