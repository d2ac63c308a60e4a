"""Shared domain types: identifiers, media packets, raw link statistics.

All types here are immutable values; they can be copied and shared between
threads freely.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

# Identifiers are unsigned 32-bit integers. 0 is reserved as "none" so that
# tables can use it as a sentinel.
ReflectorId = int
ClientId = int
RoomId = int

MAX_ID = 0xFFFFFFFF
NO_ID = 0

LinkKey = tuple  # (ReflectorId, ReflectorId) with the smaller id first


def check_id(value: int, what: str = "id") -> int:
    """Validate an identifier: an int in 1..2**32-1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("%s must be an int, got %r" % (what, type(value).__name__))
    if not NO_ID < value <= MAX_ID:
        raise ValueError("%s must be in 1..%d, got %d" % (what, MAX_ID, value))
    return value


def link_key(a: ReflectorId, b: ReflectorId) -> LinkKey:
    """Normalize an unordered reflector pair: smaller id first."""
    if a == b:
        raise ValueError("link endpoints must differ, got %d twice" % a)
    return (a, b) if a < b else (b, a)


class PayloadType(enum.IntEnum):
    """Codec tag of a media payload.

    Carried in the wire header and in scenario traffic; forwarding does not
    read it, and payload bytes are always carried opaquely.
    """

    OPAQUE = 0
    VIDEO_H261 = 1
    AUDIO_G711U = 2


@dataclass(frozen=True)
class MediaPacket:
    """One framed media unit, scoped to a room, relayed by reflectors.

    ``seq`` strictly increases per (room, src) at the origin client;
    ``timestamp_ms`` is origin capture time. Field ranges are enforced by
    the wire codec, not here, so packets stay cheap to build.
    """

    room: RoomId
    src: ClientId
    seq: int
    timestamp_ms: int
    payload_type: PayloadType = PayloadType.OPAQUE
    flags: int = 0
    payload: bytes = b""


@dataclass(frozen=True, slots=True)
class LinkStats:
    """One raw measurement of a peer link.

    The link pair is stored smaller-id-first; loss_fraction is in [0, 1].
    """

    link: LinkKey
    rtt_ms: float
    loss_fraction: float
    capacity_kbps: float
    sampled_at: float

    def __post_init__(self):
        a, b = self.link
        if (a, b) != link_key(a, b):
            raise ValueError("link pair must be ordered smaller id first: %r" % (self.link,))
        if self.rtt_ms < 0:
            raise ValueError("rtt_ms must be nonnegative, got %r" % self.rtt_ms)
        if not 0.0 <= self.loss_fraction <= 1.0:
            raise ValueError("loss_fraction must be in [0,1], got %r" % self.loss_fraction)
        if self.capacity_kbps < 0:
            raise ValueError("capacity_kbps must be nonnegative, got %r" % self.capacity_kbps)
