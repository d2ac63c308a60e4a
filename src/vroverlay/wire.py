"""Binary framing for media packets.

Fixed big-endian layout, 24-byte header followed by the payload:

    offset  size  field
    0       2     magic       0x56 0x52 ("VR")
    2       1     version     0x03
    3       1     frame type  0x01 (media)
    4       4     room_id
    8       4     src_client
    12      4     seq
    16      4     timestamp_ms
    20      1     payload_type
    21      1     flags
    22      2     payload_len
    24      n     payload     (n == payload_len, at most 65535)

Encoding and decoding are pure functions; decode(encode(p)) == p for every
encodable packet, and distinct packets encode to distinct byte strings.
read_header makes every check the decoder makes and returns the plain
header fields, so a relay can forward a frame's original bytes unparsed.
"""
from __future__ import annotations

import struct

from .errors import (
    BadFrameType,
    BadMagic,
    BadPayloadTag,
    BadVersion,
    PayloadTooLarge,
    TrailingGarbage,
    Truncated,
)
from .model import MAX_ID, MediaPacket, PayloadType, check_id

MAGIC = b"VR"
VERSION = 3
FRAME_MEDIA = 1

_HEADER = struct.Struct(">2sBBIIIIBBH")
HEADER_SIZE = _HEADER.size
assert HEADER_SIZE == 24

MAX_PAYLOAD = 0xFFFF
_PAYLOAD_TAGS = frozenset(map(int, PayloadType))


def encode_media_packet(p: MediaPacket) -> bytes:
    """Serialize a packet; raises PayloadTooLarge above 65535 payload bytes."""
    check_id(p.room, "room")
    check_id(p.src, "src")
    if not 0 <= p.seq <= MAX_ID:
        raise ValueError("seq must fit in 32 bits, got %r" % p.seq)
    if not 0 <= p.timestamp_ms <= MAX_ID:
        raise ValueError("timestamp_ms must fit in 32 bits, got %r" % p.timestamp_ms)
    if not 0 <= p.flags <= 0xFF:
        raise ValueError("flags must fit in 8 bits, got %r" % p.flags)
    tag = PayloadType(p.payload_type)
    if len(p.payload) > MAX_PAYLOAD:
        raise PayloadTooLarge("payload is %d bytes, limit is %d" % (len(p.payload), MAX_PAYLOAD))
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        FRAME_MEDIA,
        p.room,
        p.src,
        p.seq,
        p.timestamp_ms,
        tag,
        p.flags,
        len(p.payload),
    )
    return header + bytes(p.payload)


def decode_media_packet(buf: bytes, strict: bool = False) -> MediaPacket:
    """Parse one packet from ``buf``.

    Consumes exactly 24 + payload_len bytes. In strict mode any bytes past
    the declared frame raise TrailingGarbage; otherwise they are ignored
    (stream framing uses read_media_packet instead).
    """
    packet, consumed = read_media_packet(buf, 0)
    if strict and consumed != len(buf):
        raise TrailingGarbage("%d bytes past the end of the frame" % (len(buf) - consumed))
    return packet


def read_media_packet(buf: bytes, offset: int = 0) -> tuple[MediaPacket, int]:
    """Parse one packet starting at ``offset``; returns (packet, next offset)."""
    room, src, seq, ts, tag, flags, end = read_header(buf, offset)
    payload = bytes(buf[offset + HEADER_SIZE : end])
    return MediaPacket(room, src, seq, ts, PayloadType(tag), flags, payload), end


def read_header(buf: bytes, offset: int = 0) -> tuple:
    """Check the frame at ``offset`` without building a packet or copying its payload.

    Returns (room, src, seq, timestamp_ms, payload_type, flags, end), where
    payload_type is the plain tag and ``end`` the offset past the payload.
    Raises Truncated while the header or the declared payload is incomplete,
    and BadMagic, BadVersion, BadFrameType or BadPayloadTag as the decoder does.
    """
    if len(buf) - offset < HEADER_SIZE:
        raise Truncated("need %d header bytes, have %d" % (HEADER_SIZE, len(buf) - offset))
    magic, version, frame_type, room, src, seq, ts, tag, flags, payload_len = _HEADER.unpack_from(
        buf, offset
    )
    if magic != MAGIC:
        raise BadMagic("expected %r, got %r" % (MAGIC, magic))
    if version != VERSION:
        raise BadVersion("expected version %d, got %d" % (VERSION, version))
    if frame_type != FRAME_MEDIA:
        raise BadFrameType("expected frame type %d, got %d" % (FRAME_MEDIA, frame_type))
    if tag not in _PAYLOAD_TAGS:
        raise BadPayloadTag("unknown payload type tag %d" % tag)
    end = offset + HEADER_SIZE + payload_len
    if len(buf) < end:
        raise Truncated(
            "declared %d payload bytes, only %d present"
            % (payload_len, len(buf) - offset - HEADER_SIZE)
        )
    return room, src, seq, ts, tag, flags, end
