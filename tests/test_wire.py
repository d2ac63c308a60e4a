"""Media wire codec: golden vectors, round-trips, rejection paths."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vroverlay.errors import (
    BadFrameType,
    BadMagic,
    BadPayloadTag,
    BadVersion,
    PayloadTooLarge,
    TrailingGarbage,
    Truncated,
)
from vroverlay.model import MediaPacket, PayloadType
from vroverlay.wire import (
    HEADER_SIZE,
    decode_media_packet,
    encode_media_packet,
    read_header,
    read_media_packet,
)

GOLDEN_HEX = "5652" "0301" "00000005" "00000007" "00000001" "000003E8" "02" "00" "0001" "AA"
GOLDEN_PACKET = MediaPacket(
    room=5,
    src=7,
    seq=1,
    timestamp_ms=1000,
    payload_type=PayloadType.AUDIO_G711U,
    flags=0,
    payload=b"\xaa",
)


def random_packet(rng):
    return MediaPacket(
        room=rng.randrange(1, 2**32),
        src=rng.randrange(1, 2**32),
        seq=rng.randrange(0, 2**32),
        timestamp_ms=rng.randrange(0, 2**32),
        payload_type=PayloadType(rng.randrange(3)),
        flags=rng.randrange(256),
        payload=rng.randbytes(rng.randrange(0, 300)),
    )


def test_golden_vector_encodes_exactly():
    assert encode_media_packet(GOLDEN_PACKET) == bytes.fromhex(GOLDEN_HEX)


def test_golden_vector_decodes_exactly():
    assert decode_media_packet(bytes.fromhex(GOLDEN_HEX)) == GOLDEN_PACKET


def test_empty_payload_is_header_only():
    p = MediaPacket(room=1, src=1, seq=0, timestamp_ms=0)
    encoded = encode_media_packet(p)
    assert len(encoded) == HEADER_SIZE == 24
    assert decode_media_packet(encoded) == p


def test_round_trip_1000_random_packets():
    rng = random.Random(20260811)
    for _ in range(1000):
        p = random_packet(rng)
        assert decode_media_packet(encode_media_packet(p)) == p


def test_encoding_is_injective_on_random_sample():
    rng = random.Random(7)
    packets = [random_packet(rng) for _ in range(500)]
    encodings = {encode_media_packet(p) for p in packets}
    assert len(encodings) == len(set(packets))


@settings(max_examples=200)
@given(
    room=st.integers(1, 2**32 - 1),
    src=st.integers(1, 2**32 - 1),
    seq=st.integers(0, 2**32 - 1),
    ts=st.integers(0, 2**32 - 1),
    ptype=st.sampled_from(list(PayloadType)),
    flags=st.integers(0, 255),
    payload=st.binary(max_size=200),
)
def test_round_trip_property(room, src, seq, ts, ptype, flags, payload):
    p = MediaPacket(room, src, seq, ts, ptype, flags, payload)
    assert decode_media_packet(encode_media_packet(p)) == p


def test_payload_too_large():
    p = MediaPacket(room=1, src=1, seq=0, timestamp_ms=0, payload=b"x" * 65536)
    with pytest.raises(PayloadTooLarge):
        encode_media_packet(p)


def test_payload_at_limit_round_trips():
    p = MediaPacket(room=1, src=1, seq=0, timestamp_ms=0, payload=b"x" * 65535)
    assert decode_media_packet(encode_media_packet(p)) == p


def test_bad_magic():
    buf = bytearray(bytes.fromhex(GOLDEN_HEX))
    buf[0] = 0x00
    with pytest.raises(BadMagic):
        decode_media_packet(bytes(buf))


def test_bad_version():
    buf = bytearray(bytes.fromhex(GOLDEN_HEX))
    buf[2] = 0x02
    with pytest.raises(BadVersion):
        decode_media_packet(bytes(buf))


def test_bad_frame_type():
    buf = bytearray(bytes.fromhex(GOLDEN_HEX))
    buf[3] = 0x07
    with pytest.raises(BadFrameType):
        decode_media_packet(bytes(buf))


def test_bad_payload_tag():
    buf = bytearray(bytes.fromhex(GOLDEN_HEX))
    buf[20] = 0x09
    with pytest.raises(BadPayloadTag):
        decode_media_packet(bytes(buf))


def test_truncated_header():
    with pytest.raises(Truncated):
        decode_media_packet(bytes.fromhex(GOLDEN_HEX)[:10])


def test_truncated_payload():
    # Declares payload_len=4 but carries only 2 payload bytes.
    p = MediaPacket(room=1, src=1, seq=0, timestamp_ms=0, payload=b"abcd")
    buf = encode_media_packet(p)[:-2]
    with pytest.raises(Truncated):
        decode_media_packet(buf)


def test_trailing_garbage_strict_only():
    buf = encode_media_packet(GOLDEN_PACKET) + b"zz"
    with pytest.raises(TrailingGarbage):
        decode_media_packet(buf, strict=True)
    assert decode_media_packet(buf) == GOLDEN_PACKET


def test_read_media_packet_stream_framing():
    rng = random.Random(3)
    packets = [random_packet(rng) for _ in range(10)]
    stream = b"".join(encode_media_packet(p) for p in packets)
    offset = 0
    decoded = []
    while offset < len(stream):
        p, offset = read_media_packet(stream, offset)
        decoded.append(p)
    assert decoded == packets
    assert offset == len(stream)


def test_read_header_checks_like_the_decoder_and_reads_in_place():
    rng = random.Random(5)
    packets = [random_packet(rng) for _ in range(10)]
    stream = bytearray(b"".join(encode_media_packet(p) for p in packets))
    offset = 0
    for p in packets:
        decoded, end = read_media_packet(stream, offset)
        assert decoded == p
        assert read_header(stream, offset) == (
            p.room, p.src, p.seq, p.timestamp_ms, p.payload_type, p.flags, end)
        last, offset = offset, end
    with pytest.raises(Truncated):
        read_header(stream[:-1], last)
    with pytest.raises(Truncated):
        read_header(stream[:HEADER_SIZE - 1])
    for index, value, error in ((0, 0x00, BadMagic), (2, 0x02, BadVersion),
                                (3, 0x07, BadFrameType), (20, 0x09, BadPayloadTag)):
        broken = bytearray(stream)
        broken[index] = value
        with pytest.raises(error):
            read_header(broken)


def test_encode_rejects_zero_ids():
    with pytest.raises(ValueError):
        encode_media_packet(MediaPacket(room=0, src=1, seq=0, timestamp_ms=0))
    with pytest.raises(ValueError):
        encode_media_packet(MediaPacket(room=1, src=0, seq=0, timestamp_ms=0))
