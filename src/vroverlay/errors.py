"""Exception hierarchy for the overlay.

Every package-specific failure derives from OverlayError so callers can
catch broadly; the leaf classes match the error vocabulary used across
module contracts and the CLI exit-code mapping.
"""


class OverlayError(Exception):
    """Base class for all overlay errors."""


# --- wire codec ---

class WireError(OverlayError):
    """Malformed or unencodable media frame."""


class PayloadTooLarge(WireError):
    pass


class BadMagic(WireError):
    pass


class BadVersion(WireError):
    pass


class BadFrameType(WireError):
    pass


class BadPayloadTag(WireError):
    pass


class Truncated(WireError):
    pass


class TrailingGarbage(WireError):
    pass


# --- reflector engine ---

class UnknownClient(OverlayError):
    pass


class NotAMember(OverlayError):
    pass


class StaleEpoch(OverlayError):
    pass


# --- registry / control plane ---

class DuplicateId(OverlayError):
    pass


class UnknownReflector(OverlayError):
    pass


# --- monitoring ---

class BadPattern(OverlayError):
    pass


# --- quality filters ---

class OutOfRange(OverlayError):
    pass


# --- optimizer ---

class UnknownVertex(OverlayError):
    pass


class MemberOffTree(OverlayError):
    pass


# --- supervisor ---

class NotFailed(OverlayError):
    pass


# --- simulator ---

class TimeRegression(OverlayError):
    pass


class LinkDown(OverlayError):
    pass


class SchemaError(OverlayError):
    """Scenario or config document failed validation; message carries the field path."""


# --- CLI / daemons ---

class ConfigError(OverlayError):
    pass


class RegistryUnreachable(OverlayError):
    pass
