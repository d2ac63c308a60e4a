"""Discrete-event core: virtual clock, event queue, and simulated links.

No wall-clock sleeps anywhere: time is a float of virtual milliseconds and
events fire in (time, insertion sequence) order, so a full run is a pure
function of the scenario and seed. Each link draws losses from its own
pseudo-random substream derived by hashing (seed, link id); adding a link
never perturbs any other link's draws. A link makes its substream when its
loss first turns positive, since a lossless link never draws: a link that
stays lossless holds none, and turning loss off and on never re-seeds.
"""
from __future__ import annotations

import hashlib
import heapq
import itertools
import random
import struct
from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..errors import LinkDown, TimeRegression
from ..model import ReflectorId, link_key


class EventLoop:
    """Single-threaded event queue over a virtual millisecond clock."""

    def __init__(self):
        self.now = 0.0
        self._queue: list = []
        self._seq = itertools.count()

    def schedule(self, at: float, fn: Callable[..., None], *args) -> None:
        """Call `fn(*args)` at virtual time `at`; a handler plus its arguments, no closure."""
        if at < self.now:
            raise TimeRegression("cannot schedule at %.3f, clock is at %.3f" % (at, self.now))
        heapq.heappush(self._queue, (at, next(self._seq), fn, args))

    def schedule_in(self, delay: float, fn: Callable[..., None], *args) -> None:
        self.schedule(self.now + delay, fn, *args)

    def run_until(self, until: float) -> int:
        """Process every event with time <= until; returns the event count."""
        if until < self.now:
            raise TimeRegression("cannot run to %.3f, clock is at %.3f" % (until, self.now))
        processed = 0
        while self._queue and self._queue[0][0] <= until:
            at, _, fn, args = heapq.heappop(self._queue)
            self.now = at
            fn(*args)
            processed += 1
        self.now = until
        return processed


@dataclass
class SimLink:
    """One bidirectional link; parameters mutate only between events."""

    a: ReflectorId
    b: ReflectorId
    latency_ms: float = 10.0
    loss_probability: float = 0.0
    bandwidth_kbps: float = 10_000.0
    up: bool = True

    def __post_init__(self):
        self.a, self.b = link_key(self.a, self.b)
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be nonnegative")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0,1]")
        if self.bandwidth_kbps <= 0:
            raise ValueError("bandwidth_kbps must be positive")

    @property
    def key(self):
        return (self.a, self.b)


def link_stream_seed(seed: int, a: ReflectorId, b: ReflectorId) -> int:
    """Stable per-link RNG seed: sha256 over (scenario seed, ordered pair)."""
    a, b = link_key(a, b)
    digest = hashlib.sha256(struct.pack(">qII", seed, a, b)).digest()
    return int.from_bytes(digest[:8], "big")


def deliver_or_drop(
    link: SimLink, nbytes: int, rng: random.Random, now: float
) -> Optional[float]:
    """Decide one transmission's fate.

    Returns the delivery time (now + latency + serialization, where
    serialization is nbytes*8/bandwidth_kbps milliseconds) or None when the
    loss draw eats the packet. Raises LinkDown for a downed link.
    """
    if not link.up:
        raise LinkDown("link %s is down" % (link.key,))
    if link.loss_probability > 0.0 and rng.random() < link.loss_probability:
        return None
    return now + link.latency_ms + nbytes * 8.0 / link.bandwidth_kbps


@dataclass
class LinkCounters:
    sent: int = 0
    delivered: int = 0
    lost: int = 0


class SimNetwork:
    """The set of links, their RNG substreams, and transmission bookkeeping.

    A hop finds a link's one `(SimLink, LinkCounters, random.Random)` record
    with one lookup; `links` maps the same `SimLink`s, which change in place.
    The record's stream is None until the link's loss first turns positive.
    """

    def __init__(self, loop: EventLoop, seed: int):
        self.loop = loop
        self.seed = seed
        self.links: dict = {}     # (a, b) -> SimLink
        self._records: dict = {}  # (a, b) -> (SimLink, LinkCounters, random.Random or None)

    @property
    def counters(self) -> dict:  # (a, b) -> LinkCounters
        return {key: record[1] for key, record in self._records.items()}

    def add_link(self, link: SimLink) -> SimLink:
        key = link.key
        if key in self.links:
            raise ValueError("duplicate link %s" % (key,))
        self.links[key] = link
        self._records[key] = (link, LinkCounters(), None)
        self._make_stream(key)
        return link

    def _make_stream(self, key) -> None:
        """Give a link whose loss is positive its substream, once."""
        link, counters, rng = self._records[key]
        if rng is None and link.loss_probability > 0.0:
            rng = random.Random(link_stream_seed(self.seed, *key))
            self._records[key] = (link, counters, rng)

    def set_link(self, a: ReflectorId, b: ReflectorId, **params) -> SimLink:
        """Change link parameters in place; an invalid value changes none of them."""
        link = self.links[link_key(a, b)]
        unknown = set(params) - {"latency_ms", "loss_probability", "bandwidth_kbps", "up"}
        if unknown:
            raise ValueError("unknown link parameter %r" % min(unknown))
        replace(link, **params)  # a throwaway copy: SimLink's checks raise before any change
        for name, value in params.items():
            setattr(link, name, value)
        self._make_stream(link.key)
        return link

    def transmit(
        self,
        a: ReflectorId,
        b: ReflectorId,
        nbytes: int,
        on_deliver: Callable[..., None],
        *args,
    ) -> Optional[float]:
        """Send nbytes from a to b; schedules `on_deliver(*args)` or drops.

        Returns the scheduled delivery time, or None when the loss draw
        dropped the transmission. Raises LinkDown if the link is down, and
        then counts nothing as sent; KeyError if there is no link.
        """
        link, counters, rng = self._records[(a, b) if a < b else (b, a)]
        at = deliver_or_drop(link, nbytes, rng, self.loop.now)
        counters.sent += 1
        if at is None:
            counters.lost += 1
            return None
        self.loop.schedule(at, _fire, counters, on_deliver, args)
        return at


def _fire(counters: LinkCounters, on_deliver: Callable[..., None], args: tuple) -> None:
    """A transmission arrives: count it, then run its handler."""
    counters.delivered += 1
    on_deliver(*args)
