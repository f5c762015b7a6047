"""The observer tap: the one seam between a run and whatever watches it.

Every cost the paper reports is a count taken at a primitive it names
itself — ``sub()`` / ``unsub()`` / ``pub()`` / ``notify()`` at the
pub/sub layer, ``send()`` / ``deliver()`` at the overlay (§3) — so those
primitives, plus the network's own, are the events.  A :class:`Tap`
holds, per event, a tuple of bound callables; the code that *is* the
event iterates the tuple inline::

    for fn in tap.send:
        fn(message, src, dst, now, arrival)

An event nobody subscribed to is an empty loop: no dispatcher frame, no
guard, and nothing an observer can do steers the run.  The
:class:`~repro.overlay.network.Network` owns the tap, because every
layer of a stack already shares its network.

==============  ================================  ======================
event           arguments                         fired by
==============  ================================  ======================
``request``     message, now                      ``PubSubSystem`` (a
                                                  logical request opens;
                                                  ``message.trace`` names
                                                  the span that caused it)
``send``        message, src, dst, now, arrival   ``Network.transmit``
                                                  (arrival None: lost)
``drop``        message, dst, now                 ``Network`` drain
                                                  (destination dead)
``drain``       dst, depth                        ``Network`` drain (one
                                                  ``(dst, instant)`` bucket)
``deliver``     message, node_id, now             ``do_deliver`` (every
                                                  overlay)
``subscribe``   message, now                      ``PubSubSystem``
``unsubscribe`` message, now                      ``PubSubSystem``
``publish``     message, keys, now                ``PubSubSystem``
``notify``      node_id, notifications, now       ``PubSubSystem``
                                                  (before deduplication)
``join``        node                              ``PubSubSystem`` (a
                                                  ``PubSubNode`` came up)
``store``       node, keys                        ``PubSubNode``
``match``       node, message, matched            ``PubSubNode``
==============  ================================  ======================

The metrics recorder is the first subscriber of every tap, to
``request`` and ``notify`` only: the hop count is the run's output, not
an observer, so ``Network.transmit`` counts each send and ``do_deliver``
each delivery straight into the recorder's dicts, and an unobserved
run's ``send`` and ``deliver`` are empty loops.

The pub/sub-level request events fire *before* the request is sent: a
key the requester covers itself is delivered, matched and notified
synchronously inside the send, and an observer must already hold the
request when that arrival reaches it.
"""

from __future__ import annotations

EVENTS = (
    "request",
    "send",
    "drop",
    "drain",
    "deliver",
    "subscribe",
    "unsubscribe",
    "publish",
    "notify",
    "join",
    "store",
    "match",
)


class Tap:
    """Per event, the tuple of subscribers (see the module docstring)."""

    __slots__ = EVENTS

    def __init__(self) -> None:
        for event in EVENTS:
            setattr(self, event, ())

    def attach(self, observer: object) -> None:
        """Subscribe ``observer`` to every event it has an ``on_<event>`` for.

        Subscribers run in attachment order.  The tuples are replaced,
        never mutated, and call sites read them per event — so an
        observer attached mid-run sees every event from then on.
        """
        for event in EVENTS:
            handler = getattr(observer, "on_" + event, None)
            if handler is not None:
                setattr(self, event, getattr(self, event) + (handler,))
