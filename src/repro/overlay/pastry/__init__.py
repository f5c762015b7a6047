"""A Pastry-style prefix-routing overlay (Rowstron & Druschel, 2001).

The paper's footnote 1 claims the pub/sub infrastructure is portable
across structured overlays (Chord, Pastry, Tapestry, CAN).  This
subpackage substantiates that claim: a second overlay with an entirely
different routing geometry — per-bit prefix correction plus a leaf set,
both read off the sorted ring at every hop, so a node holds no routing
state — behind the same :class:`~repro.overlay.api.OverlayNetwork`
interface.
The integration test suite runs the full pub/sub stack over it.

Simplifications relative to deployed Pastry (documented in DESIGN.md):
keys are covered by their ring *successor* (as in Chord) rather than
the numerically closest node, so the churn/state-transfer contract is
identical across overlays.  The one-to-many primitive is the shared
Fig. 4 step over the node's leaf set and prefix rows (the textbook
pointer rule of :class:`~repro.overlay.api.OverlayNode`), so every
covering node receives its keys once, in one branch.
"""

from repro.overlay.pastry.node import PastryNode
from repro.overlay.pastry.overlay import PastryOverlay

__all__ = ["PastryNode", "PastryOverlay"]
