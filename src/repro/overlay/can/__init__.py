"""A CAN-style overlay: d-dimensional zones with greedy geometric routing.

CAN (Ratnasamy et al.) is the third overlay family the paper names
(Section 2, Section 4.2: "a key is a discrete point in a
multidimensional space").  This implementation maps the shared integer
key space onto a 2-d torus via the Z-order (Morton) curve and partitions
it into quadtree *zones*, one per node:

- a zone is a rectangle in 2-d space **and simultaneously** a contiguous
  interval of Morton keys (the defining property of the Z-order
  quadtree), so the pub/sub layer's interval-based churn contract
  (Section 4.1 state transfer) carries over unchanged;
- a node covers exactly the keys of its zone; joins split the zone
  owning a random point (CAN's join), leaves/crashes hand the zone to
  the Morton-predecessor owner (a documented simplification of CAN's
  smallest-neighbor takeover rule);
- routing is CAN's greedy geometric forwarding: each hop moves to the
  edge-adjacent neighbor zone closest to the target point, giving the
  characteristic O(sqrt(n)) path lengths (vs Chord's O(log n)) that the
  routing bench exhibits.

The full pub/sub stack runs over this overlay in the portability tests.
"""

from repro.overlay.can.morton import morton_decode, morton_encode, zone_rectangle
from repro.overlay.can.overlay import CanOverlay

__all__ = ["CanOverlay", "morton_decode", "morton_encode", "zone_rectangle"]
