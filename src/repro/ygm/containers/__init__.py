"""YGM-style distributed containers.

Each container partitions its entries across the world's ranks with a
deterministic owner function and exposes the asynchronous operations the
paper's algorithms are written against:

- :class:`~repro.ygm.containers.bag.DistBag` — unordered items, round-robin
  placement, ``for_all`` visitation (YGM ``ygm::container::bag``).
- :class:`~repro.ygm.containers.map.DistMap` — key/value store with
  ``async_insert`` / ``async_reduce`` / ``async_visit`` (``ygm::container::map``).
"""

from repro.ygm.containers.bag import DistBag
from repro.ygm.containers.map import DistMap

__all__ = ["DistBag", "DistMap"]
