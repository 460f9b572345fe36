"""Shared plumbing for distributed containers."""

from __future__ import annotations

from typing import Any, Hashable

from repro.ygm.handlers import ygm_handler
from repro.ygm.partition import HashPartitioner
from repro.ygm.world import YgmWorld

__all__ = ["DistContainer"]


@ygm_handler("ygm.state.dict")
def _make_dict(rank: int) -> dict:
    """Per-rank state factory: empty dict."""
    return {}


@ygm_handler("ygm.state.list")
def _make_list(rank: int) -> list:
    """Per-rank state factory: empty list."""
    return []


@ygm_handler("ygm.container.collect_state")
def _collect_state(ctx, container_id: str) -> Any:
    """Exec fn returning this rank's raw local state for a container."""
    return ctx.local_state(container_id)


@ygm_handler("ygm.container.local_size")
def _local_size(ctx, container_id: str) -> int:
    """Exec fn returning the number of local entries for a container."""
    return len(ctx.local_state(container_id))


@ygm_handler("ygm.container.clear_state")
def _clear_state(ctx, container_id: str) -> None:
    """Exec fn clearing this rank's local state for a container."""
    ctx.local_state(container_id).clear()


class DistContainer:
    """Base class: id allocation, owner lookup, whole-container collectives."""

    _STATE_FACTORY = "ygm.state.dict"
    _KIND = "container"

    def __init__(self, world: YgmWorld) -> None:
        self.world = world
        self.partitioner = HashPartitioner(world.n_ranks)
        self.container_id = world.register_container(self._KIND, self._STATE_FACTORY)

    # -- ownership ------------------------------------------------------------
    def owner(self, key: Hashable) -> int:
        """Rank owning *key*."""
        return self.partitioner.owner(key)

    # -- collectives ------------------------------------------------------------
    def local_sizes(self) -> list[int]:
        """Per-rank entry counts (implies a barrier)."""
        self.world.barrier()
        return self.world.run_on_all("ygm.container.local_size", self.container_id)

    def size(self) -> int:
        """Total entries across all ranks (implies a barrier)."""
        return sum(self.local_sizes())

    def _gather_states(self) -> list[Any]:
        """All per-rank local states, in rank order (implies a barrier)."""
        self.world.barrier()
        return self.world.run_on_all("ygm.container.collect_state", self.container_id)

    def clear(self) -> None:
        """Remove every entry on every rank (implies a barrier)."""
        self.world.barrier()
        self.world.run_on_all("ygm.container.clear_state", self.container_id)

    def release(self) -> None:
        """Free the container's distributed state."""
        self.world.release_container(self.container_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.container_id!r})"
