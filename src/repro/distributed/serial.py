"""World-size-1 communicator (no-op collectives)."""

from __future__ import annotations

import numpy as np

from repro.distributed.comm import DEFAULT_TIMEOUT, Communicator

__all__ = ["SerialCommunicator"]


class SerialCommunicator(Communicator):
    """Single-process communicator; collectives are identity operations.

    Useful so driver code can be written unconditionally against the
    communicator API and run unchanged in serial mode.
    """

    @property
    def size(self) -> int:
        return 1

    @property
    def rank(self) -> int:
        return 0

    def send(self, dest: int, array: np.ndarray) -> None:
        raise RuntimeError("point-to-point send in a world of size 1")

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        raise RuntimeError("point-to-point recv in a world of size 1")
