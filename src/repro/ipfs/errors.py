"""Exception types for the simulated IPFS network."""

from __future__ import annotations


class IPFSError(Exception):
    """Base class for IPFS failures."""


class NotFoundError(IPFSError):
    """No live provider could produce the requested block."""


class IntegrityError(IPFSError):
    """Retrieved bytes do not hash to the requested CID."""


class NodeOfflineError(IPFSError):
    """The contacted node did not answer within the timeout."""


class MergeError(IPFSError):
    """A merge-and-download request could not be satisfied."""
