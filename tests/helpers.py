"""Shared builders for the test modules."""

from fkdet.laurent import GroupRingMatrix, parse_polynomial


def mat(texts, rank=1):
    """A matrix over Q[Z^rank] from rows of polynomial texts."""
    return GroupRingMatrix(
        [[parse_polynomial(t, rank=rank) for t in row] for row in texts], rank=rank
    )
