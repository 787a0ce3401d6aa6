"""The paper's primary contribution: S3-FIFO and its variants."""

from repro.core.s3fifo import (
    QueueType,
    S3FifoCache,
    S3QueueVariantCache,
    S3SieveCache,
)
from repro.core.s3fifo_d import S3FifoDCache
from repro.core.s3fifo_fast import FastS3FifoCache
from repro.core.s3fifo_ring import S3FifoRingCache
from repro.core.demotion import DemotionStats, DemotionTracker

__all__ = [
    "S3FifoCache",
    "S3FifoDCache",
    "FastS3FifoCache",
    "S3FifoRingCache",
    "S3SieveCache",
    "QueueType",
    "S3QueueVariantCache",
    "DemotionStats",
    "DemotionTracker",
]
