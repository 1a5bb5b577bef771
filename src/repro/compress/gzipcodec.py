"""zlib (gzip) baseline codec — the general-purpose comparator of Fig. 9/10.

The paper compares its customized algorithms against gzip through zlib
[13]; we do the same, measuring compressed sizes here and modeling
full-scale (de)compression speed with the throughputs below.
"""

from __future__ import annotations

import zlib


def gzip_compress(data: bytes, level: int = 6) -> bytes:
    """Compress with zlib."""
    return zlib.compress(data, level)


#: Measured-at-full-scale gzip compression throughput the cost model uses
#: when extrapolating (zlib level 6 on one Xeon core, bytes/s).
GZIP_COMPRESS_BW = 30e6
GZIP_DECOMPRESS_BW = 150e6
