"""File formats and windowed input: FASTA, SOAP alignments, priors, CNS."""

from .cns import (
    COLUMN_FIELDS,
    NO_BASE,
    ResultTable,
    format_rows,
    parse_rows,
    read_cns,
    write_cns,
)
from .fasta import read_fasta, write_fasta
from .prior import read_prior, write_prior
from .soap import read_soap, soap_line_bytes, write_soap
from .stream import StreamingSoapReader
from .window import Window, WindowReader

__all__ = [
    "COLUMN_FIELDS",
    "NO_BASE",
    "ResultTable",
    "StreamingSoapReader",
    "Window",
    "WindowReader",
    "format_rows",
    "parse_rows",
    "read_cns",
    "read_fasta",
    "read_prior",
    "read_soap",
    "soap_line_bytes",
    "write_cns",
    "write_fasta",
    "write_prior",
    "write_soap",
]
