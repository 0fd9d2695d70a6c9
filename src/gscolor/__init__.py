"""Multigraph edge coloring with at most max(Delta+1, ceil(density)) colors,
plus the density certificates and brute-force oracles that verify it."""

from .coloring import (KempeChain, PartialColoring, kempe_chain, kempe_swap,
                       swap_outside, validate)
from .density import (BoundReport, DensityCertificate, bound_report,
                      certificate_check, chromatic_index_exact)
from .engine import (ColoringResult, FailureEvidence, IncompleteColoringError,
                     color, color_at_k, extend, verify_result)
from .graph import (Multigraph, ParseError, ScaleExceededError,
                    format_multigraph, parse_multigraph)
from .tashkinov import (SeriesState, TreeSequence, build_series,
                        elementary_audit, series_step, taa_close)

__version__ = "0.1.0"
