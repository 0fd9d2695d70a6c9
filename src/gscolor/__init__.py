"""Multigraph edge coloring with at most max(Delta+1, ceil(density)) colors,
plus the density certificates and brute-force oracles that verify it.

The public names and the submodules load on first access (PEP 562), so a
process compiles only what it runs. `import gscolor` loads no submodule.
`gscolor.cli verify` loads graph, coloring, _kernels, density and engine;
`color` adds tashkinov only for an edge that the chain swap leaves
uncolored, and `--gen` adds generators. A name is looked up in its module
on every access and never stored here.
"""

import sys

_PUBLIC = {
    "coloring": "KempeChain PartialColoring kempe_chain kempe_swap validate",
    "density": "BoundReport DensityCertificate bound_report certificate_check "
               "chromatic_index_exact",
    "engine": "ColoringResult FailureEvidence IncompleteColoringError color "
              "color_at_k extend verify_result",
    "graph": "Multigraph ParseError ScaleExceededError format_multigraph parse_multigraph",
    "tashkinov": "SeriesState TreeSequence build_series elementary_audit series_step "
                 "taa_close",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = {"_kernels", "cli", "generators", *_PUBLIC}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")     # unlike importlib's, -X importtime logs it
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)
