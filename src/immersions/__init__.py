"""Exact clique immersions in small graphs.

Certificates (terminals plus edge-disjoint paths) are first-class
values: the search, the constructive builder, and the batch checkers
all emit them, and one verifier accepts or rejects them against a host
graph.  Everything is exact and deterministic; nothing here
approximates.
"""

from .checks import (
    CHECK_NAMES,
    CheckOutcome,
    CheckReport,
    evaluate_graph,
    run_batch,
)
from .coloring import (
    ColoringCertificate,
    chromatic_number,
    is_k_colorable,
)
from .construct import (
    build_third_immersion,
    extension_step,
)
from .errors import (
    DegenerateInputError,
    Graph6Error,
    IndependencePreconditionError,
    MalformedCertificateError,
    PreconditionError,
    SizeCapError,
    UnsupportedSizeError,
)
from .families import (
    canonical_form,
    enumerate_alpha_le2,
    enumerate_graphs,
    enumerate_triangle_free,
    graph_from_canonical_form,
    sample_alpha_le2,
)
from .graphs import (
    Graph,
    bits,
    complement,
    encode_graph6,
    independence_number,
    is_clique,
    mask_of,
    max_clique,
    max_independent_set,
    non_neighborhood,
    parse_graph6,
)
from .immersion import (
    PLAIN,
    STRONG,
    ODD,
    STRONG_ODD,
    ImmersionCertificate,
    ImmersionFlags,
    VerifyReport,
    certificate_from_json,
    certificate_to_json,
    clique_certificate,
    find_clique_immersion,
    max_clique_immersion,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CHECK_NAMES",
    "CheckOutcome",
    "CheckReport",
    "ColoringCertificate",
    "DegenerateInputError",
    "Graph",
    "Graph6Error",
    "ImmersionCertificate",
    "ImmersionFlags",
    "IndependencePreconditionError",
    "MalformedCertificateError",
    "PLAIN",
    "ODD",
    "PreconditionError",
    "STRONG",
    "STRONG_ODD",
    "SizeCapError",
    "UnsupportedSizeError",
    "VerifyReport",
    "bits",
    "build_third_immersion",
    "canonical_form",
    "certificate_from_json",
    "certificate_to_json",
    "chromatic_number",
    "clique_certificate",
    "complement",
    "encode_graph6",
    "enumerate_alpha_le2",
    "enumerate_graphs",
    "enumerate_triangle_free",
    "evaluate_graph",
    "extension_step",
    "find_clique_immersion",
    "graph_from_canonical_form",
    "independence_number",
    "is_clique",
    "is_k_colorable",
    "mask_of",
    "max_clique",
    "max_clique_immersion",
    "max_independent_set",
    "non_neighborhood",
    "parse_graph6",
    "run_batch",
    "sample_alpha_le2",
    "verify_certificate",
]
