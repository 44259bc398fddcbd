"""factgate: a knowledge-graph licensing gate for language-model output.

Claims extracted from generated text are checked for entailment against an
RDF triple store and validated against declarative constraints; only fully
licensed responses are emitted, everything else becomes a deterministic
abstention with full provenance. An evaluation harness scores runs with
five epistemic-reliability metrics.

The package exports the names of the README's library example and of the
benchmark harness; everything else is imported from its submodule.
"""

from .constraints import ValidationReport, parse_manifest, validate_graph
from .evaluation import Condition, compute_metrics, load_dataset
from .extraction import Claim, build_lexicon, parse_rules
from .gate import (
    ABSTENTION_TEXT,
    AuditRecord,
    LicensingDecision,
    Verdict,
    run_pipeline,
)
from .generators import MockBehavior, MockMode, mock_generator
from .kg import Datatype, Iri, Literal, Triple, parse_ntriples

__version__ = "0.1.0"

__all__ = [
    "ABSTENTION_TEXT",
    "AuditRecord",
    "Claim",
    "Condition",
    "Datatype",
    "Iri",
    "LicensingDecision",
    "Literal",
    "MockBehavior",
    "MockMode",
    "Triple",
    "ValidationReport",
    "Verdict",
    "build_lexicon",
    "compute_metrics",
    "load_dataset",
    "mock_generator",
    "parse_manifest",
    "parse_ntriples",
    "parse_rules",
    "run_pipeline",
    "validate_graph",
]
