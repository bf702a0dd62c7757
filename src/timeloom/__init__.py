"""Rule-based inference of event timelines from timestamped observations.

Parse a rule file with `parse_tes`, load facts with `ingest` or the model
constructors, then call `timeline` for any of the four modes, or work with
`repairs`, `preferred_repairs`, `cautious_core`, and `recognize_timeline`
directly.
"""

from .errors import (
    ArityMismatch,
    DuplicateDeclaration,
    EnumerationCapExceeded,
    InvalidInterval,
    InvalidSpec,
    IoError,
    LevelOverflow,
    MalformedTimestamp,
    MappingError,
    MissingWindowRule,
    NaturalOverflow,
    NotStratified,
    ParseError,
    ResourceExhausted,
    SafetyViolation,
    SortError,
    TimeloomError,
    UnboundVariable,
    UndeclaredPredicate,
)
from .ingest import ingest, parse_fact_text, validate_dataset
from .language import TES, PredKind, parse_tes, print_tes
from .meta import infer_meta
from .model import (
    STAR,
    AnnotatedEventFact,
    AtemporalFact,
    Dataset,
    EventStore,
    Interval,
    ObservationFact,
    allen_relation,
)
from .query import ground_simple_heads
from .repair import (
    DEFAULT_CAP,
    RepairSet,
    TimelineResult,
    cautious_core,
    is_consistent,
    preferred_repairs,
    recognize_timeline,
    repairs,
    temporal_conflict,
    timeline,
)
from .simple import infer_all_simple, infer_nonpersistent, infer_persistent

__version__ = "0.1.0"

__all__ = [
    "TES",
    "PredKind",
    "parse_tes",
    "print_tes",
    "STAR",
    "Interval",
    "Dataset",
    "EventStore",
    "AtemporalFact",
    "ObservationFact",
    "AnnotatedEventFact",
    "allen_relation",
    "ground_simple_heads",
    "infer_all_simple",
    "infer_nonpersistent",
    "infer_persistent",
    "infer_meta",
    "temporal_conflict",
    "is_consistent",
    "repairs",
    "RepairSet",
    "preferred_repairs",
    "cautious_core",
    "timeline",
    "TimelineResult",
    "recognize_timeline",
    "DEFAULT_CAP",
    "ingest",
    "parse_fact_text",
    "validate_dataset",
    "TimeloomError",
    "ParseError",
    "ArityMismatch",
    "DuplicateDeclaration",
    "UndeclaredPredicate",
    "SortError",
    "SafetyViolation",
    "NotStratified",
    "MissingWindowRule",
    "InvalidInterval",
    "UnboundVariable",
    "InvalidSpec",
    "LevelOverflow",
    "NaturalOverflow",
    "EnumerationCapExceeded",
    "ResourceExhausted",
    "IoError",
    "MappingError",
    "MalformedTimestamp",
]
