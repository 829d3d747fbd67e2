"""Deductive queries against interiors, exteriors, and Horn envelopes of
propositional Horn knowledge bases, under formula-based (Horn CNF) and
model-based (characteristic set) representations, with an exhaustive
enumeration oracle for verification."""

import types as _types

from .core import (
    Clause,
    Decision,
    EnumerationLimitError,
    HornTheory,
    MAX_VARS,
    Model,
    ModelSet,
    ParseError,
    Term,
    eval_clause,
    eval_term,
    neighborhood,
    parse_horn_cnf,
    parse_model_set,
    serialize_horn_cnf,
    serialize_model_set,
)
from .engine import (
    HornPropagator,
    characteristic_set,
    charset_entails,
    entails,
    intersection_closure,
    is_intersection_closed,
    min_model_above,
    minimal_model,
)
from .envelope import deduce_envelope_charset, deduce_envelope_formula
from .exterior import deduce_exterior_charset, deduce_exterior_formula
from .gen import (
    Graph,
    has_independent_set,
    has_vertex_cover,
    independent_set_instance,
    interior_consistency_instance,
    max_independent_set_size,
    min_vertex_cover_size,
    named_graph,
    random_horn,
    vertex_cover_instance,
)
from .interior import (
    ClauseInterior,
    clause_interior,
    deduce_interior_charset,
    deduce_interior_formula,
    interior_cnf,
)
from .oracle import (
    ORACLE_MAX_VARS,
    all_models,
    envelope_models,
    exterior_models,
    interior_models,
    oracle_deduce,
)

__version__ = "0.1.0"

# Every public name bound above, the submodules left out.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
