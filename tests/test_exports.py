"""The package's exported names: ``from hornsafe import *`` binds exactly
these, each the object of that name on the package."""

import hornsafe

EXPORTS = [
    "Clause",
    "ClauseInterior",
    "Decision",
    "EnumerationLimitError",
    "Graph",
    "HornPropagator",
    "HornTheory",
    "MAX_VARS",
    "Model",
    "ModelSet",
    "ORACLE_MAX_VARS",
    "ParseError",
    "Term",
    "all_models",
    "characteristic_set",
    "charset_entails",
    "clause_interior",
    "deduce_envelope_charset",
    "deduce_envelope_formula",
    "deduce_exterior_charset",
    "deduce_exterior_formula",
    "deduce_interior_charset",
    "deduce_interior_formula",
    "entails",
    "envelope_models",
    "eval_clause",
    "eval_term",
    "exterior_models",
    "has_independent_set",
    "has_vertex_cover",
    "independent_set_instance",
    "interior_cnf",
    "interior_consistency_instance",
    "interior_models",
    "intersection_closure",
    "is_intersection_closed",
    "max_independent_set_size",
    "min_model_above",
    "min_vertex_cover_size",
    "minimal_model",
    "named_graph",
    "neighborhood",
    "oracle_deduce",
    "parse_horn_cnf",
    "parse_model_set",
    "random_horn",
    "serialize_horn_cnf",
    "serialize_model_set",
    "vertex_cover_instance",
]


def test_exports_are_frozen():
    assert sorted(hornsafe.__all__) == EXPORTS
    assert len(set(hornsafe.__all__)) == len(EXPORTS) == 49
    star: dict = {}
    exec("from hornsafe import *", star)
    assert sorted(k for k in star if k != "__builtins__") == EXPORTS
    assert all(star[k] is getattr(hornsafe, k) for k in EXPORTS)
