"""Per-layer metrics from the traced sessions of every workload.

Each metric is read on the workload whose end-to-end numbers it should
move (README.md has the table).  Span names are ``<layer>.<function>``;
``op`` spans are the benchmark's own, one per operation.
"""

from __future__ import annotations

import statistics

from workloads import tail

#: Layers whose self time per operation each workload reports.
SELF_LAYERS = {
    "formula-session": ("engine", "interior", "exterior", "envelope"),
    "charset-session": ("engine", "interior", "exterior", "envelope"),
    "model-compile": ("core", "engine", "oracle"),
    "cli-oneshot": ("cli", "core", "engine", "interior", "exterior", "envelope"),
}


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def _durs(spans: dict, name: str) -> list[float]:
    return spans.get(name, {}).get("dur", [])


def _route_lat(wl, phase: dict, route: str) -> list[float]:
    return [op[1] for op in phase["ops"] if op[5] is None and wl.planned[op[0]].route == route]


def layer_metrics(per_workload: dict):
    """-> (metrics, per-workload records, correct, attempted, failed)."""
    m: dict[str, tuple[float, str]] = {}
    records = {}
    attempted = failed = 0
    for name, (wl, result) in per_workload.items():
        rec = {"kb": wl.kb_sizes, "phases": {}}
        for phase_name in ("untraced", "traced"):
            phase = result[phase_name]
            report = wl.verify(phase)
            attempted += len(phase["ops"])
            failed += report["failed"]
            rec["phases"][phase_name] = {
                "ops": len(phase["ops"]), "failed": report["failed"],
                "ops_per_s": len(phase["ops"]) / phase["elapsed"],
                "verification": {k: v for k, v in report.items() if k != "failed"}}
        untraced, traced = rec["phases"]["untraced"], rec["phases"]["traced"]
        m[f"trace.overhead_frac.{name}"] = (1 - traced["ops_per_s"] / untraced["ops_per_s"], "frac")
        spans = result["spans"]
        ops = max(1, traced["ops"])
        for layer in SELF_LAYERS[name]:
            total = sum(v["self_in_op"] for k, v in spans.items() if k.split(".")[0] == layer)
            m[f"self_ms_per_op.{name}.{layer}"] = (total / ops * 1e3, "ms")
        answers = traced["verification"].get("yes_frac", {})
        for route in getattr(wl, "routes", ()):
            m[f"answers.yes_frac.{name}.{route}"] = (answers.get(route, 0.0), "frac")
        m[f"kb.consistent_frac.{name}"] = (wl.consistent_frac(), "frac")
        tp, _ = tail([op[1] for op in result["traced"]["ops"]])
        rec["traced_tail_percentile"] = tp
        records[name] = rec
        _workload_layers(m, name, wl, result, spans, ops)
    return m, records, failed == 0, max(attempted, 1), failed


def _workload_layers(m: dict, name: str, wl, result: dict, spans: dict, ops: int) -> None:
    traced = result["traced"]
    if name == "formula-session":
        parse = _durs(spans, "core.parse_horn_cnf")
        m["core.parse_hcnf_ms"] = (_median(parse, 1e3), "ms")
        m["core.parse_hcnf_literals_per_s"] = (wl.kb_sizes["literals"] / _median(parse), "1/s")
        builds = _durs(spans, "engine.HornPropagator.build")
        props = _durs(spans, "engine.HornPropagator.minimal_model")
        m["engine.propagator_build_ms"] = (_median(builds, 1e3), "ms")
        m["engine.propagator_builds_per_op"] = (len(builds) / ops, "count")
        m["engine.minimal_model_ms"] = (_median(props, 1e3), "ms")
        m["engine.propagations_per_op"] = (len(props) / ops, "count")
        routes = ("engine.entails", "interior.deduce_interior_formula",
                  "exterior.deduce_exterior_formula", "envelope.deduce_envelope_formula")
        route_time = sum(sum(_durs(spans, r)) for r in routes)
        m["engine.build_share"] = (sum(builds) / route_time if route_time else 0.0, "frac")
        m["engine.entails_p50_ms"] = (_median(_durs(spans, "engine.entails"), 1e3), "ms")
        m["interior.formula_p50_ms"] = (_median(_durs(spans, "interior.deduce_interior_formula"), 1e3), "ms")
        rounds = [op[4] for op in traced["ops"] if op[4] is not None
                  and wl.planned[op[0]].route == "interior-formula"]
        m["interior.formula_rounds_per_op"] = (statistics.fmean(rounds) if rounds else 0.0, "count")
        ext = _durs(spans, "exterior.deduce_exterior_formula")
        m["exterior.formula_p50_ms"] = (_median(ext, 1e3), "ms")
        m["exterior.formula_tail_ms"] = (tail(ext)[1] * 1e3 if ext else 0.0, "ms")
        m["envelope.formula_p50_ms"] = (_median(_durs(spans, "envelope.deduce_envelope_formula"), 1e3), "ms")
        m["kb.literals.formula-session"] = (wl.kb_sizes["literals"], "count")
    elif name == "charset-session":
        m["core.parse_models_ms"] = (_median(_durs(spans, "core.parse_model_set"), 1e3), "ms")
        m["engine.charset_entails_p50_ms"] = (_median(_durs(spans, "engine.charset_entails"), 1e3), "ms")
        mma = _durs(spans, "engine.min_model_above")
        m["engine.min_model_above_us"] = (_median(mma, 1e6), "us")
        m["engine.min_model_above_calls_per_op"] = (len(mma) / ops, "count")
        m["interior.charset_p50_ms"] = (_median(_durs(spans, "interior.deduce_interior_charset"), 1e3), "ms")
        restarts = [op[4] for op in traced["ops"] if op[4] is not None
                    and wl.planned[op[0]].route == "interior-charset"]
        m["interior.charset_restarts_per_op"] = (statistics.fmean(restarts) if restarts else 0.0, "count")
        for side in ("neg", "pos", "auto"):
            m[f"exterior.charset_{side}_p50_ms"] = (
                _median(_route_lat(wl, traced, f"exterior-charset-{side}"), 1e3), "ms")
        caps = sum(1 for phase in ("untraced", "traced") for op in result[phase]["ops"]
                   if op[5] and op[5].startswith("EnumerationLimitError"))
        m["exterior.cap_hits"] = (caps, "count")
        m["envelope.charset_p50_ms"] = (_median(_durs(spans, "envelope.deduce_envelope_charset"), 1e3), "ms")
        m["kb.members.charset-session"] = (statistics.fmean(wl.kb_sizes["members"]), "count")
    elif name == "model-compile":
        m["core.serialize_models_ms"] = (_median(_durs(spans, "core.serialize_model_set"), 1e3), "ms")
        m["engine.is_intersection_closed_ms"] = (_median(_durs(spans, "engine.is_intersection_closed"), 1e3), "ms")
        own = spans.get("engine.characteristic_set", {}).get("self", [])
        m["engine.characteristic_set_ms"] = (_median(own, 1e3), "ms")
        m["engine.intersection_closure_ms"] = (_median(_durs(spans, "engine.intersection_closure"), 1e3), "ms")
        sizes = [len(traced["compile"][str(op[0])]["closure"]) for op in traced["ops"]
                 if str(op[0]) in traced["compile"]]
        m["engine.closure_models_out"] = (statistics.fmean(sizes) if sizes else 0.0, "count")
        m["oracle.all_models_ms"] = (_median(_durs(spans, "oracle.all_models"), 1e3), "ms")
        m["kb.models.model-compile"] = (wl.kb_sizes["models_mean"], "count")
        m["kb.members.model-compile"] = (wl.kb_sizes["charset_mean"], "count")
    elif name == "cli-oneshot":
        m["cli.import_ms"] = (_median(result["setup_s"], 1e3), "ms")
        m["cli.main_ms"] = (_median(_durs(spans, "cli.main"), 1e3), "ms")
        m["kb.literals.cli-oneshot"] = (statistics.fmean(wl.kb_sizes["literals"]), "count")
        m["kb.members.cli-oneshot"] = (statistics.fmean(wl.kb_sizes["members"]), "count")
