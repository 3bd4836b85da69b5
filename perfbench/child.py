"""One pass of one workload in a fresh interpreter.

Usage: python3 -I perfbench/child.py <workload> <order> <trace 0|1> <cross 0|1>

Imports lrpoly from the ``src`` directory next to ``perfbench``, builds the
op list, runs every op once in the order drawn from ``<order>`` with one
slice of the reference kernel after each op (outside its timed span), checks
the outputs after the timed loop (with cross 1, also against an independent
route), and prints one JSON object on stdout.  With trace 1 the pass runs
under the tracer and the object also holds the per-layer figures.
"""

import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _layer_specs(tracer):
    """The spans and counts of the traced pass, one per layer metric."""

    def not_none(stat, args, result):
        stat.tally += result is not None

    def tableaux_found(stat, args, result):
        stat.tally += len(result)

    def nonzero(stat, args, result):
        stat.tally += not result.is_zero()

    def n_max(stat, args, result):
        stat.peak = max(stat.peak, args[2])

    def terms_out(stat, args, result):
        stat.tally += len(result.terms)

    m = "lrpoly."
    tracer.count("apoly.mono_mul", m + "apoly", "_mono_mul")
    for name, module, qualname, observe in [
        ("apoly.mul", "apoly", "APoly.__mul__", None),
        ("apoly.add", "apoly", "APoly.__add__", None),
        ("shapes.partitions_of", "shapes", "partitions_of", None),
        ("shapes.lambda_omega", "shapes", "lambda_omega", None),
        ("formal_ring.formal_pieri_terms", "formal_ring", "formal_pieri_terms", None),
        ("formal_ring.straighten", "formal_ring", "straighten", not_none),
        ("formal_ring.jacobi_trudi", "formal_ring", "jacobi_trudi", None),
        ("stable_ring.pieri_stable", "stable_ring", "pieri_stable", None),
        ("stable_ring.reduce_to_staircase", "stable_ring", "reduce_to_staircase", None),
        ("stable_ring.multiply_by_h", "stable_ring", "multiply_by_h", None),
        ("schursum.add_term", "schursum", "SchurSum.add_term", None),
        ("schursum.add", "schursum", "SchurSum.__add__", None),
        ("schursum.scale", "schursum", "SchurSum.scale", None),
        ("tableaux.enumerate_lr_tableaux", "tableaux", "enumerate_lr_tableaux", tableaux_found),
        ("tableaux.tableau_weight", "tableaux", "tableau_weight", nonzero),
        ("tableaux.enumerate_k_tableaux", "tableaux", "enumerate_k_tableaux", None),
        ("lr.c_theorem", "lr", "c_theorem", None),
        ("lr.c_corollary", "lr", "c_corollary", None),
        ("lr.c_alternating", "lr", "c_alternating", None),
        ("lr.kostka", "lr", "kostka", None),
        ("lr.pieri_tableau", "lr", "pieri_tableau", None),
        ("involutions.psi", "involutions", "psi", None),
        ("involutions.classify_bad", "involutions", "classify_bad", not_none),
        ("involutions.monomial_involution", "involutions", "monomial_involution", None),
        ("double_sym.product_decomposition", "double_sym", "product_decomposition", n_max),
        ("double_sym.schur_branch", "double_sym", "_schur_sym_branch", None),
        ("double_sym.sym_mul", "double_sym", "_Sym.__mul__", terms_out),
        ("double_sym.decompose", "double_sym", "_decompose_sym", None),
        ("double_sym.classical_lr", "double_sym", "classical_lr", None),
        ("cli.run_cases", "cli", "_run_cases", None),
    ]:
        tracer.span(name, m + module, qualname, observe)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _layer_metrics(stats, workload, times):
    """Per-layer figures of a traced pass, named as in BENCHMARK.json."""
    out = {}
    for name, stat in stats.items():
        out[name + ".calls"] = stat.calls
        out[name + ".self_s"] = stat.self_s
    out["formal_ring.straighten.kept_ratio"] = _ratio(
        stats["formal_ring.straighten"].tally, stats["formal_ring.straighten"].calls
    )
    out["tableaux.lr_tableaux.count"] = stats["tableaux.enumerate_lr_tableaux"].tally
    out["tableaux.weight_nonzero_ratio"] = _ratio(
        stats["tableaux.tableau_weight"].tally, stats["tableaux.tableau_weight"].calls
    )
    out["involutions.classify_bad.bad_ratio"] = _ratio(
        stats["involutions.classify_bad"].tally, stats["involutions.classify_bad"].calls
    )
    out["double_sym.product_decomposition.n_max"] = stats[
        "double_sym.product_decomposition"
    ].peak
    out["double_sym.sym_mul.terms_out"] = stats["double_sym.sym_mul"].tally
    suite_of = getattr(workload, "suite_of", {})
    suite_s = dict.fromkeys(("ring", "pieri", "lr", "involutions"), 0.0)
    for label, seconds in times.items():
        if label in suite_of:
            suite_s[suite_of[label]] += seconds
    for suite, seconds in suite_s.items():
        out[f"cli.suite.{suite}.s"] = seconds
    out["cli.cases.count"] = len(suite_of)
    return out


def _memo_entries():
    """len() of each module memo after the pass; read only, 0 if it is gone."""
    modules = sys.modules
    out = {}
    for name, module, attr in [
        ("apoly.mono_cache.entries", "lrpoly.apoly", "_MONO_MUL_CACHE"),
        ("stable_ring.pieri_cache.entries", "lrpoly.stable_ring", "_PIERI_CACHE"),
        ("double_sym.product_cache.entries", "lrpoly.double_sym", "_PRODUCT_CACHE"),
        ("double_sym.branch_cache.entries", "lrpoly.double_sym", "_BRANCH_CACHE"),
    ]:
        out[name] = len(getattr(modules[module], attr, ()))
    return out


def main(argv):
    name, order, trace, cross = argv[0], argv[1], argv[2] == "1", argv[3] == "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lrpoly

    if Path(lrpoly.__file__).resolve().parent != SRC / "lrpoly":
        raise ImportError(f"lrpoly imported from {lrpoly.__file__}, not {SRC}")
    import workloads
    from reference import Reference
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]()
    tracer = None
    if trace:
        tracer = Tracer()
        _layer_specs(tracer)
    reference = Reference()
    times, outputs, errors, first, last = workload.run(random.Random(order), reference.run_slice)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "first_op": first,
        "wall_s": last - first - sum(reference.slices),
        "slice_s": reference.slices,
        "op_s": times,
        "peak_rss_mb": peak_rss_mb,
        "threads_env_set": "LRPOLY_THREADS" in os.environ,
    }
    if tracer is not None:
        result["bindings_patched"] = tracer.bindings_patched()
        result["restored"] = tracer.restore()
        result["layers"] = _layer_metrics(tracer.stats, workload, times)
        result["layers"].update(_memo_entries())
    digests, failed = workload.check(outputs, errors, cross)
    result["digests"] = digests
    result["failed"] = sorted(failed)
    result["errors"] = errors
    if hasattr(workload, "stdout"):
        result["stdout"] = workload.stdout
        result["exit_code"] = workload.exit_code
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
