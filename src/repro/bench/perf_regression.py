"""Comparison-Execution and blocking-layer perf-regression harness.

Measures the hot paths this repository optimizes and the paper-shaped
query workloads around them (fig 9's SP sweep, fig 10's scalability
probe, table 6's stage breakdown), then emits the JSON perf-trajectory
records every later PR is held to.  Two suites:

* ``--suite comparison`` (default) — blocking-graph construction plus
  Comparison-Execution matching, emitting
  ``BENCH_comparison_execution.json``;
* ``--suite blocking`` — the columnar blocking fast path (CSR postings
  build, vectorized Block Purging / Block Filtering, array-derived QBI
  and candidate derivation) against the dict TBI pipeline, emitting
  ``BENCH_blocking.json``.

Two configurations run side by side:

* **fast** — the production code: candidate pairs from
  :func:`~repro.er.packed_blocking.derive_candidates` over the CSR
  postings, matching through the signature cascade.
* **baseline** — the paper-literal reference: the dict pipeline of
  :mod:`repro.er.reference` (unpacked blocking graph) and
  ``ProfileMatcher.matches`` over raw attributes.

The harness asserts both configurations produce identical retained
pairs and identical match decisions before reporting any timing: the
cascade is exact, not approximate, and the JSON records that check.

Usage::

    PYTHONPATH=src python -m repro.bench.perf_regression
    PYTHONPATH=src python -m repro.bench.perf_regression --quick \
        --output /tmp/bench.json --check BENCH_comparison_execution.json

``--check BASELINE`` compares the fresh run's *result shape* — workload
row/comparison counts, microbenchmark pair/match counts, the
identical-results flags — against a committed baseline and exits
non-zero on drift.  Timings are reported, never gated: CI stays
immune to noisy runners while result drift fails loudly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.datasets import SCALE, registry
from repro.bench.harness import fresh_engine, run_query
from repro.bench.reporting import format_table
from repro.bench.workload import q9_query, sp_queries
from repro.core.indices import TableIndex
from repro.core.planner import ExecutionMode
from repro.er import reference
from repro.er.block_filtering import block_filtering, retained_assignment_mask
from repro.er.block_purging import block_purging, purge_threshold, purge_threshold_from_sizes
from repro.er.blocking import BlockCollection, TokenPostings
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.packed_blocking import derive_candidates
from repro.er.tokenizer import TokenVocabulary

SCHEMA = "repro/bench/comparison-execution/v1"
BLOCKING_SCHEMA = "repro/bench/blocking/v1"

#: The blocking suite runs the fig9 families plus the table6 stage-
#: breakdown probe's largest PPL variant.
BLOCKING_DATASETS: Sequence[str] = ("DSD", "OAP", "OAGP2M", "PPL2M")

#: fig 9 runs one SP sweep per dataset family (paper §9.2).
FIG9_DATASETS: Sequence[Tuple[str, str]] = (
    ("DSD", "DSD"),
    ("OAP", "OAP"),
    ("OAGP2M", "OAGP"),
)

#: fig 10 scales the same Q9 probe across the PPL size ladder.
FIG10_DATASETS: Sequence[str] = ("PPL200K", "PPL500K", "PPL1M", "PPL1.5M", "PPL2M")


def _best_of(repeat: int, fn):
    """Best-of-N wall time plus the (last) result of *fn*."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# -- microbenchmark ---------------------------------------------------------


def microbenchmark(dataset_key: str, repeat: int = 3) -> Dict[str, Any]:
    """Candidate derivation + matching, fast vs baseline, one dataset.

    Two timed stages: (a) the frontier's candidate derivation — QBI,
    Block-Join, BP, BF and the blocking-graph build with Weighted Edge
    Pruning (the ``graph_*`` fields) — and (b) Comparison-Execution
    matching over the retained pairs.  Index construction and profile
    signatures are shared untimed prep.
    """
    table = registry().table(dataset_key)
    index = TableIndex(table)
    postings = index.postings  # materialize outside every timed region
    frontier = {row.id for row in table if row.id % 3 == 0}
    config = MetaBlockingConfig.all()

    graph_fast_s, fast = _best_of(
        repeat, lambda: derive_candidates(postings, frontier, config).pairs
    )
    graph_base_s, base = _best_of(
        repeat, lambda: reference.candidate_pairs(index, frontier, config).pairs
    )
    identical = set(fast) == set(base)

    pairs = sorted(fast, key=repr)
    signature_of = index.signature_of
    for left, right in pairs:  # build signatures outside the timed region
        signature_of(left)
        signature_of(right)

    fast_matcher = ProfileMatcher(exclude=(table.schema.id_column,))
    start = time.perf_counter()
    fast_matches = [
        pair
        for pair in pairs
        if fast_matcher.match_signatures(signature_of(pair[0]), signature_of(pair[1]))
    ]
    match_fast_s = time.perf_counter() - start

    base_matcher = ProfileMatcher(exclude=(table.schema.id_column,))
    attributes = index.entities.attributes
    attribute_cache: Dict[Any, dict] = {}

    def attrs(entity_id):
        cached = attribute_cache.get(entity_id)
        if cached is None:
            cached = attributes(entity_id)
            attribute_cache[entity_id] = cached
        return cached

    start = time.perf_counter()
    base_matches = [
        pair for pair in pairs if base_matcher.matches(attrs(pair[0]), attrs(pair[1]))
    ]
    match_base_s = time.perf_counter() - start
    identical = identical and fast_matches == base_matches

    return {
        "dataset": dataset_key,
        "entities": len(table),
        "frontier": len(frontier),
        "pairs": len(pairs),
        "matches": len(fast_matches),
        "identical_results": identical,
        "graph_baseline_s": round(graph_base_s, 6),
        "graph_fast_s": round(graph_fast_s, 6),
        "graph_speedup": round(graph_base_s / graph_fast_s, 2) if graph_fast_s else None,
        "match_baseline_s": round(match_base_s, 6),
        "match_fast_s": round(match_fast_s, 6),
        "match_speedup": round(match_base_s / match_fast_s, 2) if match_fast_s else None,
        "combined_speedup": round(
            (graph_base_s + match_base_s) / (graph_fast_s + match_fast_s), 2
        )
        if (graph_fast_s + match_fast_s)
        else None,
        "cascade": dict(fast_matcher.cascade_stats),
    }


def run_microbenchmarks(dataset_keys: Sequence[str], repeat: int = 3) -> Dict[str, Any]:
    per_dataset = [microbenchmark(key, repeat=repeat) for key in dataset_keys]
    baseline_s = sum(d["graph_baseline_s"] + d["match_baseline_s"] for d in per_dataset)
    fast_s = sum(d["graph_fast_s"] + d["match_fast_s"] for d in per_dataset)
    return {
        "description": (
            "candidate derivation (QBI, BP, BF, blocking graph + WEP) and "
            "Comparison-Execution matching on the fig9-style generated datasets; "
            "baseline = the paper-literal reference pipeline and exact matcher"
        ),
        "datasets": per_dataset,
        "aggregate": {
            "baseline_s": round(baseline_s, 6),
            "fast_s": round(fast_s, 6),
            "speedup": round(baseline_s / fast_s, 2) if fast_s else None,
        },
        "identical_results": all(d["identical_results"] for d in per_dataset),
    }


# -- blocking-layer microbenchmark ------------------------------------------


def _stage(baseline_s: float, fast_s: float) -> Dict[str, Any]:
    return {
        "baseline_s": round(baseline_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(baseline_s / fast_s, 2) if fast_s else None,
    }


def blocking_microbenchmark(dataset_key: str, repeat: int = 3) -> Dict[str, Any]:
    """Columnar vs dict blocking pipeline on one dataset.

    Five timed stages, each fast-vs-baseline with shared untimed prep:

    * **build** — dict TBI + ITBI assembly vs CSR postings build, from
      the same pre-tokenized per-entity key sets;
    * **qbi** — dict ``query_block_index`` + ``block_join`` vs the
      forward-CSR gather + inverted-postings materialization;
    * **purge** — dict Block Purging vs the vectorized cardinality
      threshold + mask;
    * **filter** — dict Block Filtering vs the lexsort/prefix retention
      mask;
    * **derive** — the full candidate derivation (stages i–iii plus
      Edge Pruning and pair enumeration) both ways.

    The identity gate asserts equal assignment counts, equal EQBI keys,
    the same integer purge threshold, the same retained (key, entity)
    assignments, the same candidate-pair set and the same final match
    decisions before any timing is reported.
    """
    table = registry().table(dataset_key)
    index = TableIndex(table)
    postings = index.postings  # materialize outside every timed region
    vocabulary = postings.vocabulary
    frontier = {row.id for row in table if row.id % 3 == 0}
    config = MetaBlockingConfig.all()
    identical = True

    # build: shared tokenization, competing index assemblies.
    prepared = [
        (entity_id, index.blocking.keys_for(attributes))
        for entity_id, attributes in index.entities.items()
    ]

    def dict_build():
        collection = BlockCollection()
        for entity_id, keys in prepared:
            for key in keys:
                collection.add(key, entity_id)
        return collection, collection.inverted()

    build_base_s, (_, itbi) = _best_of(repeat, dict_build)
    build_fast_s, built = _best_of(
        repeat, lambda: TokenPostings.build(prepared, TokenVocabulary())
    )
    identical &= built.assignment_count == sum(len(keys) for keys in itbi.values())

    # qbi: QBI + Block-Join both ways.
    def dict_qbi():
        return index.block_join(index.query_block_index(frontier))

    def packed_qbi():
        dense = postings.dense_frontier(frontier)
        tokens = postings.tokens_of_entities(dense)
        sizes = postings.sizes_of(tokens)
        indptr, members = postings.members_of(tokens)
        return tokens, sizes, indptr, members

    qbi_base_s, eqbi = _best_of(repeat, dict_qbi)
    qbi_fast_s, (tokens, sizes, _, _) = _best_of(repeat, packed_qbi)
    token_of = vocabulary.token_of
    identical &= {token_of(t) for t in tokens.tolist()} == set(eqbi.keys())
    identical &= int(sizes.sum()) == eqbi.total_assignments

    # purge: vectorized threshold + mask vs dict walk + copies.
    eqbi_ns = eqbi.non_singleton()
    singleton_mask = sizes >= 2
    tokens_ns = tokens[singleton_mask]
    sizes_ns = sizes[singleton_mask]

    def packed_purge():
        threshold = purge_threshold_from_sizes(sizes_ns, config.smoothing_factor)
        keep = sizes_ns * (sizes_ns - 1) // 2 <= threshold
        return threshold, tokens_ns[keep], sizes_ns[keep]

    purge_base_s, purged = _best_of(
        repeat, lambda: block_purging(eqbi_ns, smoothing=config.smoothing_factor)
    )
    purge_fast_s, (threshold, purged_tokens, purged_sizes) = _best_of(
        repeat, packed_purge
    )
    identical &= threshold == purge_threshold(eqbi_ns, smoothing=config.smoothing_factor)
    identical &= {token_of(t) for t in purged_tokens.tolist()} == set(purged.keys())

    # filter: per-entity retention both ways (shared regrouping prep).
    indptr_p, members_p = postings.members_of(purged_tokens)
    counts_p = np.diff(indptr_p)
    block_of = np.repeat(np.arange(len(purged_tokens), dtype=np.int64), counts_p)
    key_strings = np.array([token_of(t) for t in purged_tokens.tolist()])
    ranks = np.empty(len(purged_tokens), dtype=np.int64)
    ranks[np.argsort(key_strings)] = np.arange(len(purged_tokens), dtype=np.int64)

    def packed_filter():
        mask = retained_assignment_mask(
            members_p, np.repeat(purged_sizes, counts_p), ranks[block_of],
            config.filter_ratio,
        )
        kept_members = members_p[mask]
        kept_blocks = block_of[mask]
        survive = np.bincount(kept_blocks, minlength=len(purged_tokens)) >= 2
        keep_assignment = survive[kept_blocks]
        return kept_members[keep_assignment], kept_blocks[keep_assignment]

    filter_base_s, filtered = _best_of(
        repeat, lambda: block_filtering(purged, ratio=config.filter_ratio)
    )
    filter_fast_s, (kept_members, kept_blocks) = _best_of(repeat, packed_filter)
    dict_assignments = {
        (block.key, entity) for block in filtered for entity in block.entities
    }
    entity_id_of = postings.entity_id_of
    packed_assignments = {
        (token_of(int(purged_tokens[b])), entity_id_of(int(m)))
        for m, b in zip(kept_members.tolist(), kept_blocks.tolist())
    }
    identical &= dict_assignments == packed_assignments

    # derive: the reference dict pipeline vs derive_candidates.
    derive_base_s, base_pairs = _best_of(
        repeat, lambda: reference.candidate_pairs(index, frontier, config).pairs
    )
    derive_fast_s, fast_pairs = _best_of(
        repeat, lambda: derive_candidates(postings, frontier, config).pairs
    )
    identical &= set(base_pairs) == set(fast_pairs)

    # final DEDUP matches over both pair lists (untimed identity gate).
    matcher = ProfileMatcher(exclude=(table.schema.id_column,))
    signature_of = index.signature_of
    fast_matches = {
        pair
        for pair in fast_pairs
        if matcher.match_signatures(signature_of(pair[0]), signature_of(pair[1]))
    }
    base_matches = {
        pair
        for pair in base_pairs
        if matcher.match_signatures(signature_of(pair[0]), signature_of(pair[1]))
    }
    identical &= fast_matches == base_matches

    stages = {
        "build": _stage(build_base_s, build_fast_s),
        "qbi": _stage(qbi_base_s, qbi_fast_s),
        "purge": _stage(purge_base_s, purge_fast_s),
        "filter": _stage(filter_base_s, filter_fast_s),
        "derive": _stage(derive_base_s, derive_fast_s),
    }
    baseline_s = sum(stage["baseline_s"] for stage in stages.values())
    fast_s = sum(stage["fast_s"] for stage in stages.values())
    return {
        "dataset": dataset_key,
        "entities": len(table),
        "frontier": len(frontier),
        "eqbi_blocks": len(tokens),
        "purge_threshold": int(threshold),
        "filtered_assignments": len(packed_assignments),
        "pairs": len(fast_pairs),
        "matches": len(fast_matches),
        "identical_results": bool(identical),
        "stages": stages,
        "total": _stage(baseline_s, fast_s),
    }


def run_blocking(quick: bool = False, repeat: int = 3) -> Dict[str, Any]:
    keys = BLOCKING_DATASETS[:2] if quick else BLOCKING_DATASETS
    per_dataset = [blocking_microbenchmark(key, repeat=repeat) for key in keys]
    baseline_s = sum(d["total"]["baseline_s"] for d in per_dataset)
    fast_s = sum(d["total"]["fast_s"] for d in per_dataset)
    return {
        "schema": BLOCKING_SCHEMA,
        "generated_unix": int(time.time()),
        "scale": SCALE,
        "quick": quick,
        "python": "%d.%d" % sys.version_info[:2],
        "description": (
            "columnar blocking fast path (CSR postings build, vectorized "
            "purge/filter, array-derived QBI and candidate derivation) vs "
            "the dict TBI pipeline on the fig9/table6 workloads"
        ),
        "datasets": per_dataset,
        "aggregate": {
            "baseline_s": round(baseline_s, 6),
            "fast_s": round(fast_s, 6),
            "speedup": round(baseline_s / fast_s, 2) if fast_s else None,
        },
        "identical_results": all(d["identical_results"] for d in per_dataset),
    }


def render_blocking(report: Dict[str, Any]) -> str:
    lines = []
    rows = []
    for d in report["datasets"]:
        stages = d["stages"]
        rows.append(
            (
                d["dataset"],
                d["entities"],
                d["pairs"],
                stages["build"]["speedup"],
                stages["qbi"]["speedup"],
                stages["purge"]["speedup"],
                stages["filter"]["speedup"],
                stages["derive"]["speedup"],
                d["total"]["speedup"],
                "yes" if d["identical_results"] else "NO",
            )
        )
    lines.append(
        format_table(
            [
                "dataset",
                "entities",
                "pairs",
                "build x",
                "qbi x",
                "purge x",
                "filter x",
                "derive x",
                "total x",
                "identical",
            ],
            rows,
            title="Blocking-layer microbenchmark (packed vs dict, speedups)",
        )
    )
    aggregate = report["aggregate"]
    lines.append(
        f"aggregate: baseline {aggregate['baseline_s']:.3f}s → "
        f"fast {aggregate['fast_s']:.3f}s  ({aggregate['speedup']}x)"
    )
    return "\n".join(lines)


def check_blocking_shape(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Result-shape drift for the blocking suite (timings never gated)."""
    problems: List[str] = []
    if report.get("schema") != baseline.get("schema"):
        problems.append(
            f"schema drift: {report.get('schema')!r} != {baseline.get('schema')!r}"
        )
        return problems
    if report.get("scale") != baseline.get("scale"):
        problems.append(
            f"scale mismatch (run {report.get('scale')}, baseline "
            f"{baseline.get('scale')}): results are not comparable"
        )
        return problems
    if not report["identical_results"]:
        problems.append("blocking: packed and dict pipelines diverged")
    reference_sets = {d["dataset"]: d for d in baseline["datasets"]}
    for current in report["datasets"]:
        reference = reference_sets.get(current["dataset"])
        if reference is None:
            problems.append(f"blocking dataset {current['dataset']} not in baseline")
            continue
        for field in (
            "entities",
            "frontier",
            "eqbi_blocks",
            "purge_threshold",
            "filtered_assignments",
            "pairs",
            "matches",
        ):
            if current[field] != reference[field]:
                problems.append(
                    f"blocking {current['dataset']}: {field} drifted "
                    f"{reference[field]} -> {current[field]}"
                )
    return problems


# -- workload timings -------------------------------------------------------


def _workload_entry(measurement, suite: str) -> Dict[str, Any]:
    total = measurement.total_time
    return {
        "suite": suite,
        "dataset": measurement.dataset,
        "qid": measurement.qid,
        "mode": measurement.mode,
        "total_s": round(total, 6),
        "comparisons": measurement.comparisons,
        "comparisons_per_s": round(measurement.comparisons / total, 1) if total else None,
        "rows": measurement.rows,
        "stage_s": {k: round(v, 6) for k, v in measurement.stage_times.items()},
        "stage_pct": {
            k: round(v, 1) for k, v in measurement.breakdown_percentages().items()
        },
    }


def run_workloads(quick: bool = False) -> List[Dict[str, Any]]:
    """fig9 (SP sweep), fig10 (Q9 scaling) and table6-style stage times."""
    entries: List[Dict[str, Any]] = []
    fig9 = FIG9_DATASETS[:1] if quick else FIG9_DATASETS
    for dataset_key, family in fig9:
        table = registry().table(dataset_key)
        engine = fresh_engine([table])
        queries = sp_queries(family)
        if quick:
            queries = [q for q in queries if q.qid in ("Q1", "Q3")]
        for query in queries:
            measurement = run_query(
                engine, query.qid, dataset_key, query.sql, ExecutionMode.AES
            )
            entries.append(_workload_entry(measurement, "fig9"))
    fig10 = FIG10_DATASETS[:2] if quick else FIG10_DATASETS
    for dataset_key in fig10:
        table = registry().table(dataset_key)
        engine = fresh_engine([table])
        query = q9_query("PPL")
        measurement = run_query(
            engine, query.qid, dataset_key, query.sql, ExecutionMode.AES
        )
        entries.append(_workload_entry(measurement, "fig10"))
    return entries


# -- report assembly --------------------------------------------------------


def run(quick: bool = False, repeat: int = 3) -> Dict[str, Any]:
    micro_keys = [key for key, _ in (FIG9_DATASETS[:2] if quick else FIG9_DATASETS)]
    micro = run_microbenchmarks(micro_keys, repeat=repeat)
    workloads = run_workloads(quick=quick)
    return {
        "schema": SCHEMA,
        "generated_unix": int(time.time()),
        "scale": SCALE,
        "quick": quick,
        "python": "%d.%d" % sys.version_info[:2],
        "microbenchmark": micro,
        "workloads": workloads,
    }


def render(report: Dict[str, Any]) -> str:
    lines = []
    micro = report["microbenchmark"]
    rows = [
        (
            d["dataset"],
            d["pairs"],
            d["matches"],
            d["graph_baseline_s"],
            d["graph_fast_s"],
            d["match_baseline_s"],
            d["match_fast_s"],
            d["combined_speedup"],
            "yes" if d["identical_results"] else "NO",
        )
        for d in micro["datasets"]
    ]
    lines.append(
        format_table(
            [
                "dataset",
                "pairs",
                "matches",
                "graph base s",
                "graph fast s",
                "match base s",
                "match fast s",
                "speedup",
                "identical",
            ],
            rows,
            title="Comparison-Execution microbenchmark (candidate derivation + matching)",
        )
    )
    aggregate = micro["aggregate"]
    lines.append(
        f"aggregate: baseline {aggregate['baseline_s']:.3f}s → "
        f"fast {aggregate['fast_s']:.3f}s  ({aggregate['speedup']}x)"
    )
    workload_rows = [
        (
            e["suite"],
            e["dataset"],
            e["qid"],
            e["total_s"],
            e["comparisons"],
            e["comparisons_per_s"],
            e["rows"],
        )
        for e in report["workloads"]
    ]
    lines.append("")
    lines.append(
        format_table(
            ["suite", "dataset", "qid", "total s", "comparisons", "cmp/s", "rows"],
            workload_rows,
            title="Workload timings (AES)",
        )
    )
    return "\n".join(lines)


# -- shape-drift check ------------------------------------------------------


def check_shape(report: Dict[str, Any], baseline: Dict[str, Any]) -> List[str]:
    """Result-shape drift between a fresh run and a committed baseline.

    Compares deterministic result fields only — comparison counts, row
    counts, match counts, the identical-results invariants.  Timings are
    never compared.  Returns human-readable drift messages (empty =
    clean).  A quick run checks the subset of workloads it executed.
    """
    problems: List[str] = []
    if report.get("schema") != baseline.get("schema"):
        problems.append(
            f"schema drift: {report.get('schema')!r} != {baseline.get('schema')!r}"
        )
        return problems
    if report.get("scale") != baseline.get("scale"):
        problems.append(
            f"scale mismatch (run {report.get('scale')}, baseline "
            f"{baseline.get('scale')}): results are not comparable"
        )
        return problems
    if not report["microbenchmark"]["identical_results"]:
        problems.append("microbenchmark: fast and baseline results diverged")
    baseline_micro = {
        d["dataset"]: d for d in baseline["microbenchmark"]["datasets"]
    }
    for current in report["microbenchmark"]["datasets"]:
        reference = baseline_micro.get(current["dataset"])
        if reference is None:
            problems.append(f"microbenchmark dataset {current['dataset']} not in baseline")
            continue
        for field in ("entities", "frontier", "pairs", "matches"):
            if current[field] != reference[field]:
                problems.append(
                    f"microbenchmark {current['dataset']}: {field} drifted "
                    f"{reference[field]} -> {current[field]}"
                )
    baseline_workloads = {
        (e["suite"], e["dataset"], e["qid"], e["mode"]): e
        for e in baseline["workloads"]
    }
    for entry in report["workloads"]:
        key = (entry["suite"], entry["dataset"], entry["qid"], entry["mode"])
        reference = baseline_workloads.get(key)
        if reference is None:
            problems.append(f"workload {key} not in baseline")
            continue
        for field in ("comparisons", "rows"):
            if entry[field] != reference[field]:
                problems.append(
                    f"workload {key}: {field} drifted "
                    f"{reference[field]} -> {entry[field]}"
                )
    return problems


# -- CLI --------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.perf_regression", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--suite",
        choices=("comparison", "blocking"),
        default="comparison",
        help="which microbenchmark suite to run (default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report (default: "
        "BENCH_comparison_execution.json / BENCH_blocking.json per suite)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload subset (CI smoke): fewer datasets and queries",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="microbenchmark graph-build repetitions, best-of (default: 3)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare result shape against a committed baseline JSON; "
        "exit 1 on drift (timings are reported, never gated)",
    )
    args = parser.parse_args(argv)

    if args.suite == "blocking":
        report = run_blocking(quick=args.quick, repeat=args.repeat)
        rendered = render_blocking(report)
        identical = report["identical_results"]
        checker = check_blocking_shape
        output = args.output or "BENCH_blocking.json"
    else:
        report = run(quick=args.quick, repeat=args.repeat)
        rendered = render(report)
        identical = report["microbenchmark"]["identical_results"]
        checker = check_shape
        output = args.output or "BENCH_comparison_execution.json"
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(rendered)
    print(f"\nreport written to {output}")

    if not identical:
        print("FAIL: fast path and baseline produced different results", file=sys.stderr)
        return 1
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        problems = checker(report, baseline)
        if problems:
            print(f"\nresult-shape drift vs {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"result shape matches {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
