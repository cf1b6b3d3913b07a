#!/usr/bin/env python3
"""Guard for the committed BENCH_*.json artifacts.

Every benchmark binary that takes `--json` writes a machine-readable result
file that is committed at the repo root (BENCH_nn.json, BENCH_ingest.json,
...). These artifacts are load-bearing: README and DESIGN.md cite them, and
the ingest artifact carries this PR's acceptance criterion. This script is
the CI gate that keeps them honest:

  * every BENCH_*.json must parse as strict JSON (no NaN/Infinity — a
    printf'd NaN is how a silently-broken bench usually manifests);
  * the shared header fields (`bench`, `scale`, `hardware_threads`) must be
    present and sane, and `bench` must name the producing binary;
  * per-bench criteria: BENCH_ingest.json must record
    `per_link_verdicts_match_isolated: true` (sharding may never change a
    verdict) and a met speedup criterion.

`--same-results A B` instead compares the `results` objects of two records
of one bench (e.g. the committed BENCH_quality.json and a fresh
`bench_paper --json` run) and fails naming the first differing key path
and both values.

Usage: check_bench_json.py [repo_root|file.json ...]
       check_bench_json.py --same-results A.json B.json
Exits non-zero with one line per violation.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

KNOWN_SCALES = {"default", "big", "paper"}


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite JSON constant {token!r}")


def _walk_numbers(node, path, errors):
    if isinstance(node, dict):
        for key, value in node.items():
            _walk_numbers(value, f"{path}.{key}", errors)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _walk_numbers(value, f"{path}[{i}]", errors)
    elif isinstance(node, float) and not math.isfinite(node):
        errors.append(f"{path}: non-finite number")


def check_common(doc: dict, errors: list) -> None:
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench.startswith("bench_"):
        errors.append("'bench' must name the producing bench_* binary")
    scale = doc.get("scale")
    if scale not in KNOWN_SCALES:
        errors.append(f"'scale' must be one of {sorted(KNOWN_SCALES)}, "
                      f"got {scale!r}")
    hw = doc.get("hardware_threads")
    if not isinstance(hw, int) or isinstance(hw, bool) or hw < 1:
        errors.append("'hardware_threads' must be a positive integer")


def check_ingest(doc: dict, errors: list) -> None:
    if doc.get("per_link_verdicts_match_isolated") is not True:
        errors.append("'per_link_verdicts_match_isolated' must be true: "
                      "sharding is only allowed as a verdict-preserving "
                      "optimization (DESIGN.md §10)")

    criterion = doc.get("criterion")
    if not isinstance(criterion, dict):
        errors.append("'criterion' object missing")
    else:
        required = criterion.get("required_speedup_4shards_vs_1")
        measured = criterion.get("measured_speedup_4shards_vs_1_64links")
        for name, value in (("required_speedup_4shards_vs_1", required),
                            ("measured_speedup_4shards_vs_1_64links",
                             measured)):
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"criterion.{name} must be a positive number")
        if criterion.get("met") is not True:
            errors.append("criterion.met must be true")
        elif (isinstance(required, (int, float))
              and isinstance(measured, (int, float))
              and measured < required):
            errors.append(f"criterion.met claims true but measured "
                          f"{measured} < required {required}")

    links = doc.get("links")
    if not isinstance(links, dict) or not links:
        errors.append("'links' table missing or empty")
        return
    for link_count, entry in links.items():
        shards = entry.get("shards") if isinstance(entry, dict) else None
        if not isinstance(shards, dict) or not shards:
            errors.append(f"links.{link_count}.shards missing or empty")
            continue
        for shard_count, run in shards.items():
            where = f"links.{link_count}.shards.{shard_count}"
            for field in ("critical_path_s", "wall_s"):
                value = run.get(field) if isinstance(run, dict) else None
                if not isinstance(value, (int, float)) or value <= 0:
                    errors.append(f"{where}.{field} must be positive")


def check_nn(doc: dict, errors: list) -> None:
    """bench_nn_throughput writes two artifacts: BENCH_nn.json (the engine
    throughput record, with a `train` section) and BENCH_train.json (the
    multi-capture train-consolidation record, with a `train_consolidation`
    section). Both carry determinism booleans that must be true."""
    tc = doc.get("train_consolidation")
    if tc is not None:
        if not isinstance(tc, dict):
            errors.append("'train_consolidation' must be an object")
            return
        if tc.get("all_backends_bit_identical") is not True:
            errors.append("train_consolidation.all_backends_bit_identical "
                          "must be true: sharded training may never depend "
                          "on thread count or capture order (DESIGN.md §11)")
        backends = tc.get("backends")
        if not isinstance(backends, dict) or not backends:
            errors.append("train_consolidation.backends missing or empty")
        else:
            for name, entry in backends.items():
                key = "losses_bit_identical_across_threads_and_orders"
                if not isinstance(entry, dict) or entry.get(key) is not True:
                    errors.append(f"train_consolidation.backends.{name}."
                                  f"{key} must be true")
        for field in ("sequential_per_capture_s", "sharded_wall_s",
                      "sharded_critical_path_s"):
            value = tc.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"train_consolidation.{field} must be positive")
        reduction = tc.get("transpose_calls_reduction")
        if not isinstance(reduction, (int, float)) or reduction <= 1:
            errors.append("train_consolidation.transpose_calls_reduction "
                          "must exceed 1 (the cache must actually remove "
                          "per-lane re-transposition)")
        criterion = tc.get("criterion")
        if not isinstance(criterion, dict):
            errors.append("train_consolidation.criterion object missing")
            return
        required = criterion.get("required_speedup_4lanes")
        measured = criterion.get("measured_speedup_4lanes")
        for name, value in (("required_speedup_4lanes", required),
                            ("measured_speedup_4lanes", measured)):
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"train_consolidation.criterion.{name} must "
                              f"be a positive number")
        if criterion.get("met") is not True:
            errors.append("train_consolidation.criterion.met must be true")
        elif (isinstance(required, (int, float))
              and isinstance(measured, (int, float))
              and measured < required):
            errors.append(f"train_consolidation.criterion.met claims true "
                          f"but measured {measured} < required {required}")
        return

    train = doc.get("train")
    if not isinstance(train, dict):
        errors.append("'train' section missing")
    elif train.get("epoch_losses_identical_across_threads") is not True:
        errors.append("train.epoch_losses_identical_across_threads must "
                      "be true (DESIGN.md §5)")
    eval_section = doc.get("eval")
    if not isinstance(eval_section, dict):
        errors.append("'eval' section missing")
    elif eval_section.get("confusion_identical_across_threads") is not True:
        errors.append("eval.confusion_identical_across_threads must be true")


def check_faults(doc: dict, errors: list) -> None:
    """BENCH_faults.json (DESIGN.md §12): deterministic fault injection and
    lossless transport recovery are contracts, not aspirations."""
    inj = doc.get("injection")
    if not isinstance(inj, dict):
        errors.append("'injection' section missing")
    else:
        if inj.get("deterministic") is not True:
            errors.append("injection.deterministic must be true: the fault "
                          "schedule is a pure function of spec + wire")
        total = inj.get("total_faults")
        if not isinstance(total, int) or isinstance(total, bool) or total < 1:
            errors.append("injection.total_faults must be a positive integer "
                          "(a fault bench that injected nothing proves "
                          "nothing)")
        for field in ("frames_in", "frames_out"):
            value = inj.get(field)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                errors.append(f"injection.{field} must be a positive integer")

    tr = doc.get("transport")
    if not isinstance(tr, dict):
        errors.append("'transport' section missing")
    else:
        if tr.get("records_lost") != 0:
            errors.append("transport.records_lost must be 0: resume with "
                          "overlap may never drop a record")
        if tr.get("verdicts_bit_identical") is not True:
            errors.append("transport.verdicts_bit_identical must be true: "
                          "delivered well-formed packages must verdict "
                          "identically to the fault-free run")
        if tr.get("delivered_equals_wire") is not True:
            errors.append("transport.delivered_equals_wire must be true")
        reconnects = tr.get("reconnects")
        if not isinstance(reconnects, int) or isinstance(reconnects, bool) \
                or reconnects < 1:
            errors.append("transport.reconnects must be >= 1 (no reconnect "
                          "means the kill schedule never ran)")
        rec = tr.get("recovery_ms")
        if not isinstance(rec, dict):
            errors.append("transport.recovery_ms missing")
        else:
            for field in ("p50", "p90", "max"):
                value = rec.get(field)
                if not isinstance(value, (int, float)) or value <= 0:
                    errors.append(f"transport.recovery_ms.{field} must be a "
                                  f"positive number")
            samples = rec.get("samples")
            if not isinstance(samples, int) or isinstance(samples, bool) \
                    or samples < 1:
                errors.append("transport.recovery_ms.samples must be >= 1")

    criterion = doc.get("criterion")
    if not isinstance(criterion, dict):
        errors.append("'criterion' object missing")
    elif criterion.get("met") is not True:
        errors.append("criterion.met must be true")


def check_sigdb(doc: dict, errors: list) -> None:
    """BENCH_sigdb.json (DESIGN.md §13): the mmap-backed signature index is
    only allowed to exist as a verdict-preserving optimization — parity with
    the in-RAM path and the batched-speedup criterion are both gates."""
    sigs = doc.get("signatures")
    if not isinstance(sigs, int) or isinstance(sigs, bool) or sigs < 10**6:
        errors.append("'signatures' must be an integer >= 1e6 (the bench "
                      "must exercise a million-signature database)")
    if doc.get("verdicts_match_in_ram") is not True:
        errors.append("'verdicts_match_in_ram' must be true: the mmap index "
                      "may never change an id or a Bloom verdict")
    batch = doc.get("batch_size")
    if not isinstance(batch, int) or isinstance(batch, bool) or batch < 2:
        errors.append("'batch_size' must be an integer >= 2")
    backends = doc.get("backends")
    if not isinstance(backends, dict) or not backends:
        errors.append("'backends' table missing or empty")
    else:
        for name, entry in backends.items():
            if not isinstance(entry, dict) or entry.get("ids_match") is not True:
                errors.append(f"backends.{name}.ids_match must be true "
                              f"(exact integer search: every backend must "
                              f"agree bitwise)")

    criterion = doc.get("criterion")
    if not isinstance(criterion, dict):
        errors.append("'criterion' object missing")
        return
    required = criterion.get("required_batch_speedup_vs_scalar")
    achieved = criterion.get("achieved")
    for name, value in (("required_batch_speedup_vs_scalar", required),
                        ("achieved", achieved)):
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"criterion.{name} must be a positive number")
    if criterion.get("met") is not True:
        errors.append("criterion.met must be true")
    elif (isinstance(required, (int, float))
          and isinstance(achieved, (int, float)) and achieved < required):
        errors.append(f"criterion.met claims true but achieved "
                      f"{achieved} < required {required}")


def check_obs(doc: dict, errors: list) -> None:
    """BENCH_obs.json (DESIGN.md §14): telemetry must be free in both
    senses — verdicts bit-identical with a registry attached, and the
    tick-path overhead inside the 2% budget."""
    if doc.get("verdicts_match_untelemetered") is not True:
        errors.append("'verdicts_match_untelemetered' must be true: "
                      "telemetry may never change a verdict")

    for mode in ("telemetry_off", "telemetry_on"):
        entry = doc.get(mode)
        if not isinstance(entry, dict):
            errors.append(f"'{mode}' object missing")
            continue
        best = entry.get("best_us_per_package")
        if not isinstance(best, (int, float)) or best <= 0:
            errors.append(f"{mode}.best_us_per_package must be a positive "
                          f"number")
        runs = entry.get("runs")
        if not isinstance(runs, list) or not runs:
            errors.append(f"{mode}.runs must be a non-empty array")

    on = doc.get("telemetry_on")
    counts = on.get("stage_counts") if isinstance(on, dict) else None
    if not isinstance(counts, dict) or not counts:
        errors.append("telemetry_on.stage_counts table missing or empty")
    else:
        for stage in ("stage_decode_ns", "stage_queue_wait_ns",
                      "stage_lookup_ns", "stage_nn_ns", "stage_tick_ns"):
            n = counts.get(stage)
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                errors.append(f"telemetry_on.stage_counts.{stage} must be "
                              f"a positive integer (the stage was never "
                              f"sampled)")

    criterion = doc.get("criterion")
    if not isinstance(criterion, dict):
        errors.append("'criterion' object missing")
        return
    required = criterion.get("required_overhead_pct")
    measured = criterion.get("measured_overhead_pct")
    if not isinstance(required, (int, float)) or required <= 0:
        errors.append("criterion.required_overhead_pct must be a positive "
                      "number")
    if not isinstance(measured, (int, float)):
        errors.append("criterion.measured_overhead_pct must be a number")
    if criterion.get("met") is not True:
        errors.append("criterion.met must be true")
    elif (isinstance(required, (int, float))
          and isinstance(measured, (int, float)) and measured >= required):
        errors.append(f"criterion.met claims true but measured overhead "
                      f"{measured}% >= budget {required}%")


PER_BENCH_CHECKS = {
    "bench_faults": check_faults,
    "bench_ingest_shards": check_ingest,
    "bench_nn_throughput": check_nn,
    "bench_obs": check_obs,
    "bench_sigdb": check_sigdb,
}


def check_file(path: pathlib.Path) -> list:
    errors: list = []
    try:
        doc = json.loads(path.read_text(),
                         parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return [f"unreadable or invalid JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["top level must be a JSON object"]

    _walk_numbers(doc, "$", errors)
    check_common(doc, errors)
    extra = PER_BENCH_CHECKS.get(doc.get("bench"))
    if extra is not None:
        extra(doc, errors)
    return errors


def first_difference(a, b, path: str):
    """The first key path (document order of `a`, then keys only in `b`)
    where two JSON values differ, with both values; None when equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a:
            if key not in b:
                return f"{path}.{key}", a[key], "<missing>"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff is not None:
                return diff
        for key in b:
            if key not in a:
                return f"{path}.{key}", "<missing>", b[key]
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff is not None:
                return diff
        if len(a) != len(b):
            return f"{path}.length", len(a), len(b)
        return None
    if type(a) is not type(b) or a != b:
        return path, a, b
    return None


def same_results(expected_path: str, actual_path: str) -> int:
    docs = []
    for path in (expected_path, actual_path):
        try:
            doc = json.loads(pathlib.Path(path).read_text(),
                             parse_constant=_reject_constant)
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable or invalid JSON: {exc}",
                  file=sys.stderr)
            return 1
        if not isinstance(doc, dict) or not isinstance(doc.get("results"),
                                                       dict):
            print(f"{path}: no 'results' object", file=sys.stderr)
            return 1
        docs.append(doc["results"])
    diff = first_difference(docs[0], docs[1], "results")
    if diff is not None:
        where, want, got = diff
        print(f"{where}: {expected_path} has {json.dumps(want)}, "
              f"{actual_path} has {json.dumps(got)}", file=sys.stderr)
        return 1
    print(f"{actual_path}: results equal {expected_path}")
    return 0


def main(argv: list) -> int:
    if argv and argv[0] == "--same-results":
        if len(argv) != 3:
            print("usage: check_bench_json.py --same-results A.json B.json",
                  file=sys.stderr)
            return 2
        return same_results(argv[1], argv[2])
    targets = []
    for arg in argv or ["."]:
        p = pathlib.Path(arg)
        if p.is_dir():
            found = sorted(p.glob("BENCH_*.json"))
            if not found:
                print(f"{p}: no BENCH_*.json artifacts found",
                      file=sys.stderr)
                return 1
            targets.extend(found)
        else:
            targets.append(p)

    failed = False
    for path in targets:
        errors = check_file(path)
        if errors:
            failed = True
            for err in errors:
                print(f"{path}: {err}", file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
