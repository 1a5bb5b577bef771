"""``run.py --compare BASE.json NEW.json``: parent-vs-change verdicts.

Per workload x end-to-end metric: base, new, ratio and a verdict, judged
against the bounds fixed in ``BENCHMARK.json``.

* exact metrics (same seed and sizes on both sides) compare at 1e-9
  relative: ``same``, or ``better``/``worse`` by the metric's direction;
* timed metrics compare medians against the bound, and the min-max band of
  the repetitions decides whether a verdict can be given at all:
  ``unresolved`` when the two bands overlap and either is wider than the
  bound (the spread hides a change of that size); otherwise ``worse`` /
  ``better`` when the median moved by more than the bound, else ``same``.

Exits non-zero on any ``worse`` and on any rise in ``fail_ratio``.
"""

from __future__ import annotations

import json

import metrics

EXACT_REL = 1e-9


def verdict(base: dict, new: dict, better: str, bound: float,
            exact: bool) -> str:
    """Judge one metric: same / better / worse / unresolved."""
    b, n = base["value"], new["value"]
    # Signed worsening as a share of the base value.
    worsening = (n - b) / abs(b) if b else (0.0 if n == b else float("inf"))
    if better == "higher":
        worsening = -worsening
    if exact:
        if abs(worsening) <= EXACT_REL:
            return "same"
        return "worse" if worsening > 0 else "better"
    b_lo, b_hi = base.get("min", b), base.get("max", b)
    n_lo, n_hi = new.get("min", n), new.get("max", n)
    overlap = b_lo <= n_hi and n_lo <= b_hi
    widest = max((b_hi - b_lo) / abs(b), (n_hi - n_lo) / abs(n)) if b and n else 0.0
    if overlap and widest > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(base: dict, new: dict, declared: dict) -> tuple[list, bool]:
    """Rows of (workload, metric, base, new, ratio, verdict) and pass/fail."""
    same_inputs = all(
        base["record"].get(k) == new["record"].get(k) for k in ("seed", "sizes")
    )
    rows, ok = [], True
    for name, b_run in base["workloads"].items():
        n_run = new["workloads"].get(name)
        if n_run is None:
            continue
        for m in declared["end_to_end"]:
            b = b_run["end_to_end"].get(m["name"])
            n = n_run["end_to_end"].get(m["name"])
            if b is None or n is None:
                continue
            exact = same_inputs and m["name"] in metrics.EXACT_END_TO_END
            v = verdict(b, n, m["better"], m["bound"], exact)
            ratio = n["value"] / b["value"] if b["value"] else float("nan")
            rows.append((name, m["name"], b["value"], n["value"], ratio, v))
            ok &= v != "worse"
        b_fail = b_run["end_to_end"]["fail_ratio"]["value"]
        n_fail = n_run["end_to_end"]["fail_ratio"]["value"]
        v = "same" if n_fail == b_fail else ("worse" if n_fail > b_fail else "better")
        rows.append((name, "fail_ratio", b_fail, n_fail, float("nan"), v))
        ok &= v != "worse"
    return rows, ok


def changed_layer_counts(base: dict, new: dict) -> list:
    """Exact per-layer metrics (simulated statistics, plan counts) that
    differ — a simulator-only speed-up must leave this list empty."""
    out = []
    for name, b_run in base["workloads"].items():
        n_layer = new["workloads"].get(name, {}).get("per_layer") or {}
        b_layer = b_run.get("per_layer") or {}
        for key in metrics.EXACT_PER_LAYER:
            if key in b_layer and key in n_layer and (
                b_layer[key]["value"] != n_layer[key]["value"]
            ):
                out.append((name, key, b_layer[key]["value"],
                            n_layer[key]["value"]))
    return out


def main(base_path: str, new_path: str) -> int:
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    rows, ok = compare(base, new, metrics.load_declaration())
    print(f"{'workload':15s} {'metric':14s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s}  verdict")
    for name, metric, b, n, ratio, v in rows:
        print(f"{name:15s} {metric:14s} {b:14.8g} {n:14.8g} {ratio:9.4f}  {v}")
    for side, data in (("base", base), ("new", new)):
        if data["record"].get("noisy"):
            print(f"note: the {side} run was flagged noisy (load > nproc)")
    if base["record"].get("seed") == new["record"].get("seed"):
        changed = changed_layer_counts(base, new)
        print(f"exact per-layer metrics changed: {len(changed)}")
        for name, key, b, n in changed:
            print(f"  {name:15s} {key:36s} {b!r} -> {n!r}")
    print("compare:", "OK" if ok else "REGRESSION")
    return 0 if ok else 1
