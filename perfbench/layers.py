"""Per-layer metrics of a traced run, computed from its spans.

Each metric names its home workload: the one on which it should move the
end-to-end figure (README "Per-layer metrics").  A metric whose entry point
could not be wrapped is left out; so is one whose spans are absent on its
home workload, where the program should have called the entry point; a
rename or a bypass therefore shows as a missing metric, never as zero.  On
the other workloads a layer that was not exercised reads 0: zero calls,
zero seconds.  The CLI figures come from probes run once per traced run on
every workload.
"""

from __future__ import annotations

from collections import defaultdict

from ledger import median
from tracing import ancestor_attr, self_seconds
from wl_exact import GRID_N, GRID_SPREAD, REDUCE_M, SOLVE_N, SOLVERS

CLI_SUBS = ("stats", "bounds-beta", "bounds-alpha", "mismatch", "reduce",
            "simulate", "example1", "example3", "tails")
ESTIMATORS = ("simulate.estimate_error_probs", "simulate.example3_experiment",
              "simulate.lemma1_check")
TEST_KINDS = (("np", "mc-draw"), ("bayes", "mc-stat"), ("glrt", "mc-stat"))
LAYER_HOMES = (("simulate", "mc-draw"), ("model", "mc-stat"),
               ("exponents", "exact"), ("tails", "exact"), ("reduction", "exact"))


def names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    return [name for name, *_ in _table({}, {}, {}, {}, 0.0)]


def compute(workload: str, spans, missing: set, probe: dict,
            overhead_s: float) -> dict:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}
    out = {}
    for name, home, sources, present, value in _table(
            by_name, by_id, self_seconds(spans), probe, overhead_s):
        if any(src in missing for src in sources):
            continue
        if home == workload and not present:
            continue
        out[name] = value if present else 0.0
    return out


def _table(by_name, by_id, selfs, probe, overhead_s):
    """Rows of (name, home workload, wrapped span names, has data, value)."""
    # Calls made by a fault operation count only in their oracle cell.
    clean = {name: [s for s in ss if ancestor_attr(s, by_id, "fault") is None]
             for name, ss in by_name.items()}
    spans = lambda name: clean.get(name, [])  # noqa: E731
    secs = lambda ss: sum(s.seconds for s in ss)  # noqa: E731
    rows = []

    handler = probe.get("handler_ms", {})
    for key in ("interp_s", "import_s", "import_scipy_s"):
        rows.append((f"cli.{key}", "cli-cold", (), key in probe, probe.get(key, 0.0)))
    for sub in CLI_SUBS:
        rows.append((f"cli.handler_ms.{sub}", "cli-cold", (), sub in handler,
                     handler.get(sub, 0.0)))
    calls = [s for s in spans("bench.cli") if "fault" not in s.attrs]
    rows.append(("cli.call_s", "cli-cold", (), bool(calls),
                 median(s.seconds for s in calls)))

    draws = spans("simulate.draw")
    draw_s = secs(draws)
    n_draws = sum(s.attrs.get("draws", 0) for s in draws)
    estimators = [s for e in ESTIMATORS for s in spans(e)]
    est_s = secs(estimators)
    src = ("simulate.shard_stream",)
    rows += [
        ("simulate.draw_s", "mc-draw", src, bool(draws), draw_s),
        ("simulate.draws", "mc-draw", src, bool(draws), n_draws),
        ("simulate.draws_per_s", "mc-draw", src, bool(draws),
         n_draws / draw_s if draw_s else 0.0),
        ("simulate.draw_share", "mc-draw", src, bool(draws),
         draw_s / est_s if est_s else 0.0),
        ("simulate.shards", "mc-draw", src, bool(spans(src[0])), len(spans(src[0]))),
        ("simulate.mc_self_s", "mc-draw", ESTIMATORS, bool(estimators),
         sum(selfs[s.id] for s in estimators)),
    ]

    for kind, home in TEST_KINDS:
        acc = spans(f"model.accepts.{kind}")
        acc_s = secs(acc)
        scores = sum(s.attrs["rows"] * s.attrs["cands"] for s in acc)
        src = (f"model.accepts.{kind}",)
        rows += [
            (f"model.accepts_s.{kind}", home, src, bool(acc), acc_s),
            (f"model.accepts_rows.{kind}", home, src, bool(acc),
             sum(s.attrs["rows"] for s in acc)),
            (f"model.scores_per_s.{kind}", home, src, bool(acc),
             scores / acc_s if acc_s else 0.0),
        ]
    tests = spans("simulate.estimate_error_probs")
    acc_all = [s for k, _ in TEST_KINDS for s in spans(f"model.accepts.{k}")]
    rows.append(("model.accepts_share", "mc-stat",
                 ("simulate.estimate_error_probs",) + tuple(
                     f"model.accepts.{k}" for k, _ in TEST_KINDS),
                 bool(acc_all), secs(acc_all) / secs(tests) if tests else 0.0))

    cdf = by_name.get("simulate.weighted_chi2_cdf", [])
    per_cell = defaultdict(list)
    for s in cdf:
        per_cell[ancestor_attr(s, by_id, "cell")].append(s.seconds * 1e3)
    for n in GRID_N:
        for label, _ in GRID_SPREAD:
            cell = f"n{n}.spread{label}"
            rows.append((f"simulate.oracle_ms.{cell}", "exact",
                         ("simulate.weighted_chi2_cdf",), bool(per_cell[cell]),
                         median(per_cell[cell])))
    rows.append(("simulate.oracle_calls", "exact", ("simulate.weighted_chi2_cdf",),
                 bool(cdf), len(cdf)))

    for fn in SOLVERS:
        calls = spans(f"exponents.{fn}")
        for n in SOLVE_N:
            mine = [s for s in calls if s.attrs.get("n") == n]
            src = (f"exponents.{fn}",)
            rows += [
                (f"exponents.solve_us.{fn}.n{n}", "exact", src, bool(mine),
                 median(s.seconds * 1e6 for s in mine)),
                (f"exponents.iterations.{fn}.n{n}", "exact", src, bool(mine),
                 median(s.attrs["iterations"] for s in mine)),
            ]

    tails = spans("tails.call")
    rows.append(("tails.call_us", "exact", ("tails.call",), bool(tails),
                 median(s.seconds * 1e6 for s in tails)))
    red = spans("reduction.reduce_to_minimal")
    src = ("reduction.reduce_to_minimal",)
    for m in REDUCE_M:
        mine = [s.seconds * 1e3 for s in red if s.attrs["m"] == m]
        rows.append((f"reduction.reduce_ms.m{m}", "exact", src, bool(mine),
                     median(mine)))
    rows.append(("reduction.points_per_s", "exact", src, bool(red),
                 sum(s.attrs["m"] for s in red) / secs(red) if red else 0.0))

    for layer, home in LAYER_HOMES:
        mine = [s for name, ss in clean.items() if name.startswith(layer + ".")
                for s in ss]
        rows.append((f"{layer}.self_s", home, (), bool(mine),
                     sum(selfs[s.id] for s in mine)))

    rows.append(("trace.overhead_s", None, (), True, overhead_s))
    return rows



_COUNTS = ("draws", "shards", "rows", "calls", "iterations")


def unit(name: str) -> str:
    """The unit a per-layer metric's name spells out."""
    for part in name.split("."):
        if part.endswith("_per_s"):
            return "1/s"
        if part.endswith("share"):
            return "ratio"
        for suffix, u in (("_ms", "ms"), ("_us", "us"), ("_s", "s")):
            if part.endswith(suffix):
                return u
        if part.endswith(_COUNTS):
            return "count"
    raise ValueError(f"no unit for {name}")
