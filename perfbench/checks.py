"""Output checks: invariants that hold for any seed, and the comparison
against stored reference summaries for the default seed.

Every check returns a list of failure messages; an empty list passes.
"""
from __future__ import annotations

import math

ABS_SUM_TOL = 1e-9  # exact + nodecision + wrong must be 100 within this
REL_TOL = 1e-9  # float summaries against the reference

# Summary keys that are shares of a count: each may move by one unit of
# that count (one origin, one path), so that an ulp-level change which
# flips a single borderline origin is not counted as a failure.
SHARE_KEYS = {
    "exact_pct": (100.0, "origins"),
    "nodecision_pct": (100.0, "origins"),
    "wrong_pct": (100.0, "origins"),
    "coverage": (1.0, "origins"),
    "above_pct": (100.0, "origins"),
    "under_pct": (100.0, "origins"),
    "no_decision_pct": (100.0, "origins"),
    "p_hat": (1.0, "paths"),
}


def parse_kv(text: str) -> dict[str, str]:
    """key=value lines as a dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        out[key] = value
    return out


def check_backtest(results: dict[int, dict], n: int, t_min: int) -> list[str]:
    """Invariants of per-horizon backtest results (keys as in the .kv file)."""
    errors = []
    for h, r in results.items():
        total = r["exact_pct"] + r["nodecision_pct"] + r["wrong_pct"]
        if not abs(total - 100.0) <= ABS_SUM_TOL:
            errors.append(f"h{h}: exact+nodecision+wrong = {total!r}, not 100")
        want = n - h - t_min - r["skipped"]
        if r["origins"] != want:
            errors.append(f"h{h}: origins {r['origins']} != n - h - t_min - skipped = {want}")
        if not 0.0 <= r["coverage"] <= 1.0:
            errors.append(f"h{h}: coverage {r['coverage']!r} outside [0, 1]")
    return errors


def backtest_from_kv(kv: dict[str, str]) -> dict[int, dict]:
    """Per-horizon results parsed from a structured backtest report."""
    results: dict[int, dict] = {}
    for key, value in kv.items():
        head, dot, field = key.partition(".")
        if not dot or not head.startswith("h"):
            continue
        parsed = int(value) if field in ("origins", "skipped") else float(value)
        results.setdefault(int(head[1:]), {})[field] = parsed
    return results


def backtest_from_report(report) -> dict[int, dict]:
    """Per-horizon results of a BacktestReport, keyed like the .kv file."""
    return {
        r.horizon: {
            "exact_pct": r.exact_pct, "nodecision_pct": r.nodecision_pct,
            "wrong_pct": r.wrong_pct, "rmse": r.rmse, "coverage": r.coverage,
            "het_ratio": r.het_ratio, "origins": r.origins, "skipped": r.skipped,
        }
        for r in report.results
    }


def check_verdict(score: float, threshold: float, verdict: str) -> list[str]:
    want = "quickly_fluctuating" if score <= threshold else "not_quickly_fluctuating"
    if verdict != want:
        return [f"verdict {verdict!r} disagrees with score {score!r} vs threshold {threshold!r}"]
    return []


def check_reconstruction(prices, trend, fluctuation) -> list[str]:
    """trend + fluctuation gives back the source within one ulp."""
    if not (len(prices) == len(trend) == len(fluctuation)):
        return [f"length mismatch: {len(prices)} prices, {len(trend)} trend, "
                f"{len(fluctuation)} fluctuation"]
    bad = sum(
        1 for p, t, f in zip(prices, trend, fluctuation)
        if not abs((t + f) - p) <= math.ulp(p)
    )
    return [f"trend + fluctuation misses the source on {bad} rows"] if bad else []


def check_gbm(p_hat: float, stderr: float, paths: int, sigma: float) -> list[str]:
    errors = []
    if not 0.0 <= p_hat <= 1.0:
        errors.append(f"p_hat {p_hat!r} outside [0, 1]")
    if sigma == 0.0 and p_hat != 0.0:
        errors.append(f"sigma = 0 control gave p_hat {p_hat!r}, not 0")
    want = math.sqrt(p_hat * (1.0 - p_hat) / paths)
    if not abs(stderr - want) <= REL_TOL * max(want, 1e-300):
        errors.append(f"stderr {stderr!r} != sqrt(p(1-p)/paths) = {want!r}")
    return errors


def compare(got, want, path: str = "") -> list[str]:
    """Differences between a summary and its reference.

    Integers, strings and booleans must match exactly; share keys within
    one unit of their sibling count; other floats within REL_TOL relative.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or '/'}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= reference {sorted(want)}"]
        errors = []
        for key in want:
            sub = f"{path}/{key}"
            if key in SHARE_KEYS and isinstance(want[key], float):
                scale, count_key = SHARE_KEYS[key]
                tol = scale / want[count_key] + 1e-12
                if not abs(got[key] - want[key]) <= tol:
                    errors.append(f"{sub}: {got[key]!r} != reference {want[key]!r} (tol {tol:.3g})")
            else:
                errors += compare(got[key], want[key], sub)
        return errors
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != reference {want!r}"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in compare(g, w, f"{path}/{i}")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return [f"{path}: {got!r} != reference {want!r}"]
        return []
    if got != want or type(got) is not type(want):
        return [f"{path}: {got!r} != reference {want!r}"]
    return []
