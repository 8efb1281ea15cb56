"""Self-check that the benchmark's layer map holds.

A benchmark-side wrapper sleeps before every
``ShardedBatchExecutor.eval_leaves`` call (``run.py
--inject-eval-delay-ms``; no option of the program is involved).  The
executor does the work of ``cold-2d`` and is bypassed by ``warm-1d``, so
the delay must move ``cold-2d``'s ``latency_p50_ms`` beyond that metric's
bound in ``BENCHMARK.json`` and leave ``warm-1d``'s within it.

Run from the repository root, either way::

    python3 perfbench/check_layer_map.py
    python3 -m pytest perfbench/check_layer_map.py

It makes four short benchmark runs (about a minute and a half on two
cores).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DELAY_MS = 20.0
SECONDS = 4
SEED = 7
METRIC = "latency_p50_ms"


def bound() -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)


def p50(workload: str, delay_ms: float) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0",
         "--inject-eval-delay-ms", str(delay_ms)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    return result["metrics"][METRIC]["value"]


def shifts() -> dict:
    """Relative change of the p50 under the delay, per workload."""
    return {
        w: p50(w, DELAY_MS) / p50(w, 0.0) - 1.0 for w in ("cold-2d", "warm-1d")
    }


def test_eval_delay_moves_cold_2d_only() -> None:
    limit = bound()
    moved = shifts()
    assert moved["cold-2d"] > limit, moved
    assert moved["warm-1d"] <= limit, moved


if __name__ == "__main__":
    limit = bound()
    moved = shifts()
    for name, shift in moved.items():
        print(f"{name:8s} {METRIC} moved {shift:+.1%} (bound {limit:.0%})")
    ok = moved["cold-2d"] > limit and moved["warm-1d"] <= limit
    print("layer map holds" if ok else "layer map VIOLATED")
    sys.exit(0 if ok else 1)
