"""Tiny-scale self-test of the benchmark.

    python3 bench/selftest.py

Run from the root of a source tree.  Checks that the plain-Python input
generators agree with the library, then runs every workload once with
each --trace value at the shortest length (one round) and checks that the
last line of output has exactly the keys correct, attempted, failed and
metrics, and that every metric BENCHMARK.json names is printed, as a
number, with its unit.  Takes about a minute; prints one line per run.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def check_generators() -> None:
    from houghton.construct import gcd_test
    from houghton.elem import make_s, parse_element
    from houghton.perm import FinPerm

    rng = random.Random(0)
    for i in range(40):
        bound = rng.randint(3, 12)
        omega = gen.scrambled(rng, bound) if i % 2 else gen.sparse_scrambled(rng, bound, 5)
        c = rng.choice((1, -1, 2))
        s = parse_element(gen.elem_text(*gen.relabelled_translation(omega, c)))
        assert s == make_s(FinPerm(omega), c), "relabelled_translation disagrees with make_s"
        if abs(c) == 1:
            pts = rng.sample(range(-bound, bound + 1), 3)
            verdict = gcd_test(FinPerm.cycle(*pts), s).verdict
            assert verdict == gen.gcd_verdict(omega, pts), "gcd_verdict disagrees with gcd_test"
        p, shift = gen.rand_member(rng, (-2, 0, 2))
        g = parse_element(gen.elem_text(p, shift))
        assert g.fin == FinPerm(p) and g.shift == shift and g.fin.is_even()
    print("generators agree with the library")


def check_run(spec: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", "1", "--seconds", "0.001", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert result["attempted"] >= 1 and result["correct"] is True, result
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in wanted), sorted(metrics)
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    print("%s --trace %d: %d metrics with units, %d requests, %d failed"
          % (workload, trace, len(metrics), result["attempted"], result["failed"]))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_generators()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
