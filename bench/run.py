"""Benchmark of the houghton library: one workload per run, one caller.

    python3 bench/run.py --workload nonalt|interactive|recheck \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree; the library is imported from its
``src`` directory.  Each workload is a closed loop: one caller sends one
request at a time and waits for the answer.  Whole rounds of the workload's
mix are sent until their summed wall time reaches --seconds.  Every output
is checked outside the timed region (see workloads.check).  Timings are
reported probe-adjusted (see Clock); the raw ones are in the run record.

With --trace 0 the end-to-end metrics are printed; with --trace 1 the
run first measures half of --seconds untraced, then replays the same
requests with per-layer wrappers installed (tracing.py) and prints the
per-layer metrics per request, plus trace.overhead, the traced replay's
adjusted time over the untraced one's, minus one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run
record: machine, Python, source hash, sample counts and failures.  A
workload's known defects (workloads.Stream.known_defects) are sent once,
untimed and outside attempted and failed; their outcomes are in the record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = HERE / "corpus.json.gz"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("nonalt", "interactive", "recheck")
SETUP_REPEATS = 9
# the probe's median time on the machine where the benchmark was defined
# (2 vCPU, Intel Xeon, CPython 3.11); timings are reported at this speed
PROBE_S = 0.00045
# the tail percentile of each workload: fixed, so that runs of different
# speed compare the same quantile; each leaves >= 10 samples beyond it
# at the rates measured when the benchmark was defined
TAIL_PERCENTILE = {"nonalt": 75, "interactive": 98, "recheck": 97}

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("cert_bytes_p50", "bytes"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

LIB_NAMES = {
    "houghton.perm": ("FinPerm",),
    "houghton.elem": ("G", "finitary", "in_class_tk", "make_s", "parse_element"),
    "houghton.certs": (
        "NegativeCertificate", "PositiveCertificate", "cert_from_json",
        "cert_to_json", "verify",
    ),
    "houghton.construct": (
        "gcd_test", "pair_partner_g1", "pair_partner_g2", "partner_nonalt",
    ),
    "houghton.bounds": (
        "defeat_set", "defeat_ten", "refute_dominating", "spread_zero_witness",
    ),
}


def import_library():
    """Import houghton afresh from SRC, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "houghton" or n.startswith("houghton.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("houghton")
    if Path(pkg.__file__).resolve().parent != SRC / "houghton":
        raise ImportError("houghton was not imported from %s" % SRC)
    for name in LIB_NAMES:
        importlib.import_module(name)


def library():
    """The entry points the benchmark calls, looked up now, so that a
    traced run sees the installed wrappers."""
    return SimpleNamespace(**{
        name: getattr(sys.modules[mod], name)
        for mod, names in LIB_NAMES.items() for name in names
    })


def probe() -> float:
    """Seconds taken by a fixed plain-Python loop of dict and set work,
    like the library's permutation arithmetic; it never calls the library.
    The collector is off so that the probe never pays for a collection."""
    gc.disable()
    start = time.perf_counter()
    for _ in range(6):
        d = {i: (i * 7919) % 211 for i in range(211)}
        inv = {v: k for k, v in d.items()}
        _ = set(d) == set(inv)
        hash(frozenset(d.items()))
        x = 0
        for _ in range(211):
            x = d.get(x, x)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Clock:
    """Times calls between two probes.

    ``raw`` is the wall time of the last call.  ``adjusted`` scales it by
    PROBE_S over the mean of the probes just before and after it: the time
    the call would take on a machine running the probe in PROBE_S.  On a
    shared host the speed of plain Python drifts by tens of percent within
    seconds, and the probes cancel most of that drift."""

    def __init__(self):
        self.raw = self.adjusted = 0.0
        self.probes: List[float] = []

    def run(self, fn, *args):
        before = probe()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.raw = time.perf_counter() - start
            after = probe()
            self.probes += [before, after]
            self.adjusted = self.raw * 2 * PROBE_S / (before + after)


def setup_once(workload: str, seed: int):
    import_library()
    stream = workloads.make_stream(workload, seed, CORPUS)
    return stream, stream.next_round()


def setup(workload: str, seed: int):
    """Import the library and build the request stream and its first
    round, several times; returns the last of them and the adjusted
    set-up times."""
    clock = Clock()
    times = []
    for _ in range(SETUP_REPEATS):
        stream, first = clock.run(setup_once, workload, seed)
        times.append(clock.adjusted)
    return stream, first, times


def measure(lib, stream, rnd, seconds: float):
    """Send whole rounds, starting with rnd and at least one, until the
    summed wall time of the requests reaches seconds."""
    clock = Clock()
    sent, raw, adjusted, sizes, failures = [], [], [], [], []
    busy = 0.0
    wrong = 0
    while True:
        for req in rnd:
            error, res, texts = None, None, ()
            try:
                res, texts = clock.run(workloads.run, lib, req)
            except Exception as exc:  # a refused request is a failure
                error = "%s: %s" % (type(exc).__name__, exc)
            busy += clock.raw
            sent.append(req)
            raw.append(clock.raw)
            adjusted.append(clock.adjusted)
            if req.kind == "recheck":
                sizes.append(len(req.args[0]))
            else:
                sizes.extend(len(t) for t in texts)
            if error is None:
                try:
                    error = workloads.check(lib, req, res, texts)
                except Exception as exc:
                    error = "check raised %s: %s" % (type(exc).__name__, exc)
                if error is not None:
                    wrong += 1
            if error is not None:
                failures.append({"request": req.describe(), "error": error[:300]})
        if busy >= seconds:
            break
        rnd = stream.next_round()
    return SimpleNamespace(
        sent=sent, raw=raw, adjusted=adjusted, sizes=sizes, failures=failures,
        wrong=wrong, busy=busy, probes=clock.probes,
    )


def send_known_defects(lib, requests):
    """Send each request once, untimed, outside the workload's counts;
    returns each one's outcome and the number of wrong outputs."""
    outcomes, wrong = [], 0
    for req in requests:
        try:
            res, texts = workloads.run(lib, req)
            error = workloads.check(lib, req, res, texts)
            outcome = "passes" if error is None else "wrong output: " + error
            wrong += error is not None
        except Exception as exc:
            outcome = "raises %s: %s" % (type(exc).__name__, exc)
        outcomes.append({"request": req.describe(), "outcome": outcome[:300]})
    return outcomes, wrong


def replay(lib, requests) -> float:
    """Send the same requests again; returns their summed adjusted time."""
    clock = Clock()
    total = 0.0
    for req in requests:
        try:
            clock.run(workloads.run, lib, req)
        except Exception:  # failures were counted in the measured pass
            pass
        total += clock.adjusted
    return total


def tail(latencies, pct: int):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "houghton").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """The checked-out commit when ROOT is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "houghton" / "__init__.py").is_file():
        print("bench: no library source at %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "recheck" and not CORPUS.is_file():
        print("bench: corpus %s is missing" % CORPUS, file=sys.stderr)
        return 2

    stream, first, setup_runs = setup(args.workload, args.seed)
    lib = library()
    span = args.seconds / 2 if args.trace else args.seconds
    run = measure(lib, stream, first, span)
    known, known_wrong = send_known_defects(lib, stream.known_defects)
    attempted = len(run.sent)
    failed = len(run.failures)
    ok = attempted - failed
    pct = TAIL_PERCENTILE[args.workload]
    timings = {}
    for kind, lat in (("adjusted", run.adjusted), ("raw", run.raw)):
        lat_ms = [x * 1000 for x in lat]
        timings[kind] = {
            "throughput_rps": ok / sum(lat),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": tail(lat_ms, pct)[0],
        }
    timings["adjusted"]["setup_s"] = statistics.median(setup_runs)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_hash(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "samples": attempted,
        "rounds": attempted // len(stream.slots),
        "busy_s": run.busy,
        "repeats": stream.repeats,
        "tail_percentile": pct,
        "tail_samples_beyond": tail(run.raw, pct)[1],
        "fail_ratio": failed / attempted,
        "wrong_outputs": run.wrong,
        "failures": run.failures[:10],
        "known_defects": known,
        "setup_runs_s": setup_runs,
        "cert_samples": len(run.sizes),
        "probe_s": {"reference": PROBE_S, "median": statistics.median(run.probes)},
        "raw": timings["raw"],
    }

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced = replay(library(), run.sent)
        tracer.uninstall()
        totals = tracer.totals()
        metrics = {}
        for name, unit in tracing.METRICS:
            if name == "trace.overhead":
                value = traced / sum(run.adjusted) - 1
            else:
                value = totals[name] / attempted
            metrics[name] = {"value": value, "unit": unit}
        record["layer_totals"] = totals
    else:
        values = dict(
            timings["adjusted"],
            ok_ratio=ok / attempted,
            cert_bytes_p50=statistics.median(run.sizes) if run.sizes else 0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": run.wrong + known_wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
