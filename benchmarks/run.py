"""Benchmark for the robinson toolkit.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from the repository root; the library is imported from `src/`.  One
process, no threads, closed loop: the next call starts when the previous
one has returned.  A run builds the workload's inputs from the seed (set-up,
repeated SETUP_REPEATS times), then makes passes over the fixed instance
list until `--seconds` have elapsed, checking every answer.

End-to-end metrics, on the last line of stdout with `--trace 0`:
  setup_s       imports plus the median input build
  wall_s        one pass: the sum over instances of each one's fastest call
  solve_ms_p50  median over instances of each one's fastest call
  solve_ms_p90  90th percentile of the same
  peak_rss_mb   peak resident memory after set-up and the first pass
  ok_frac       calls whose answer passed its check, over calls attempted
Times are scaled to a reference host speed (see host_probe).

With `--trace 1` passes alternate between untraced and traced, and the last
line carries the per-layer metrics (see `tracer.py`); the spans are written
to `benchmarks/out/`.  `--workload all` runs every workload in a fresh
process.  The exit code is non-zero when any answer is wrong.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
# Fastest time of host_probe() on the host the benchmark was calibrated on
# (2-vCPU Intel Xeon sandbox, Python 3.11).  See host_probe().
HOST_REFERENCE_S = 0.0150
WORKLOAD_NAMES = ("recognize-large", "recognize-small", "orient-tree", "orient-cli")


def _import_library() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import robinson
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import robinson from {src}: {exc}")
    if Path(robinson.__file__).resolve().parent != src / "robinson":
        sys.exit(f"benchmark: robinson was imported from {robinson.__file__}, not from {src}")


class Runner:
    """Timed passes over one workload's instances, with answer checks."""

    def __init__(self, workload, instances, recorder=None):
        self.wl = workload
        self.instances = instances
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self._verified: dict[int, object] = {}

    def _ok(self, i: int, result) -> bool:
        key = self.wl.key(result)
        if i in self._verified and self._verified[i] == key:
            return True
        try:
            ok = bool(self.wl.check(self.instances[i], result))
        except Exception as exc:  # a malformed answer is a failed answer
            print(f"check of {self.instances[i].label} raised {exc!r}", file=sys.stderr)
            ok = False
        if ok:
            self._verified[i] = key
        return ok

    def one_pass(self, traced: bool) -> list[float]:
        """Seconds per call, in instance order."""
        rec = self.recorder if traced else None
        times = []
        for i, inst in enumerate(self.instances):
            if rec is not None:
                rec.instance = i
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = self.wl.call(inst)
            except Exception as exc:
                times.append(time.perf_counter() - start)
                print(f"{inst.label}: call raised {exc!r}", file=sys.stderr)
                self.failed += 1
                continue
            times.append(time.perf_counter() - start)
            if not self._ok(i, result):
                print(f"{inst.label}: wrong answer", file=sys.stderr)
                self.failed += 1
        return times


def host_probe() -> float:
    """Seconds for a fixed pure-Python job (tuples, dicts, sorting) that no
    change to the library can move.

    The benchmark runs on shared hosts whose speed drifts by up to 2x for
    tens of seconds at a time while neighbours load the machine.  The fastest
    probe of a run measures how fast the host ran, and every time the run
    reports is scaled by HOST_REFERENCE_S / that probe time.
    """
    start = time.perf_counter()
    table: dict = {}
    for i in range(15000):
        key = (i % 97, i // 97)
        table[key] = table.get(key, 0) + i * i % 7
    order = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    if len(order) != 15000:
        raise AssertionError("host probe miscounted")
    return time.perf_counter() - start


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    _import_library()
    import tracer
    import workloads

    import_s = time.perf_counter() - _START
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        builds = []
        instances = None
        for _ in range(SETUP_REPEATS):
            instances = None  # drop the previous build before timing the next
            gc.collect()
            start = time.perf_counter()
            instances = wl.setup(args.seed, workdir)
            builds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(builds)

        rec = tracer.Recorder(workloads.API) if args.trace else None
        runner = Runner(wl, instances, rec)
        deadline = time.perf_counter() + args.seconds
        # per pass: seconds per call (and, traced, layer times per call)
        plain, traced = [runner.one_pass(False)], []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before any probe
        probes = []
        while len(plain) + len(traced) < 3 or time.perf_counter() < deadline:
            gc.collect()
            probes.append(host_probe())
            if args.trace and len(plain) > len(traced):
                rec.pass_no, rec.counts, first = len(plain) + len(traced), Counter(), len(rec.spans)
                rec.install()
                try:
                    times = runner.one_pass(True)
                finally:
                    rec.remove()
                traced.append((times, rec.instance_layers(first)))
            else:
                plain.append(runner.one_pass(False))

        # Each instance's fastest call is the steady estimate of its cost
        # (slower calls measure the neighbours), a pass is the sum of those,
        # and all times are scaled to the reference host speed.
        scale = HOST_REFERENCE_S / min(probes)
        n = len(instances)
        best_s = [scale * min(times[i] for times in plain) for i in range(n)]
        print(f"host speed: fastest of {len(probes)} probes {min(probes) * 1000:.3f} ms against "
              f"{HOST_REFERENCE_S * 1000:.3f} ms reference; times are scaled by {scale:.4f}")
        if args.trace:
            layers, traced_s = Counter(), 0.0
            for i in range(n):
                times, by_instance = min(traced, key=lambda t: t[0][i])
                traced_s += scale * times[i]
                layers.update({k: scale * v for k, v in by_instance.get(i, Counter()).items()})
            metrics = {m: _metric(v, "ratio" if m == "c1p.reduce_share" else "s")
                       for m, v in tracer.with_share(layers).items()}
            counts = rec.counts + Counter(wl.input_counters(instances))
            for name in tracer.COUNTERS:
                metrics[name] = _metric(counts[name], "bytes" if name == "fileio.bytes_read" else "count")
            metrics["trace.overhead_s"] = _metric(traced_s - sum(best_s), "s")
            spans_file = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
            rec.write(spans_file)
            notes = {
                "c1p.reduce_share": f"base recognition.recognize_s = "
                f"{metrics['recognition.recognize_s']['value']:.6g} s",
                "trace.overhead_s": f"{len(traced)} traced vs {len(plain)} untraced passes",
            }
            print(f"layer times: each instance's fastest traced call, summed; spans: {spans_file}")
            for key in sorted(k for k in layers if k.startswith(tracer.SELF)):
                print(f"  {key:40s} {layers[key]:>10.6f} s")
        else:
            best_ms = [t * 1000.0 for t in best_s]
            metrics = {
                "setup_s": _metric(scale * setup_s, "s"),
                "wall_s": _metric(sum(best_s), "s"),
                "solve_ms_p50": _metric(statistics.median(best_ms), "ms"),
                "solve_ms_p90": _metric(statistics.quantiles(best_ms, n=10, method="inclusive")[-1], "ms"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
                "ok_frac": _metric((runner.attempted - runner.failed) / runner.attempted, "ratio"),
            }
            calls = f"over {n} instances, each its fastest of {len(plain)} calls"
            notes = {
                "setup_s": f"imports {import_s:.3f} s + median of {SETUP_REPEATS} input builds",
                "wall_s": f"sum over {n} instances of the fastest of {len(plain)} calls",
                "solve_ms_p50": calls,
                "solve_ms_p90": calls,
                "peak_rss_mb": "after set-up and the first pass",
            }
            by_label: dict[str, list[float]] = {}
            for inst, ms in zip(instances, best_ms):
                by_label.setdefault(inst.label, []).append(ms)
            print("fastest call per instance label (median over instances with that label):")
            for label, values in by_label.items():
                print(f"  {label:32s} {statistics.median(values):>14.6g} ms  ({len(values)} instances)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
          f"{runner.attempted} calls, {runner.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main() -> int:
    # a terminated run still removes its input files (the finally clauses)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
