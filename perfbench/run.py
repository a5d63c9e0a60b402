"""Benchmark of the gaudin-potentials command-line verifier.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source checkout.  A single closed-loop client
runs the workload's CLI invocations (see workloads.py) one at a time,
each in a fresh interpreter, timed from outside, so every invocation
starts with the package's caches cold, as a CLI user's does.  Passes
over the invocation list repeat for about T seconds: one whole pass, then
each further invocation while it brings the measured time closer to T,
so the last pass may stop part-way.  Pass p gives `verify` the seed S+p,
so a run's medians span several random points.  Before each invocation
a fresh interpreter runs reference.py, a fixed computation that does not
touch the package, to measure the host's speed at that moment.
Every output is checked: verify reports must pass with the pinned case
counts and be identical across passes apart from `elapsed_s`; exports
must match a pinned sha256 and an independent evaluation (oracle.py).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones.  `setup_s` and `wall_s` (the sum over invocations of
each one's median wall time) are scaled to a fixed host speed: times
REFERENCE_S over the median time of reference.py in the same run.  On a
shared host the speed drifts by a quarter over minutes; the scaled times
do not.  With --trace 1 the same untraced passes run first, then one
pass in which each invocation runs under trace_cli.py; the metrics are
then the per-layer ones, with times unscaled.  A line before the result
records the machine, the raw samples and unscaled times and, when
traced, the problem sizes per (n, k).

Exits with status 2, printing no result, when the checkout holds no
package source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from math import comb, factorial
from pathlib import Path

import oracle
from trace_cli import BOOKKEEPING, read_spans, summarize
from workloads import ALL_CHECKS, PINNED_CASES, PINNED_EXPORT_SHA256, WORKLOADS, Invocation

HERE = Path(__file__).resolve().parent
# Interpreter start-ups timed before every pass and after the last one,
# so the set-up median samples the whole run rather than its first second.
SETUP_SAMPLES = 5
# Median wall time of reference.py on the host the benchmark was set up
# on (2 vCPUs of a Xeon at 2.1 GHz, Python 3.11).  End-to-end times are
# reported at that host speed.
REFERENCE_S = 0.12
INVOCATION_TIMEOUT_S = 90.0
# Stop starting new passes this long after the run began, and kill an
# invocation that would run past RUN_DEADLINE_S, so a run ends well
# within its time limit even on a stalled host.
RUN_DEADLINE_S = 160.0

# Trace span name -> per-layer metric prefix, and whether `_calls` is reported.
LAYER_METRICS = {
    "weight_space.sl2": True,
    "weight_space.vector_ops": True,
    "weight_space.shapovalov": True,
    "projection.project": True,
    "projection.oracle": True,
    "operators.hamiltonian_apply": True,
    "operators.hamiltonian_matrix": False,
    "operators.basis_action": True,
    "operators.pairing": True,
    "symbolic.poly_add": True,
    "symbolic.poly_mul": True,
    "symbolic.differentiate": True,
    "symbolic.reduced": True,
    "symbolic.expr_equal": True,
    "symbolic.evaluate": True,
    "symbolic.dumps": False,
    "potentials.build_P": False,
    "potentials.build_Q": False,
    "symbolic.derivative": False,
    "potentials.multisets": True,
}

# Trace counters that are sizes (largest value kept) rather than work (summed).
MAXIMA = ("P_terms", "Q_terms", "max_coeff_bits")


class Failure(Exception):
    """An invocation whose output is missing or wrong."""


def package_present(root: Path) -> bool:
    return (root / "src" / "gaudin_potentials" / "cli.py").is_file()


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Launches child interpreters one at a time and times them from outside."""

    def __init__(self, root: Path, workdir: Path, started: float) -> None:
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.started = started

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def launch(self, argv: list[str], stderr_path: Path) -> dict:
        """Run argv to completion; returns wall, cpu, rss and exit code."""
        timeout = min(INVOCATION_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            return {"wall_s": 0.0, "cpu_s": 0.0, "rss_kb": 0, "exit": None, "timed_out": True}
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timed_out = threading.Event()

            def kill() -> None:
                timed_out.set()
                proc.send_signal(signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # interrupted: leave no child running
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "exit": proc.returncode,
            "timed_out": timed_out.is_set(),
        }

    def reference_time(self) -> float:
        """Wall time of a fresh interpreter running reference.py."""
        rec = self.launch([sys.executable, str(HERE / "reference.py")], self.workdir / "reference.err")
        if rec["exit"] != 0:
            raise RuntimeError(f"reference.py did not finish cleanly: {rec}")
        return rec["wall_s"]

    def setup_times(self, count: int) -> list[float]:
        """Wall time of fresh interpreters that import the CLI and stop."""
        argv = [sys.executable, "-c", "import gaudin_potentials.cli"]
        return [self.launch(argv, self.workdir / "setup.err")["wall_s"] for _ in range(count)]


def stripped_report_hash(report: dict) -> str:
    checks = [{k: v for k, v in chk.items() if k != "elapsed_s"} for chk in report.get("checks", [])]
    return hashlib.sha256(json.dumps({**report, "checks": checks}, sort_keys=True).encode()).hexdigest()


class Checker:
    """Correctness gate for every invocation's output."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.report_hash: dict[Invocation, str] = {}
        self.export_terms: dict[Invocation, int] = {}  # filled once the oracle has passed

    def check(self, inv: Invocation, out_path: Path) -> None:
        if not out_path.is_file():
            raise Failure("no output written")
        if inv.check:
            self._check_verify(inv, json.loads(out_path.read_text(encoding="utf-8")))
        else:
            self._check_export(inv, out_path.read_bytes())

    def _check_verify(self, inv: Invocation, report: dict) -> None:
        checks = report.get("checks") or []
        if (report.get("n"), report.get("k")) != (inv.n, inv.k) or len(checks) != 1:
            raise Failure("report does not describe the requested run")
        chk = checks[0]
        if chk.get("name") != inv.check or chk.get("status") != "pass" or chk.get("first_failure") is not None:
            raise Failure(f"check did not pass: {json.dumps(chk)[:300]}")
        expected = PINNED_CASES[(inv.n, inv.k, inv.check)]
        if chk.get("cases_checked") != expected:
            raise Failure(f"cases_checked {chk.get('cases_checked')} != pinned {expected}")
        digest = stripped_report_hash(report)
        if self.report_hash.setdefault(inv, digest) != digest:
            raise Failure("report differs from an earlier pass apart from elapsed_s")

    def _check_export(self, inv: Invocation, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        expected = PINNED_EXPORT_SHA256[(inv.n, inv.k, inv.kind)]
        if digest != expected:
            raise Failure(f"export sha256 {digest} != pinned {expected}")
        if inv not in self.export_terms:
            text = data.decode("utf-8")
            reason = oracle.check_export(inv.kind, inv.n, inv.k, text, self.seed)
            if reason:
                raise Failure(reason)
            self.export_terms[inv] = oracle.count_terms(text)


def run_invocation(runner: Runner, checker: Checker, inv: Invocation, seed: int,
                   tag: str, trace_path: Path | None) -> dict:
    out = runner.workdir / f"{tag}.out"
    out.unlink(missing_ok=True)
    cli_args = inv.cli_args(seed, str(out))
    if trace_path is None:
        argv = [sys.executable, "-m", "gaudin_potentials", *cli_args]
    else:
        argv = [sys.executable, str(HERE / "trace_cli.py"), str(trace_path), "--", *cli_args]
    rec = runner.launch(argv, runner.workdir / f"{tag}.err")
    rec["label"] = inv.label
    try:
        if rec["timed_out"]:
            raise Failure("timed out")
        if rec["exit"] != 0:
            err = (runner.workdir / f"{tag}.err").read_text(errors="replace")[-300:]
            raise Failure(f"exit status {rec['exit']}: {err}")
        checker.check(inv, out)
        rec["ok"] = True
    except (Failure, ValueError, OSError) as exc:
        rec["ok"] = False
        rec["reason"] = f"{type(exc).__name__}: {exc}" if not isinstance(exc, Failure) else str(exc)
    return rec


def run_passes(runner: Runner, checker: Checker, invocations, seed: int, seconds: float,
               setup: list[float], reference: list[float]) -> list[list[dict]]:
    """Untraced passes: one whole pass, then each further invocation while
    it brings the measured time closer to `seconds`, judged by its first
    wall time.  Set-up samples are appended to `setup` before every pass
    and after the last."""
    passes: list[list[dict]] = []
    measured = 0.0
    while True:
        setup += runner.setup_times(SETUP_SAMPLES)
        records: list[dict] = []
        passes.append(records)
        for i, inv in enumerate(invocations):
            if len(passes) > 1:
                expected = passes[0][i]["wall_s"]
                if measured + expected / 2 > seconds or expected > runner.remaining():
                    break
            reference.append(runner.reference_time())
            rec = run_invocation(runner, checker, inv, seed + len(passes) - 1,
                                 f"p{len(passes) - 1}-{i}", None)
            records.append(rec)
            measured += rec["wall_s"]
            if rec["timed_out"]:
                break
        if len(records) < len(invocations):
            break
    if not passes[-1]:
        passes.pop()
    setup += runner.setup_times(SETUP_SAMPLES)
    return passes


def load_trace(path: Path) -> dict:
    """A traced invocation's counters plus its spans reduced per layer."""
    trace = json.loads(path.read_text(encoding="utf-8"))
    layers = summarize(trace["names"], read_spans(f"{path}.spans", trace["spans"]))
    layers.pop(BOOKKEEPING, None)
    trace["layers"] = layers
    return trace


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def invocation_walls(passes: list[list[dict]], i: int) -> list[float]:
    """Wall times of invocation i over the passes that reached it."""
    return [p[i]["wall_s"] for p in passes if i < len(p)]


def per_invocation_medians(invocations, passes) -> list[float]:
    return [median_of(invocation_walls(passes, i)) for i in range(len(invocations))]


def end_to_end(invocations, passes: list[list[dict]], setup: list[float],
               reference: list[float]) -> dict[str, tuple[float, str]]:
    scale = REFERENCE_S / median_of(reference)
    return {
        "setup_s": (median_of(setup) * scale, "s"),
        "wall_s": (sum(per_invocation_medians(invocations, passes)) * scale, "s"),
        "peak_rss_mb": (max((r["rss_kb"] for p in passes for r in p), default=0) / 1024, "MB"),
    }


def alpha_count(n: int, k: int) -> int:
    return factorial(n) // (2**k * factorial(n - 2 * k))


def per_layer(invocations, passes, traced: list[dict], traces: list[dict | None],
              checker: Checker) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics from the traced pass, plus untraced per-check walls."""
    metrics: dict[str, tuple[float, str]] = {}
    walls = per_invocation_medians(invocations, passes)
    check_wall = {c: 0.0 for c in ALL_CHECKS}
    export_wall = {"P": 0.0, "Q": 0.0}
    cases = 0
    for inv, wall in zip(invocations, walls):
        if inv.check:
            check_wall[inv.check] += wall
            cases += PINNED_CASES[(inv.n, inv.k, inv.check)]
        else:
            export_wall[inv.kind] += wall
    for c in ALL_CHECKS:
        metrics[f"check_s.{c}"] = (check_wall[c], "s")
    for kind in ("P", "Q"):
        metrics[f"export_s.{kind}"] = (export_wall[kind], "s")
    verify_wall = sum(check_wall.values())
    export_total = sum(export_wall.values())
    metrics["cases_per_s"] = (cases / verify_wall if verify_wall else 0.0, "1/s")
    terms = sum(checker.export_terms.values())
    metrics["terms_per_s"] = (terms / export_total if export_total else 0.0, "1/s")

    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    sizes: dict[str, dict[str, int]] = {}
    import_times = []
    for inv, trace in zip(invocations, traces):
        if trace is None:
            continue
        import_times.append(trace["import_s"])
        for name, agg in trace["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
        got = trace["counters"]
        for key, value in got.items():
            counters[key] = max(counters.get(key, 0), value) if key in MAXIMA else counters.get(key, 0) + value
        size = sizes.setdefault(f"{inv.n},{inv.k}", {
            "C(n,k)": comb(inv.n, inv.k), "C(n,k-1)": comb(inv.n, inv.k - 1),
            "pair_sequences": alpha_count(inv.n, inv.k), "multisets": 0, "P_terms": 0, "Q_terms": 0,
            "derivative_cache_entries": 0, "max_coeff_bits": 0})
        for key in ("multisets", "derivative_cache_entries"):
            size[key] += got.get(key, 0)
        for key in MAXIMA:
            size[key] = max(size[key], got.get(key, 0))

    def layer(name: str) -> dict[str, float]:
        return layers.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    for name, with_calls in LAYER_METRICS.items():
        if with_calls:
            metrics[f"{name}_calls"] = (layer(name)["calls"], "count")
        metrics[f"{name}_self_s"] = (layer(name)["self_s"], "s")
    requests = counters.get("derivative_requests", 0)
    metrics["symbolic.derivative_requests"] = (requests, "count")
    metrics["symbolic.derivative_cache_entries"] = (counters.get("derivative_cache_entries", 0), "count")
    metrics["symbolic.derivative_cache_hit_ratio"] = (
        counters.get("derivative_hits", 0) / requests if requests else 0.0, "ratio")
    metrics["symbolic.dumps_bytes"] = (counters.get("dumps_bytes", 0), "bytes")
    for kind in ("P", "Q"):
        metrics[f"potentials.build_{kind}_total_s"] = (layer(f"potentials.build_{kind}")["total_s"], "s")
    metrics["potentials.multisets"] = (counters.get("multisets", 0), "count")
    metrics["potentials.pair_sequences"] = (max(alpha_count(i.n, i.k) for i in invocations), "count")
    metrics["potentials.P_terms"] = (counters.get("P_terms", 0), "count")
    metrics["potentials.Q_terms"] = (counters.get("Q_terms", 0), "count")
    metrics["potentials.max_coeff_bits"] = (counters.get("max_coeff_bits", 0), "bits")
    metrics["sizes.dim"] = (max(comb(i.n, i.k) for i in invocations), "count")
    metrics["sizes.gram_dim"] = (max(comb(i.n, i.k - 1) for i in invocations), "count")
    for c in ALL_CHECKS:
        metrics[f"checks.{c}.self_s"] = (layer(f"checks.{c}")["self_s"], "s")
    metrics["cli.self_s"] = (layer("cli")["self_s"], "s")
    metrics["cli.import_s"] = (median_of(import_times), "s")

    traced_wall = sum(r["wall_s"] for r in traced)
    untraced_wall = sum(walls)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1 if untraced_wall else 0.0, "ratio")
    metrics["trace.spans"] = (sum(t["spans"] for t in traces if t), "count")
    return metrics, sizes


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    started = time.perf_counter()
    info = {"machine": machine_info(), "workload": args.workload, "seed": args.seed}
    root = Path.cwd()
    if not package_present(root):
        print("perfbench: no src/gaudin_potentials in the current directory; "
              "run from the root of a gaudin-potentials checkout", file=sys.stderr)
        return 2
    invocations = WORKLOADS[args.workload]
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        runner = Runner(root, workdir, started)
        checker = Checker(args.seed)
        runner.setup_times(1)  # warm-up: byte-compiles the package on a fresh checkout
        setup: list[float] = []
        reference: list[float] = []
        passes = run_passes(runner, checker, invocations, args.seed, args.seconds, setup, reference)
        records = [r for p in passes for r in p]
        traced: list[dict] = []
        if args.trace:
            traces: list[dict | None] = []
            for i, inv in enumerate(invocations):
                path = workdir / f"trace-{i}.json"
                rec = run_invocation(runner, checker, inv, args.seed, f"t-{i}", path)
                traced.append(rec)
                traces.append(load_trace(path) if rec["ok"] else None)
            records += traced
            metrics, sizes = per_layer(invocations, passes, traced, traces, checker)
            info["sizes"] = sizes
        else:
            metrics = end_to_end(invocations, passes, setup, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    failures = [f"{r['label']}: {r['reason']}" for r in records if not r["ok"]]
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    info.update({
        "passes": len(passes),
        "setup_samples_s": setup,
        "reference_samples_s": reference,
        "unscaled_setup_s": median_of(setup),
        "unscaled_wall_s": sum(per_invocation_medians(invocations, passes)),
        "reference_s": median_of(reference),
        "invocations": [
            {"label": inv.label, "wall_s": invocation_walls(passes, i),
             "cpu_s": [p[i]["cpu_s"] for p in passes if i < len(p)]}
            for i, inv in enumerate(invocations)],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "failures": failures,
        "run_s": time.perf_counter() - started,
    })
    print(json.dumps({"info": info}))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
