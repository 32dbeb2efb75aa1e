"""xbool benchmark: explain/verify latency on four seeded workloads.

    python3 perfbench/run.py --workload direct --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each run

1. builds the workload's inputs from the seed, three times, and reports
   the median build time as `setup_s` (the three builds must agree byte
   for byte);
2. drives the pool as one closed-loop client for `--seconds`: each
   request is a `python -m xbool.cli explain|verify --minimal` process,
   spawned only after the previous one exited (`circuits` runs its
   compile-and-explain operations in this process instead);
   every half second, right before a request, it times a calibration
   that involves no xbool code (a bare `python -c pass` process, or for
   `circuits` a fixed loop in this process);
3. runs any pool request the timed phase did not reach, so the output
   digest always covers the whole pool;
4. checks every answer against `reference.py`, which shares no code
   with xbool.

The host's speed drifts by a quarter within seconds, so every latency
sample is rescaled by the latest calibration to a fixed reference speed:
`wall * REFERENCE_MS / calibration`.  That rescaled time is what the
end-to-end latencies and `requests_per_s` report; raw wall times are
printed alongside.

With `--trace 1` it then replays the pool in this process, once plain
and once under `tracing.Tracer`, checks that both replays print what
the processes printed, and reports per-layer metrics instead of the
end-to-end ones.  The last line of stdout is the JSON result.

`--control` injects a known fault to show that the checks catch it:
`corrupt-witness`, `flip-verdict` or `kill` (a request killed at the
wall limit).  Each must make `failed` positive.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SPANS = os.path.join(ROOT, ".perfbench_out")

# calibration times on the reference machine that latencies are rescaled
# to: a bare interpreter start-up ("cli"), CALIBRATION_LOOP here ("inprocess")
REFERENCE_MS = {"cli": 50.0, "inprocess": 6.0}
CALIBRATION_LOOP = 150_000
CALIBRATION_INTERVAL_S = 0.5
WALL_LIMIT_S = 10.0
KILL_CONTROL_LIMIT_S = 0.01
SETUP_REPEATS = 3
STARTUP_PROBES = 15
TAIL = 80  # the highest percentile a 25 s run samples ten times beyond
ROUTES = ("dt", "obdd", "branching", "product", "bruteforce")
CONTROLS = ("corrupt-witness", "flip-verdict", "kill")


def percentile(values: List[float], p: float) -> float:
    xs = sorted(values)
    at = (len(xs) - 1) * p / 100.0
    lo = int(at)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (at - lo)


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# Requests as processes


class Attempt:
    __slots__ = ("id", "wall_ms", "exit", "stdout", "stderr", "killed", "rss_kb", "slowdown")

    def __init__(self, rid, wall_ms, exit_code, stdout, stderr, killed, rss_kb):
        self.id = rid
        self.wall_ms = wall_ms
        self.exit = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.killed = killed
        self.rss_kb = rss_kb
        self.slowdown = 1.0  # latest calibration time over its reference time

    @property
    def scaled_ms(self) -> float:
        return self.wall_ms / self.slowdown


def cli_argv(req: Dict, workdir: str) -> List[str]:
    argv = [req["command"], "--model", os.path.join(workdir, req["model"]),
            "--query", canonical(req["query"])]
    if req["command"] == "verify":
        argv += ["--witness", canonical(req["witness"]), "--minimal"]
    return argv


class Spawner:
    """Client of `spawner.py`, which runs every child process so that a
    child's peak RSS is its own (see there)."""

    def __init__(self, io_dir: str):
        self.out = os.path.join(io_dir, "out")
        self.err = os.path.join(io_dir, "err")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )

    def run(self, argv: List[str], limit_s: float = WALL_LIMIT_S):
        """Run `python argv...`; returns wall ms, exit code, stdout,
        stderr, whether it was killed at the limit, and its peak RSS."""
        job = {"argv": [sys.executable] + argv, "out": self.out, "err": self.err,
               "limit_s": limit_s}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        done = json.loads(reply)
        with open(self.out, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(self.err, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return done["wall_ms"], done["exit"], stdout, stderr, done["killed"], done["rss_kb"]

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def calibrate(mode: str, spawner: Spawner) -> float:
    """Milliseconds of a fixed amount of xbool-free work."""
    if mode == "cli":
        return spawner.run(["-c", "pass"])[0]
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i
    return (time.perf_counter() - start) * 1000.0


# ---------------------------------------------------------------------------
# Circuit operations, in this process


class CircuitOps:
    """compile + circuit_explain_bruteforce, or compile + validity and
    subset-minimality checks of three seeded witnesses on one oracle over
    the circuit's own labels."""

    def __init__(self, pool: List[Dict], workdir: str, target_class: int):
        from xbool import circuits
        from xbool.models import loads_model
        import workloads

        self.c = target_class
        self.models = {}
        for req in pool:
            if req["model"] not in self.models:
                with open(os.path.join(workdir, req["model"]), encoding="utf-8") as fh:
                    self.models[req["model"]] = loads_model(fh.read())
        self.compilers = workloads.COMPILERS
        self.circuits = circuits

    def run(self, req: Dict) -> str:
        from xbool.explain import (FunctionOracle, query_from_json, witness_from_json,
                                   witness_to_json)

        circuits = self.circuits
        compile_fn = getattr(circuits, self.compilers[req["family"]])
        circuit = compile_fn(self.models[req["model"]], self.c)
        q = query_from_json(req["query"])
        if req["command"] == "explain":
            w = circuits.circuit_explain_bruteforce(circuit, q)
            payload = {"witness": None if w is None else witness_to_json(w),
                       "size": None if w is None else w.size}
        else:
            on, off = circuit.target_class, 1 - circuit.target_class

            def label(e):
                return on if circuits.eval_circuit(circuit, e) else off

            oracle = FunctionOracle(circuit.inputs(), label)
            payload = {"verdicts": []}
            for raw in req["witness"]:
                w = witness_from_json(raw)
                payload["verdicts"].append([oracle.holds(q, w), oracle.subset_minimal(q, w)])
        return canonical(payload) + "\n"


def run_inprocess(op, req: Dict) -> Attempt:
    start = time.perf_counter()
    stderr = ""
    try:
        stdout = op(req)
        code = 0
    except Exception:
        import traceback

        stdout, stderr, code = "", traceback.format_exc(), 1
    wall_ms = (time.perf_counter() - start) * 1000.0
    return Attempt(req["id"], wall_ms, code, stdout, stderr, False, 0)


# ---------------------------------------------------------------------------
# Setup


def tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def setup(workload: Dict, seed: int, base: str):
    import workloads

    times, digests, pool, workdir = [], [], None, None
    for i in range(SETUP_REPEATS):
        workdir = os.path.join(base, f"inputs{i}")
        os.makedirs(workdir)
        start = time.perf_counter()
        pool = workloads.build_pool(ROOT, workload, seed, workdir)
        times.append(time.perf_counter() - start)
        digests.append(tree_digest(workdir))
    return pool, workdir, times, len(set(digests)) == 1


# ---------------------------------------------------------------------------
# Checking


def check_answer(req: Dict, attempt: Attempt, tables: Dict, workdir: str,
                 inprocess: bool) -> Optional[str]:
    """None when the attempt succeeded with a right answer, else why not."""
    if attempt.killed:
        return "killed at the wall limit"
    if "Traceback (most recent call last)" in attempt.stderr + attempt.stdout:
        return "printed a traceback"
    if attempt.exit not in (0, 3):
        return f"exit code {attempt.exit}"
    try:
        payload = json.loads(attempt.stdout)
    except ValueError:
        return "stdout is not JSON"
    if req["model"] not in tables:
        tables[req["model"]] = reference.load_table(os.path.join(workdir, req["model"]))
    table = tables[req["model"]]
    q = req["query"]
    if req["command"] == "explain":
        witness = payload.get("witness")
        size = payload.get("size")
        if (witness is None) != (size is None) or (witness is not None and size != len(witness)):
            return "size does not match the witness"
        if not inprocess:
            if payload.get("algorithm") not in ROUTES:
                return f"unknown algorithm {payload.get('algorithm')!r}"
            if attempt.exit != (0 if witness is not None else 3):
                return "exit code disagrees with the answer"
        return reference.check_explain(table, q, witness)
    if inprocess:
        want = [list(reference.verify_verdict(table, q, w)) for w in req["witness"]]
        return None if payload.get("verdicts") == want else f"verdicts should be {want}"
    valid, minimal = reference.verify_verdict(table, q, req["witness"])
    if payload.get("valid") != valid or payload.get("minimal") != minimal:
        return f"verdict {payload} should be valid={valid} minimal={minimal}"
    if attempt.exit != (0 if valid and minimal else 3):
        return "exit code disagrees with the verdict"
    return None


def apply_control(control: str, pool: List[Dict], first: Dict[int, Attempt]) -> None:
    """Corrupt one recorded answer the way the control names."""
    for req in pool:
        att = first.get(req["id"])
        if att is None or att.exit != 0:
            continue
        payload = json.loads(att.stdout)
        if control == "corrupt-witness" and req["command"] == "explain" and payload["witness"]:
            w = payload["witness"]
            payload["witness"] = w[1:] if isinstance(w, list) else dict(list(w.items())[1:])
            payload["size"] -= 1
        elif control == "flip-verdict" and req["command"] == "verify":
            verdict = payload["verdicts"][0] if "verdicts" in payload else payload
            key = 0 if "verdicts" in payload else "valid"
            verdict[key] = not verdict[key]
        else:
            continue
        att.stdout = canonical(payload) + "\n"
        return


# ---------------------------------------------------------------------------
# Traced replay


def replay(pool: List[Dict], op, tracer=None):
    """Run each request once in this process; returns stdout per id and
    the wall seconds of the whole replay."""
    outputs = {}
    start = time.perf_counter()
    for req in pool:
        if tracer is not None:
            tracer.request = req["id"]
        outputs[req["id"]] = op(req)
    return outputs, time.perf_counter() - start


def cli_inprocess(workdir: str, main):
    def op(req):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(cli_argv(req, workdir))
        return buf.getvalue()

    return op


def traced_metrics(name: str, workload: Dict, pool: List[Dict], workdir: str,
                   process_out: Dict[int, str], spawner: Spawner):
    """Per-layer metrics, and the ids whose replayed output differs from
    the process run's."""
    import tracing
    from xbool import cli

    startup = [spawner.run(["-m", "xbool.cli", "--help"])[0] for _ in range(STARTUP_PROBES)]
    inprocess = workload["mode"] == "inprocess"
    if inprocess:
        plain_op = CircuitOps(pool, workdir, workload["target_class"]).run
    else:
        plain_op = cli_inprocess(workdir, cli.main)
    plain, plain_s = replay(pool, plain_op)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        if inprocess:
            traced_op = tracer.frame("request", None, plain_op, True)
        else:
            traced_op = tracer.frame("cli.main", "cli", cli_inprocess(workdir, cli.main), True)
        traced, traced_s = replay(pool, traced_op, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(SPANS, exist_ok=True)
    tracer.write_spans(os.path.join(SPANS, f"spans-{name}.jsonl"))
    print(f"spans recorded {len(tracer.spans)}, dropped {tracer.dropped_spans}")

    mismatched = [rid for rid, out in process_out.items()
                  if plain.get(rid) != out or traced.get(rid) != out]
    metrics = {"cli.startup_ms": statistics.median(startup)}
    routes = dict.fromkeys(ROUTES, 0)
    fallbacks = 0
    for req in pool:
        if inprocess or req["command"] != "explain":
            continue
        algorithm = json.loads(traced[req["id"]]).get("algorithm")
        if algorithm in routes:
            routes[algorithm] += 1
        with open(os.path.join(workdir, req["model"]), encoding="utf-8") as fh:
            model = json.load(fh)
        if algorithm == "bruteforce" and model["kind"] == "ensemble" and \
                model["elements"][0]["kind"] in ("dt", "obdd"):
            fallbacks += 1
    for r in ROUTES:
        metrics[f"cli.route.{r}"] = routes[r]
    metrics["cli.fallbacks"] = fallbacks
    metrics.update(tracer.metrics())
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return metrics, mismatched


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith(("_ratio", "_share", "_yield")) else "count"


# ---------------------------------------------------------------------------
# Main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--control", choices=CONTROLS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "xbool", "cli.py")):
        print(f"perfbench: no xbool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    manifest = workloads.load_manifest()
    if args.workload not in manifest["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = manifest["workloads"][args.workload]
    base = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(os.path.join(base, "io"))
    try:
        with Spawner(os.path.join(base, "io")) as spawner:
            return run(args, workload, base, spawner)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def run(args, workload: Dict, base: str, spawner: Spawner) -> int:
    import workloads

    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    pool, workdir, setup_times, setup_same = setup(workload, args.seed, base)
    mode = workload["mode"]
    inprocess = mode == "inprocess"
    if inprocess:
        ops = CircuitOps(pool, workdir, workload["target_class"])

    def attempt(req, limit_s=WALL_LIMIT_S) -> Attempt:
        if inprocess:
            return run_inprocess(ops.run, req)
        return Attempt(req["id"], *spawner.run(["-m", "xbool.cli"] + cli_argv(req, workdir), limit_s))

    # timed phase: one closed-loop client, cycling through the pool
    attempts: List[Attempt] = []
    calibrations: List[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    calibrated_at = start - CALIBRATION_INTERVAL_S
    i = 0
    while time.perf_counter() < deadline:
        limit = KILL_CONTROL_LIMIT_S if args.control == "kill" and i == 0 else WALL_LIMIT_S
        if time.perf_counter() - calibrated_at >= CALIBRATION_INTERVAL_S:
            calibrated_at = time.perf_counter()
            calibrations.append(calibrate(mode, spawner))
        att = attempt(pool[i % len(pool)], limit)
        att.slowdown = calibrations[-1] / REFERENCE_MS[mode]
        attempts.append(att)
        i += 1
    timed_s = time.perf_counter() - start
    timed = attempts[:]
    self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # finish the pool so the digest and the check cover all of it
    for req in pool[i:]:
        attempts.append(attempt(req))

    first: Dict[int, Attempt] = {}
    for att in attempts:
        first.setdefault(att.id, att)
    if args.control in ("corrupt-witness", "flip-verdict"):
        apply_control(args.control, pool, first)

    by_id = {req["id"]: req for req in pool}
    tables: Dict = {}
    check_start = time.perf_counter()
    verdicts = {rid: check_answer(by_id[rid], att, tables, workdir, inprocess)
                for rid, att in sorted(first.items())}
    check_s = time.perf_counter() - check_start
    failures = []
    for att in attempts:
        why = verdicts[att.id]
        if why is None and att is not first[att.id] and (
                att.killed or att.stdout != first[att.id].stdout):
            why = "output differs from the request's first run"
        if why is not None:
            failures.append((att.id, why))
    failed_ids = {rid for rid, _ in failures}

    digest = hashlib.sha256()
    for rid in sorted(first):
        digest.update(first[rid].stdout.encode())

    correct = setup_same and not failures
    print(f"pool {len(pool)} requests; timed phase ran {len(timed)} in {timed_s:.2f} s; "
          f"reference check {check_s:.2f} s")
    print("composition " + canonical(workloads.composition(pool)))
    print(f"stdout_sha256 {digest.hexdigest()}")
    print(f"setup builds identical: {setup_same}")
    verify_ids = [rid for rid in first if by_id[rid]["command"] == "verify" and rid not in failed_ids]
    verdict_counts: Dict[str, int] = {}
    for rid in verify_ids:
        got = json.loads(first[rid].stdout)
        for valid, minimal in got.get("verdicts", [[got.get("valid"), got.get("minimal")]]):
            key = f"valid={valid} minimal={minimal}"
            verdict_counts[key] = verdict_counts.get(key, 0) + 1
    print(f"verify verdicts {canonical(verdict_counts)}")
    for rid, why in failures[:10]:
        print(f"FAILED request {rid} ({by_id[rid]['family']} {by_id[rid]['command']}): {why}")

    metrics: Dict[str, tuple] = {}
    if args.trace:
        process_out = {rid: att.stdout for rid, att in first.items() if rid not in failed_ids}
        layer, mismatched = traced_metrics(args.workload, workload, [by_id[r] for r in sorted(first)],
                                           workdir, process_out, spawner)
        if mismatched:
            correct = False
            print(f"traced replay differs from the processes on {len(mismatched)} requests")
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    else:
        print(f"calibration_ms p50 {statistics.median(calibrations):.6g} (reference {REFERENCE_MS[mode]:g})")
        for command in ("explain", "verify"):
            mine = [a for a in timed if by_id[a.id]["command"] == command]
            walls = [a.wall_ms for a in mine]
            scaled = [a.scaled_ms for a in mine]
            print(f"{command}: {len(mine)} samples; raw wall p50 {statistics.median(walls):.6g} ms, "
                  f"p{TAIL} {percentile(walls, TAIL):.6g} ms")
            metrics[f"{command}_ms.p50"] = (statistics.median(scaled), "ms")
            metrics[f"{command}_ms.p{TAIL}"] = (percentile(scaled, TAIL), "ms")
        ok = sum(1 for a in timed if a.id not in failed_ids)
        print(f"raw requests_per_s {ok / timed_s:.6g} 1/s (calibration included)")
        metrics["requests_per_s"] = (ok * 1000.0 / sum(a.scaled_ms for a in timed), "1/s")
        rss_kb = self_rss_kb if inprocess else max(a.rss_kb for a in attempts)
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    print(f"failed_ratio {len(failures) / len(attempts):.6f} ratio ({len(failures)} of {len(attempts)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(attempts),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
