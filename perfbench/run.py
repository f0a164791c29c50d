"""Run one benchmark workload against the weakapprox in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one client in a closed loop: each CLI invocation
(``weakapprox.cli.main``) starts when the previous one returns.  A pass
runs the workload's op list once; passes repeat on the same inputs while
the time budget allows, and every metric is a median over passes.  Each
pass runs on a freshly imported package, so state that a module keeps
between calls, such as a memo cache, starts empty in every pass, as it
would in a fresh CLI process.  ``setup_s`` is timed over fresh processes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a pass under the outside-in tracer and prints the
per-layer metrics.  The last line of stdout is one JSON object; the lines
before it are a human-readable summary.  Correctness is checked after the
timed passes: the first pass's artifacts are checked in full, and every
later pass must reproduce them byte for byte, as must any earlier run of
the same code and seed (digests kept under ``.perfbench/``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))

from checks import check_artifact  # noqa: E402
from tracer import LAYERS, Tracer, layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 9

#: name: (unit, better, bound).  Kept equal to BENCHMARK.json by a test.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "op_s.p50": ("s", "lower", 0.25),
    "op_s.max": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: name: (unit, better).
PER_LAYER = {
    "construct.self_s": ("s", "lower"),
    "construct.calls": ("count", "lower"),
    "construct.max_digits": ("digits", "lower"),
    "cf.self_s": ("s", "lower"),
    "cf.qnorm_table.calls": ("count", "lower"),
    "cf.rows": ("count", "lower"),
    "cf.max_digits": ("digits", "lower"),
    "intmath.self_s": ("s", "lower"),
    "intmath.dist_to_int.calls": ("count", "lower"),
    "intmath.decimal_str.self_s": ("s", "lower"),
    "intmath.decimal_str.digits": ("digits", "lower"),
    "measure.self_s": ("s", "lower"),
    "measure.upsilon_step.self_s": ("s", "lower"),
    "measure.min_step.self_s": ("s", "lower"),
    "measure.pieces": ("count", "lower"),
    "measure.step_eval.calls": ("count", "lower"),
    "exponents.self_s": ("s", "lower"),
    "exponents.samples": ("count", "lower"),
    "lattice.self_s": ("s", "lower"),
    "lattice.minimum_profile.self_s": ("s", "lower"),
    "lattice.records": ("count", "lower"),
    "lemma.self_s": ("s", "lower"),
    "lemma.find_witnesses.self_s": ("s", "lower"),
    "lemma.random_step_pair.self_s": ("s", "lower"),
    "lemma.witnesses": ("count", "higher"),
    "lemma.witness_yield": ("ratio", "higher"),
    "bounds.self_s": ("s", "lower"),
    "svgplot.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


@dataclass
class Pass:
    """Timings, exit codes and artifact digests of one pass over the ops."""

    traced: bool
    wall: float
    latencies: list[float]
    codes: list
    digests: list = field(default_factory=list)
    output_bytes: int = 0
    layer: dict = field(default_factory=dict)


def package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "weakapprox" or name.startswith("weakapprox.")}


def load_package():
    """Import weakapprox afresh, and only from this checkout's src/."""
    for name in package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("weakapprox")
    for layer in LAYERS:
        importlib.import_module(f"weakapprox.{layer}")
    where = Path(pkg.__file__).resolve().parent
    if where != SRC.resolve() / "weakapprox":
        raise ImportError(f"weakapprox was imported from {where}, not {SRC}")
    return pkg


def build_inputs(workload: str, seed: int, indir: Path):
    """Import weakapprox and write the workload's inputs into ``indir``."""
    indir.mkdir()
    return WORKLOADS[workload](load_package(), seed, indir)


def timed_setup(workload: str, seed: int, indir: Path) -> float:
    """Seconds from starting a fresh interpreter on this file until its
    inputs are written and the first op could start (``--setup-only``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only", str(indir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or ready != "ready\n":
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    shutil.rmtree(indir)
    return elapsed


def invoke(cli, argv: list[str]):
    """One CLI call; an escaping exception becomes a failed op, not a crash."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # noqa: BLE001 - reported as a failed op
        print(f"op {argv[0]} raised {exc!r}", file=sys.stderr)
        return f"raised {type(exc).__name__}"


def run_pass(wa, ops, outdir: Path, traced: bool, keep: bool) -> Pass:
    """One timed pass; artifacts are digested, then kept only if ``keep``."""
    outdir.mkdir(parents=True)
    latencies, codes = [], []
    clock = time.perf_counter
    t_pass = clock()
    for op in ops:
        argv = [*op.argv, "--output", str(outdir / op.output)]
        t0 = clock()
        codes.append(invoke(wa.cli, argv))
        latencies.append(clock() - t0)
    wall = clock() - t_pass
    result = Pass(traced, wall, latencies, codes)
    for op in ops:
        path = outdir / op.output
        if path.is_file():
            with path.open("rb") as fh:
                result.digests.append(hashlib.file_digest(fh, "sha256").hexdigest())
            result.output_bytes += path.stat().st_size
        else:
            result.digests.append(None)
    if not keep:
        shutil.rmtree(outdir)
    return result


def traced_pass(wa, ops, outdir: Path, spans_out: list) -> Pass:
    tracer = Tracer()
    tracer.install(package_modules())
    try:
        t0 = tracer.clock()
        result = run_pass(wa, ops, outdir, traced=True, keep=False)
        span_wall = tracer.clock() - t0
    finally:
        tracer.uninstall()
    result.layer = layer_metrics(tracer, result.output_bytes)
    result.layer["span_wall"] = span_wall
    spans_out.append({"names": tracer.names, "spans": tracer.spans})
    return result


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (all but the overhead ratio)."""
    own = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, t in own.items():
        m[f"{layer_of(name)}.self_s"] += t
    witnesses = counts.get("lemma.witnesses", 0)
    m.update({
        "construct.calls": sum(n for name, n in calls.items() if layer_of(name) == "construct"),
        "construct.max_digits": counts.get("construct.max_digits", 0),
        "cf.qnorm_table.calls": calls.get("cf.qnorm_table", 0),
        "cf.rows": counts.get("cf.rows", 0),
        "cf.max_digits": counts.get("cf.max_digits", 0),
        "intmath.dist_to_int.calls": calls.get("intmath.dist_to_int", 0),
        "intmath.decimal_str.self_s": own.get("intmath.decimal_str", 0.0),
        "intmath.decimal_str.digits": counts.get("intmath.decimal_str.digits", 0),
        "measure.upsilon_step.self_s": own.get("measure.upsilon_step", 0.0),
        "measure.min_step.self_s": own.get("measure.min_step", 0.0),
        "measure.pieces": counts.get("measure.pieces", 0),
        "measure.step_eval.calls": calls.get("measure.StepFunction.value", 0)
        + calls.get("measure.StepFunction.left_limit", 0),
        "exponents.samples": counts.get("exponents.samples", 0),
        "lattice.minimum_profile.self_s": own.get("lattice.minimum_profile", 0.0),
        "lattice.records": counts.get("lattice.records", 0),
        "lemma.find_witnesses.self_s": own.get("lemma.find_witnesses", 0.0),
        "lemma.random_step_pair.self_s": own.get("lemma.random_step_pair", 0.0),
        "lemma.witnesses": witnesses,
        "lemma.witness_yield": counts.get("lemma.verified", 0) / witnesses if witnesses else 0.0,
        "cli.output_bytes": output_bytes,
    })
    return m


def code_digest() -> str:
    """Digest of the library and benchmark sources, keying stored artifact digests."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def failed_ops(ops, passes: list[Pass], first_dir: Path, known: dict) -> dict:
    """Problems per failed op: full checks on pass 0, reproduction on the rest.

    Keys are "pass <i> <op label>"; an op that passes has no key.
    """
    problems: dict[str, list[str]] = {}
    first = passes[0]
    for k, op in enumerate(ops):
        msgs = check_artifact(op, first.codes[k], first_dir / op.output)
        if op.label in known and known[op.label] != first.digests[k]:
            msgs.append("artifact differs from an earlier run of this code and seed")
        if msgs:
            problems[f"pass 0 {op.label}"] = msgs
    for i, later in enumerate(passes[1:], start=1):
        for k, op in enumerate(ops):
            if later.codes[k] != first.codes[k] or later.digests[k] != first.digests[k]:
                problems[f"pass {i} {op.label}"] = ["result differs from pass 0"]
    return problems


def load_known(key: str) -> dict:
    path = STATE / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(key, {})


def store_known(key: str, digests: dict) -> None:
    path = STATE / "digests.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    data.setdefault(key, {}).update(digests)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, path)


def measure(ops, rundir: Path, seconds: float, trace: bool, spans_out: list):
    """Run passes until the budget is spent; return them with pass 0's directory.

    The package is imported afresh before each pass, outside its timing.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        # Only pass 0's artifacts are kept for the full check.
        passes.append(run_pass(load_package(), ops, rundir / f"pass{len(passes)}",
                               traced=False, keep=not passes))
        if trace:
            passes.append(traced_pass(load_package(), ops, rundir / f"pass{len(passes)}",
                                      spans_out))
        per_round = statistics.median(p.wall for p in passes) * (1 + trace)
        if time.perf_counter() - start + per_round > seconds:
            return passes, rundir / "pass0"


def summarize(passes: list[Pass], setup_s: float, trace: bool) -> dict:
    plain = [p for p in passes if not p.traced]
    if not trace:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in plain),
            "op_s.p50": statistics.median(statistics.median(p.latencies) for p in plain),
            "op_s.max": statistics.median(max(p.latencies) for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    traced = [p for p in passes if p.traced]
    values = {k: statistics.median(p.layer[k] for p in traced)
              for k in PER_LAYER if k != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                      / statistics.median(p.wall for p in plain))
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", type=Path,
                        help="write the inputs into DIR, print 'ready' and exit"
                             " (how setup_s times one fresh-process set-up)")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    if args.setup_only:
        build_inputs(args.workload, args.seed, args.setup_only)
        print("ready", flush=True)
        return 0

    STATE.mkdir(exist_ok=True)
    rundir = STATE / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir()
    try:
        try:
            inputs = build_inputs(args.workload, args.seed, rundir / "inputs")
        except ImportError as exc:
            print(f"cannot load weakapprox from {SRC}: {exc}", file=sys.stderr)
            return 2
        setup_s = statistics.median(
            timed_setup(args.workload, args.seed, rundir / f"setup{k}")
            for k in range(SETUP_REPEATS))
        spans: list = []
        passes, first_dir = measure(inputs.ops, rundir, args.seconds, trace, spans)
        metrics = summarize(passes, setup_s, trace)

        key = f"{code_digest()}:{args.workload}:{args.seed}"
        problems = failed_ops(inputs.ops, passes, first_dir, load_known(key))
        store_known(key, {op.label: d for op, d in zip(inputs.ops, passes[0].digests) if d})
        if trace:
            spans_path = STATE / f"spans-{args.workload}-{args.seed}.json"
            spans_path.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent"], "passes": spans},
                separators=(",", ":")), encoding="utf-8")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(inputs.ops) * len(passes)
    failed = len(problems)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  traced {sum(p.traced for p in passes)}  ops/pass {len(inputs.ops)}")
    print("inputs " + "  ".join(f"{k} {v}" for k, v in inputs.sizes.items()))
    print("pass walls " + "  ".join(f"{p.wall:.4f}{'T' if p.traced else ''}" for p in passes))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_failed_ratio':32s} {failed / attempted:.6g}"
          f"  ({failed} failed of {attempted} attempted)")
    if trace:
        traced = [p for p in passes if p.traced]
        attributed = statistics.median(
            sum(p.layer[f"{layer}.self_s"] for layer in LAYERS) / p.layer["span_wall"]
            for p in traced)
        print(f"  layer self times cover {attributed:.4f} of the traced pass")
    for where, msgs in problems.items():
        print(f"FAIL {where}: {'; '.join(msgs)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
