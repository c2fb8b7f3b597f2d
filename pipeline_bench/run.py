#!/usr/bin/env python3
"""Entry point of the pipeline benchmark (the `command` of BENCHMARK.json).

Builds `magellan-traced` (the repository's own binary) and
`pipeline_bench` (this package) from source into one target directory,
then runs the benchmark binary with the arguments it was given:

    python3 pipeline_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipeline_bench/run.py --all [--seed N] [--trace 0|1] [--smoke]
    python3 pipeline_bench/run.py --repeat-check [--seed N] [--write-baseline FILE]

Builds log to stderr; the binary's standard output (metric lines, check
lines, and the result object as its last line) passes through.
README.md next to this file is the glossary.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    # cargo reads a relative CARGO_TARGET_DIR against its own working
    # directory; pin it so both builds and the binary lookup agree.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Builds the service binary and the benchmark; returns the benchmark's path."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"{ROOT} holds no Cargo.toml: the benchmark measures the repository it sits in")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for what, args in (
        ("magellan-traced", ["--bin", "magellan-traced"]),
        ("pipeline_bench", ["--manifest-path", os.path.join(HERE, "Cargo.toml")]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"building {what} failed", done.returncode)
    return os.path.join(target_dir(), "release", "pipeline_bench")


def run_bench(binary, args, passthrough=True):
    """Runs one workload; returns (exit code, parsed result object or None, sizes line)."""
    try:
        done = subprocess.run(
            [binary, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child by now.
        fail(f"`{' '.join(args)}` did not finish within {RUN_TIMEOUT_S} s", 1)
    if passthrough:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return done.returncode, result, lines[0] if lines else ""


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def take(args, flag, default=None):
    """Removes `flag VALUE` from args and returns VALUE."""
    if flag not in args:
        return default
    i = args.index(flag)
    if i + 1 >= len(args):
        fail(f"{flag} needs a value")
    value = args[i + 1]
    del args[i : i + 2]
    return value


def run_all(binary, args):
    worst = 0
    for w in spec()["workloads"]:
        code, _, _ = run_bench(binary, ["--workload", w["name"], *args])
        worst = max(worst, code)
    return worst


def worsening(first, second, better):
    """Relative change from `first` to `second`, positive when worse."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def repeat_check(binary, args):
    """Two full sets back to back; every end-to-end metric must agree within its bound.

    A set is three runs of every workload, a metric's value their median: on a
    shared host one run in fifty is an outlier, and a set has 28 cells.
    """
    runs = 3
    baseline_path = take(args, "--write-baseline")
    seed = take(args, "--seed", "2006")
    bench = spec()
    seconds = str(bench["run_seconds"])
    # Counts are functions of the seed alone: they repeat exactly or not at all.
    exact = {"delivered_ratio", "archive_mb"}
    sets = []
    sizes = {}
    for _ in range(2):
        results = {}
        for w in bench["workloads"]:
            argv = ["--workload", w["name"], "--seed", seed, "--seconds", seconds, "--trace", "0"]
            values = []
            for _ in range(runs):
                code, result, sizes[w["name"]] = run_bench(binary, [*argv, *args], passthrough=False)
                if code != 0 or not result or not result["correct"]:
                    fail(f"{w['name']} failed (exit {code})", 1)
                values.append({k: v["value"] for k, v in result["metrics"].items()})
            results[w["name"]] = {k: statistics.median(v[k] for v in values) for k in values[0]}
        sets.append(results)
    breaches = 0
    print(f"{'workload':<14}{'metric':<22}{'set 1':>14}{'set 2':>14}{'worse by':>10}{'bound':>8}")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            a, b = (s[w["name"]][m["name"]] for s in sets)
            worse = worsening(a, b, m["better"])
            bound = 0.0 if m["name"] in exact else m["bound"]
            ok = (a == b) if m["name"] in exact else worse <= bound
            breaches += not ok
            print(
                f"{w['name']:<14}{m['name']:<22}{a:>14.6g}{b:>14.6g}{worse:>+10.2%}{bound:>8.0%}"
                + ("" if ok else "  BREACH")
            )
    if baseline_path:
        version = subprocess.run(["rustc", "-V"], stdout=subprocess.PIPE, text=True).stdout.strip()
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        ).stdout.strip()
        # The better of the two sets: a shared host only ever adds time.
        best = {m["name"]: min if m["better"] == "lower" else max for m in bench["end_to_end"]}
        latest = {w: {k: best[k](s[w][k] for s in sets) for k in sets[0][w]} for w in sets[0]}
        with open(baseline_path, "w") as f:
            json.dump(
                {
                    "claim": None,
                    "seed": int(seed),
                    "runs_per_set": runs,
                    "run_seconds": bench["run_seconds"],
                    "host_cores": os.cpu_count(),
                    "rustc": version,
                    "measured_at_commit": commit or None,
                    "sizes": sizes,
                    "latest": latest,
                },
                f,
                indent=2,
            )
            f.write("\n")
    print(f"repeat-check: {breaches} breach(es)")
    return 1 if breaches else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if "--repeat-check" in args:
        args.remove("--repeat-check")
        sys.exit(repeat_check(binary, args))
    if "--all" in args:
        args.remove("--all")
        sys.exit(run_all(binary, args))
    code, _, _ = run_bench(binary, args)
    sys.exit(code)


if __name__ == "__main__":
    main()
