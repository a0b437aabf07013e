#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs (a few seconds once built).

    python3 perfbench/smoke_test.py

Checks that every workload runs untraced and traced with a correct result
and every metric BENCHMARK.json lists; that the traced searches write spans
with per-rank tracks and parent ids; that a corrupted correctness reference
makes the gate fail; and that the benchmark refuses to run without the
repository's sources next to it.
"""
import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "work"


def run(workload, trace, *extra, cwd=ROOT, script=None):
    script = script or ROOT / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(name, trace)
            result = last_json(proc)
            check(proc.returncode == 0 and result is not None
                  and result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace} runs correctly")
            if result is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{name} trace={trace} reports the {key} set")
        spans = json.loads((WORK / f"{name}-s7.spans.json").read_text())
        events = [e for e in spans["traceEvents"] if e["ph"] == "X"]
        check(len(events) > 0 and all("parent" in e["args"] for e in events)
              and "selfSeconds" in spans,
              f"{name} spans carry parent ids and layer self times")
        if name == "search_mixed_ooc_r4":
            check(len({e["tid"] for e in events}) == 5,
                  f"{name} spans have a host track and 4 rank tracks")

    for name in ("search_gauss_1t", "search_gauss_4t", "serve_mixed"):
        result = last_json(run(name, 0, "--corrupt-reference"))
        check(result is not None and not result["correct"]
              and result["failed"] > 0,
              f"{name} fails the gate against a corrupted reference")

    # Only BENCHMARK.json and perfbench/: must refuse quickly, print no result.
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc = run("search_gauss_1t", 0, cwd=bare,
               script=bare / "perfbench" / "run.py")
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "refuses to run without the repository's sources")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
