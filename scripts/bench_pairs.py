"""Run the benchmark on two checkouts in interleaved pairs and summarize it.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \
        --workloads bigrading,exterior,spectral,cold-exact --seeds 8101..8105 \
        --out BENCH_8.json --what "one line on what is measured"

Each directory is a checkout (a ``git archive`` of a commit, say) with its
own ``bench/run.py``.  For every workload and seed, both sides run
``python3 bench/run.py --workload W --seed S --seconds 15 --trace 0`` one
after the other; the side that runs first alternates from pair to pair,
starting with the parent.  Every run's ``metadata`` line, ``report_sha256``
and final JSON line are kept under ``runs``.  Each end-to-end metric of
``BENCHMARK.json`` gets the median and inclusive quartiles of both sides,
the relative change of the medians, the count of pairs the change wins and
whether the median change is within the metric's bound.  The output file is
rewritten after every pair, so an interrupted session keeps what it ran.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 15
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """Comma-separated seeds and inclusive ranges ``lo..hi``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("..")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def src_lines(checkout: Path) -> int:
    files = (checkout / "src" / "hodgelab").glob("*.py")
    return sum(len(p.read_text().splitlines()) for p in files)


def commit_of(checkout: Path):
    """HEAD of a git checkout; None for an exported tree."""
    if not (checkout / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def host() -> str:
    model = "unknown CPU"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return f"{os.cpu_count()}-vCPU host, {model}, Python {platform.python_version()}"


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run; the parsed metadata, report hash and result lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record = {"metadata": None, "report_sha256": None, "result": None,
              "returncode": done.returncode}
    for line in done.stdout.splitlines():
        if line.startswith("metadata "):
            record["metadata"] = json.loads(line[len("metadata "):])
        elif line.startswith("report_sha256 "):
            record["report_sha256"] = line.split()[1]
        elif line.startswith("{"):
            record["result"] = json.loads(line)
    if record["result"] is None:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} printed no result\n{done.stderr}")
    return record


def side_stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": values}


def summarize(workload: str, seeds: list[int], runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles and paired wins of one workload."""
    by_side = {side: [r for r in runs if r["workload"] == workload and r["side"] == side]
               for side in SIDES}
    pairs = list(zip(by_side["parent"], by_side["change"]))
    out = {
        "seeds": seeds[: len(pairs)],
        "attempted": {s: sum(r["result"]["attempted"] for r in by_side[s]) for s in SIDES},
        "failed": {s: sum(r["result"]["failed"] for r in by_side[s]) for s in SIDES},
        "report_sha256_equal": all(p["report_sha256"] == c["report_sha256"] for p, c in pairs),
        "metrics": {},
    }
    if len(pairs) < 2:
        return out
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {s: [r["result"]["metrics"][name]["value"] for r in by_side[s][: len(pairs)]]
                  for s in SIDES}
        stats = {s: side_stats(values[s]) for s in SIDES}
        change = stats["change"]["median"] / stats["parent"]["median"] - 1
        paired = zip(values["parent"], values["change"])
        wins = sum((c < p) if lower else (c > p) for p, c in paired)
        worse = change if lower else -change
        out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], **stats,
            "median_change": round(change, 4), "change_wins": wins, "pairs": len(pairs),
            "bound": metric["bound"], "within_bound": worse <= metric["bound"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 8101..8105")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--what", required=True, help="what the file records")
    args = parser.parse_args(argv)

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = args.workloads.split(",")
    doc = {
        "what": args.what,
        "parent_commit": commit_of(dirs["parent"]),
        "change_commit": commit_of(dirs["change"]),
        "host": host(),
        "procedure": (
            f"scripts/bench_pairs.py: for each workload and seed, both sides run 'python3 "
            f"bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0' one after "
            "the other, in their own checkout; the side that runs first alternates from pair "
            "to pair, starting with the parent. Figures are read from the JSON lines that "
            "bench/run.py prints; 'runs' holds them all. Quartiles are the inclusive quartiles "
            "of the runs. 'change_wins' counts pairs where the change is better in the metric's "
            "direction. 'within_bound' compares the median change with the BENCHMARK.json bound."
        ),
        "src_hodgelab_lines": {side: src_lines(d) for side, d in dirs.items()},
        "workloads": {},
        "runs": [],
    }
    for workload in workloads:
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for first, side in zip((True, False), order):
                record = run_once(dirs[side], workload, seed)
                doc["runs"].append({"side": side, "workload": workload, "seed": seed,
                                    "ran_first": first, **record})
                res = record["result"]
                print(f"{workload} seed {seed} {side}: failed {res['failed']}/{res['attempted']}, "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
            doc["workloads"][workload] = summarize(workload, args.seeds, doc["runs"], metrics)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
