"""One workload of the ucayley benchmark, in a fresh process started by run.py.

Sets up (imports `ucayley` from the checkout's `src/`, builds the task list
and its oracle values), then runs the tasks in plan order, one after another
with no threads, cycling through the list: at least once each, and on until
the next task would end after `--seconds`.  Every answer is checked after
its task's timed block.  Between tasks, outside every timed block, it runs
speed.py's kernel, and it reports times in reference seconds.  `attempted` and
`failed` count one pass over the task list.  With `--trace 1`, each task runs
untraced and then traced.  The last stdout line is a JSON object that run.py
reads.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
EXIT_WRONG = 3  # a definite answer was wrong; the result line says so


class NotRepeatable(Exception):
    """Two runs of one task answered or failed different questions."""


def import_program():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import ucayley
    if not Path(ucayley.__file__).resolve().is_relative_to(src):
        raise ImportError("ucayley was imported from %s, not from %s" % (ucayley.__file__, src))


def run_once(task, seed, tracer=None, sample=None):
    """Run one task and check its answers.

    Returns (seconds, questions), where questions lists (task, question,
    error or None) for every question asked.
    """
    import tasks
    if tracer is not None:
        tracer.begin_task(task.text, sample)
    t0 = time.perf_counter()
    out = tasks.run_task(task, seed)
    elapsed = time.perf_counter() - t0
    tasks.check_task(task, out)
    questions = [(task.text, q, None) for q in out.answers]
    questions += [(task.text, q, e) for q, e in out.errors.items()]
    return elapsed, questions


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true",
                    help="report the set-up time and exit")
    args = ap.parse_args(argv)

    import_program()
    import tasks
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    plan = tasks.plan(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    kinds = ("plain", "traced") if tracer else ("plain",)
    speed = SpeedLog()
    times = {kind: [[] for _ in plan] for kind in kinds}  # per task, seconds of each run
    reference = [None] * len(plan)  # per task, the questions of its first run
    visit_costs = [[] for _ in plan]  # per task, seconds per visit, checks included
    visits = 0
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            i = visits % len(plan)
            speed.catch_up()
            c0 = time.perf_counter()
            for kind in kinds:  # a traced run follows the same task's untraced run
                traced = kind == "traced"
                if tracer:
                    tracer.install() if traced else tracer.uninstall()
                elapsed, questions = run_once(plan[i], args.seed, tracer if traced else None,
                                              len(times[kind][i]))
                times[kind][i].append(elapsed)
                if reference[i] is None:
                    reference[i] = questions
                elif questions != reference[i]:
                    raise NotRepeatable("%s: the questions answered differ between runs"
                                        % plan[i].text)
            visit_costs[i].append(time.perf_counter() - c0)
            visits += 1
            upcoming = statistics.median(visit_costs[visits % len(plan)] or [0.0])
            if visits >= len(plan) and time.perf_counter() + upcoming > deadline:
                break
        speed.probe_now()
    except tasks.WrongAnswer as exc:
        print("WRONG ANSWER: %s" % exc)
        asked = [q for questions in reference if questions for q in questions]
        print(json.dumps({"correct": False, "attempted": max(len(asked), 1),
                          "failed": sum(1 for q in asked if q[2] is not None),
                          "metrics": {}, "setup_s": setup_s}))
        return EXIT_WRONG
    except NotRepeatable as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 4
    finally:
        if tracer:
            tracer.uninstall()

    asked = [q for questions in reference for q in questions]  # one pass over the tasks
    failures = [q for q in asked if q[2] is not None]
    per_pass = len(asked)
    runs = [len(ts) for ts in times["plain"]]
    print("workload %s, seed %d: %d tasks, %d questions; each task ran %d to %d times per kind"
          % (args.workload, args.seed, len(plan), per_pass, min(runs), max(runs)))
    print("failed_ratio %d/%d = %.4f per pass" % (len(failures), per_pass,
                                                  len(failures) / per_pass))
    for task, question, error in failures:
        print("  failed: %s %s (%s)" % (task, question, error))
    baseline = {tuple(q) for q in tasks.load_golden()["baseline_failures"][args.workload]}
    now = set(failures)
    print("against the recorded seed baseline: %d new failures, %d now answered"
          % (len(now - baseline), len(baseline - now)))

    if tracer:
        from spans import layer_metrics
        samples = {task.text: len(ts) for task, ts in zip(plan, times["traced"])}
        metrics = layer_metrics(tracer.spans, samples, tasks.VERIFY_CHECKS)
        traced = sum(statistics.median(ts) for ts in times["traced"])
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (
            traced - sum(statistics.median(ts) for ts in times["plain"]), "s")
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(spans_file)
        print("spans written to %s" % spans_file.relative_to(ROOT))
    else:
        medians = [statistics.median(ts) for ts in times["plain"]]
        scale = speed.scale()
        print("measured: wall %.4f s, slowest task %.4f s; %d speed probes, %.4f reference s per s"
              % (sum(medians), max(medians), len(speed.times), scale))
        metrics = {
            "wall_s": (sum(medians) * scale, "s"),
            "slowest_task_s": (max(medians) * scale, "s"),
            "answered_ratio": (1 - len(failures) / per_pass, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(json.dumps({"correct": True, "attempted": per_pass, "failed": len(failures),
                      "metrics": metrics, "setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
