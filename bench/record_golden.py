"""Record bench/golden.json from the program in the checkout's src/.

    python3 bench/record_golden.py

Writes the sha256 digest of every benchmark graph's adjacency (after an
exact symmetry and loop check) and of every `enumerate` facet list, and the
questions that fail in one pass over each workload's tasks: the baseline that a later
change's failures are compared against.  The committed file was recorded
from the seed program; re-record only in a change to the benchmark itself.
"""
from __future__ import annotations

import json
import sys

from worker import import_program, run_once


def _exact_symmetric_loopless(g):
    for v, row in enumerate(g.adj):
        if row >> v & 1:
            return False
        m = row >> (v + 1) << (v + 1)
        while m:
            low = m & -m
            if not g.adj[low.bit_length() - 1] >> v & 1:
                return False
            m ^= low
    return True


def main():
    import_program()
    import ucayley as u
    import tasks

    graphs = {}
    for text in dict.fromkeys(tasks.BUILD_RINGS + tasks.SEARCH_RINGS + tasks.ENUMERATE_RINGS):
        g = u.build_graph(u.make_ring(text))
        if not _exact_symmetric_loopless(g):
            raise SystemExit("%s: graph is not symmetric and loopless" % text)
        graphs[text] = tasks.graph_digest(g)
    facets = {text: tasks.facets_digest(u.independence_complex(u.build_graph(u.make_ring(text))))
              for text in tasks.ENUMERATE_RINGS}
    golden = {"graphs": graphs, "facets": facets, "baseline_failures": {}}
    tasks.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")

    for workload in tasks.WORKLOADS:
        questions = [q for task in tasks.plan(workload, 0) for q in run_once(task, 0)[1]]
        golden["baseline_failures"][workload] = sorted(
            [list(q) for q in questions if q[2] is not None])
        print("%s: %d of %d questions fail" % (
            workload, len(golden["baseline_failures"][workload]), len(questions)), file=sys.stderr)
    tasks.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
