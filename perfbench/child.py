"""Processes that the benchmark starts and times.

usage: python child.py cli SPANS ARGS...      an icfhi CLI run ("-" for SPANS: untraced)
       python child.py sweep DATA OUT [SPANS]  the sweep workload, traced when SPANS is given

Both print, as the last line of standard output, one JSON object with the
``perf_counter`` readings (CLOCK_MONOTONIC, so comparable with the parent's)
at which set-up ended and the work started and ended, and the median
duration of the speed probe in each of the two phases.  Set-up is
``import icfhi.cli`` for a CLI run; the parent takes its process start as
the set-up's start.

The process is pinned to one CPU, and a ``SpeedProbe`` thread times a fixed
loop on it while the process runs, so that the parent can express each
phase's duration at a fixed machine speed.

The sweep runs in-process because ``icfhi validate --grid`` stops at the
first undefined cell and then writes nothing.  It writes the cell results,
with the series the correctness gate recomputes, to OUT/cells.json.
"""

import json
import os
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

SWEEP_GROUP = (30, 5)
SWEEP_GAMMAS = ("1/20@30", "1/3@30", "1")
# at y = 3.8, and at some seeds y = 0.2, every pooled index value is equal, so
# those cells are undefined and show the undefined-cell defect as failures
SWEEP_YS = (0.2, 1.4, 2.6, 3.8)

PROBE_INTERVAL_S = 0.02
PROBE_STEPS = 1_500


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_INTERVAL_S on a daemon thread.

    The loop runs no icfhi code, so no change to the package can change how
    long it takes; it slows only when the CPU the process is pinned to
    slows.  The loop holds the GIL for about 0.3 ms, some 1.5% of the time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        state = 1
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = perf_counter()
            for _ in range(PROBE_STEPS):
                state = (state * 1103515245 + 12345) % 2_147_483_648
            self.samples.append((start, perf_counter() - start))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def median(self, begin: float, end: float) -> float | None:
        inside = [duration for start, duration in self.samples if begin <= start < end]
        return statistics.median(inside) if inside else None


def report(probe: SpeedProbe, begin: float, setup_end: float, start: float, end: float,
           **extra) -> None:
    """Print the timings line that the parent reads."""
    probe.stop()
    sys.stdout.flush()
    print(json.dumps({"setup_end": setup_end, "work_start": start, "work_end": end,
                      "setup_probe": probe.median(begin, setup_end),
                      "work_probe": probe.median(start, end), **extra}))


def run_cli(probe, begin, spans_path, argv) -> int:
    import icfhi.cli

    setup_end = perf_counter()
    if spans_path != "-":
        from tracer import install

        install(spans_path)
    start = perf_counter()
    rc = icfhi.cli.main(argv)
    end = perf_counter()
    report(probe, begin, setup_end, start, end)
    return rc


def run_sweep(probe, begin, data, out, spans_path=None) -> int:
    from icfhi import analysis, cohort, linkage, weighting
    from icfhi.errors import InsufficientDataError

    tracer = None
    if spans_path is not None:
        from tracer import install

        tracer = install(spans_path)
    store = cohort.ingest(data)
    evaluator = analysis.CohortEvaluator(store, linkage.default_rules())
    group = analysis.GroupSpec(*SWEEP_GROUP)
    pids = analysis.form_groups(store, [group])[group]
    gammas = [weighting.parse_gamma(text) for text in SWEEP_GAMMAS]
    setup_end = perf_counter()

    # A cell computes what analysis.sweep computes for it, but both statistics
    # even when the first is undefined (analysis.sweep stops there), so that a
    # pass does the same work however many cells a seed leaves undefined.
    start = perf_counter()
    cells = []
    for gamma in gammas:
        for y in SWEEP_YS:
            spec = weighting.make_spec(y, gamma)
            cell = {"gamma": gamma, "y": y}
            try:
                eq = analysis.eqvas_vs_hi(evaluator, pids, spec)
                cell.update(eqvas_n=eq.n, eqvas_coefficient=eq.coefficient, eqvas_p=eq.p_value)
            except InsufficientDataError as exc:
                cell["eqvas_error"] = str(exc)
            try:
                mp = analysis.maxpain_vs_hi(evaluator, pids, spec)
                cell.update(maxpain_n=mp.n, maxpain_median=mp.median,
                            maxpain_significant_portion=mp.significant_portion)
            except InsufficientDataError as exc:
                cell["maxpain_error"] = str(exc)
            cells.append(cell)
    end = perf_counter()
    if tracer is not None:
        tracer.enabled = False

    # the index values behind each cell, read back from the evaluator's cache
    for cell in cells:
        spec = weighting.make_spec(cell["y"], cell["gamma"])
        cell["eqvas_pairs"] = [
            [pid, day, value, hi]
            for pid in pids
            for day, value in store.person(pid).eqvas.items()
            if (hi := evaluator.hi(pid, day, spec)) is not None
        ]
        if "maxpain_error" in cell:
            cell["maxpain"] = {
                pid: [[day, pain, evaluator.hi(pid, day, spec)]
                      for day, pain in analysis.max_pain_by_day(store.person(pid)).items()]
                for pid in pids
            }
    Path(out).mkdir(parents=True, exist_ok=True)
    with open(Path(out) / "cells.json", "w", encoding="utf-8") as fh:
        json.dump({"persons": pids, "cells": cells}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    report(probe, begin, setup_end, start, end,
           failed=sum("eqvas_error" in cell or "maxpain_error" in cell for cell in cells))
    return 0


def main(argv) -> int:
    if not (len(argv) >= 2 and argv[0] == "cli" or len(argv) in (3, 4) and argv[0] == "sweep"):
        print(__doc__, file=sys.stderr)
        return 2
    # the probe thread starts after this and so shares the CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    begin = perf_counter()
    probe = SpeedProbe()
    if argv[0] == "cli":
        return run_cli(probe, begin, argv[1], argv[2:])
    return run_sweep(probe, begin, *argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
