"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the checkout's ``src``, the first config and the argv of each
command. The worker imports memheat, parses the first config (the end of
set-up), runs every command in order through ``memheat.cli.main`` and
writes RESULT: the monotonic time set-up ended, seconds per command, the
speed scale of each command (below), exit codes, peak resident memory and,
with ``trace`` set, the per-layer metrics.

The host this was built on is a shared machine whose CPU speed drifts by tens
of percent over seconds to minutes. While a command runs, a side thread times
a fixed reference loop every CALIBRATION_PERIOD_S, and the command's speed
scale is REFERENCE_SAMPLE_S over the mean sample: the factor that turns its
seconds into seconds at a reference speed. The loop does the kind of
arithmetic the command's work is made of (LOOP_OF), because the two kinds
slow down by different amounts: interpreted integer arithmetic for the
double-precision Volterra march, 256-bit mpmath arithmetic for the Gram
solves. The loops use no memheat code, so a change to memheat moves the
scaled time as it moves the raw time.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import mpmath


CALIBRATION_PERIOD_S = 0.1
# Each loop below takes about this long on a quiet 2.1 GHz Xeon vCPU.
REFERENCE_SAMPLE_S = 0.001
_MPF = mpmath.MPContext()
_MPF.prec = 256


def _interpreter_loop():
    total = 0
    for i in range(20_000):
        total += i * i


def _mpf_loop():
    x, y, total = _MPF.mpf(1) / 3, _MPF.mpf(2) / 7, _MPF.mpf(0)
    for _ in range(300):
        total += x * y
        x += y


LOOP_OF = {
    "simulate": _interpreter_loop,
    "moment": _interpreter_loop,
    "control": _mpf_loop,
    "biorth": _mpf_loop,
}


class Calibrator:
    """Times `loop` on a side thread while a command runs.

    Samples are taken at a fixed period of wall time, so their mean follows
    the command's own mean slowdown. Thread CPU time leaves out the time the
    side thread waits for the interpreter lock.
    """

    def __init__(self, loop):
        self.loop = loop
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        start = time.thread_time()
        self.loop()
        self.samples.append(time.thread_time() - start)

    def _run(self):
        self._sample()
        while not self._stop.wait(CALIBRATION_PERIOD_S):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def scale(self) -> float:
        return REFERENCE_SAMPLE_S / statistics.fmean(self.samples)


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import memheat.cli as cli
    from memheat.config import load_config

    load_config(spec["first_config"])
    ready = time.monotonic()
    if Path(cli.__file__).resolve().parent != src / "memheat":
        raise RuntimeError(f"memheat imported from {cli.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    walls, scales, codes = [], [], []
    for argv in spec["commands"]:
        with Calibrator(LOOP_OF[argv[0]]) as calibrator:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed run, not a dead pass
                code = f"{type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - start)
        scales.append(calibrator.scale)
        codes.append(code)
    if tracer is not None:
        tracer.uninstall()
    result = {
        "ready": ready,
        "walls": walls,
        "scales": scales,
        "codes": codes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.metrics() if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
