"""One benchmark process: a fresh interpreter that imports the CLI and runs one config.

Usage::

    python3 perfbench/child.py --src SRC --experiment NAME --config INI \
        --out DIR --result JSON [--budget SECONDS] [--threads N] [--spans JSON]

Writes to ``--result`` the monotonic time at which the CLI was imported and
the config loaded, the import and load times, the peak resident set after the
first ``dispersmooth.cli.main`` call, and for every call its wall time, CPU
time, RK4 step count and the time of a fixed reference kernel run just before
and after it (`Reference`; untraced processes only).  Calls repeat, each into its own ``DIR/call-<i>``,
until ``--budget`` seconds have passed since the config was loaded (one call
when it is 0).  With ``--spans`` the package's layer functions are traced, a
single call is made and the spans are written there after it returns.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Reference:
    """A fixed numpy FFT kernel, timed to read how fast the CPUs run right now.

    It does the program's kind of work (2-d FFTs at 128^2, pointwise complex
    products) but none of its code, so no change to the program moves it.  It
    runs on as many threads as the program's pool, so it meets the same CPUs.
    """

    REPEATS = 8  # about 40 ms a reading on one unloaded core

    def __init__(self, threads: int) -> None:
        import numpy as np

        self.np = np
        self.threads = threads
        rng = np.random.default_rng(0)
        self.field = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self._kernel()  # warm the FFT plan cache and the allocator

    def _kernel(self) -> None:
        np, field = self.np, self.field
        x = field
        for _ in range(6):
            y = np.fft.fft2(x)
            y *= 0.5
            x = np.fft.ifft2(y) + field * (np.abs(x) ** 2 * 1e-3)

    def _repeat(self) -> None:
        for _ in range(self.REPEATS):
            self._kernel()

    def seconds(self) -> float:
        """Mean wall time of one kernel pass, run on every thread at once."""
        workers = [threading.Thread(target=self._repeat) for _ in range(self.threads - 1)]
        t0 = time.perf_counter()
        for worker in workers:
            worker.start()
        self._repeat()
        for worker in workers:
            worker.join()
        return (time.perf_counter() - t0) / self.REPEATS


def main() -> int:
    parser = argparse.ArgumentParser()
    for flag in ("--src", "--experiment", "--config", "--out", "--result"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--threads", type=int, default=1, help="threads of the reference kernel")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.src).resolve()))
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_fft()

    t0 = time.monotonic()
    import dispersmooth.cli as cli
    from dispersmooth.config import load_config

    t1 = time.monotonic()
    load_config(args.config, experiment=args.experiment)
    t_ready = time.monotonic()

    package = Path(cli.__file__).resolve().parent
    if package.parent != Path(args.src).resolve():
        print(f"imported dispersmooth from {package}, not from {args.src}", file=sys.stderr)
        return 5

    from tracer import install_step_counter

    steps = [0]
    counted = install_step_counter(steps)
    if tracer is not None:
        tracer.install_package()

    # Traced calls are not scaled, and the tracer would count the kernel's FFTs.
    reference = Reference(args.threads) if tracer is None else None
    ref_s = reference.seconds() if reference else None
    ref_ready_s = ref_s
    calls: list[dict] = []
    peak_rss_mb = 0.0
    code = 0
    deadline = t_ready + (0.0 if tracer is not None else args.budget)
    while True:
        out = str(Path(args.out) / f"call-{len(calls)}")
        steps[0] = 0
        cpu0 = _cpu_seconds()
        w0 = time.perf_counter()
        code = cli.main([args.experiment, "--config", args.config, "--out", out, "--quiet"])
        run_s = time.perf_counter() - w0
        cpu_s = _cpu_seconds() - cpu0
        if not calls:
            peak_rss_mb = _peak_rss_mb()
        ref_before, ref_s = ref_s, reference.seconds() if reference else None
        calls.append({
            "out": out,
            "run_s": run_s,
            "cpu_s": cpu_s,
            "steps": steps[0] if counted else None,
            "ref_s": (ref_before + ref_s) / 2 if reference else None,
        })
        # Stop on a failed call, or when another call would end past the budget
        # by more than half of one.
        if code != 0 or time.monotonic() + run_s / 2 >= deadline:
            break

    if tracer is not None:
        tracer.dump(args.spans)
    Path(args.result).write_text(
        json.dumps(
            {
                "exit_code": code,
                "t_ready": t_ready,
                "import_s": t1 - t0,
                "load_s": t_ready - t1,
                "ref_ready_s": ref_ready_s,
                "peak_rss_mb": peak_rss_mb,
                "calls": calls,
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
