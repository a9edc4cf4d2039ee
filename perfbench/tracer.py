"""Spans around dispersmooth's public functions, installed from outside the package.

A span is ``[id, name, start, end, parent, thread, attrs]``: parent is the id
of the span open on the same thread when it started (-1 for none), so pool
workers get their own span trees.  Spans stay in memory until `dump`.

Wrapping finds every module attribute of the package bound to a target
function, so ``from .evolution import lawson_rk4_run`` in another module is
wrapped too.  A target that no longer exists is listed in ``absent`` and
skipped; it never stops the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

PACKAGE = "dispersmooth"

# n-d, complex and real entry points of numpy.fft and scipy.fft.
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
)

TRANSFORMS = ("spectral.to_samples", "spectral.to_coefficients")
STEPPER = "evolution.lawson_rk4_run"
STEPPER_BINDINGS = (STEPPER, "dissipative.lawson_rk4_run", "highlow.lawson_rk4_run")
STEPPER_CALLABLES = ("rhs", "half_step", "observer")
PLAIN_TARGETS = (
    "dissipative.attractor_diagnostics",
    "highlow.run_global",
    "highlow.low_energy",
    "smoothing.smoothing_scan",
    "smoothing.duhamel_residual",
    "evolution.conserved_quantities",
    "spectral.sobolev_norm",
    "reporting.write_outputs",
    "config.load_config",
)


def _resolve(target: str):
    module, _, name = target.partition(".")
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    fn = getattr(mod, name, None)
    return fn if callable(fn) else None


def _rebind(original, replacement) -> None:
    """Point every package-level binding of ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install_step_counter(counter: list[int]) -> bool:
    """Add each stepper call's ``n_steps`` to ``counter[0]``; False if absent."""
    fn = _resolve(STEPPER)
    if fn is None:
        return False
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counter[0] += int(signature.bind(*args, **kwargs).arguments.get("n_steps", 0))
        return fn(*args, **kwargs)

    _rebind(fn, counted)
    return True


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._wrappers: set[int] = set()  # ids of the wrappers installed so far

    def _stack(self) -> list[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            return local.stack

    def wrap(self, name: str, fn, before=None, after=None):
        """``before(args, kwargs) -> (args, kwargs, attrs)``; ``after(result, attrs)``."""
        spans, ids, clock, stack_of = self.spans, self._ids, time.perf_counter, self._stack
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def span(*args, **kwargs):
            attrs = None
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            stack = stack_of()
            rec = [next(ids), name, 0.0, 0.0, stack[-1] if stack else -1, get_ident(), attrs]
            stack.append(rec[0])
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                spans.append(rec)
            if after is not None:
                after(result, attrs)
            return result

        return span

    # -- transforms ---------------------------------------------------------

    def install_fft(self) -> None:
        """Wrap the numpy.fft and scipy.fft entry points; call before importing the package."""
        import numpy.fft

        modules = [("numpy.fft", numpy.fft)]
        try:
            import scipy.fft

            modules.append(("scipy.fft", scipy.fft))
        except ImportError:
            pass

        def before(args, kwargs):
            first = args[0] if args else kwargs.get("x", kwargs.get("a"))
            return args, kwargs, {"bytes": getattr(first, "nbytes", 0)}

        def after(result, attrs):
            attrs["bytes"] += getattr(result, "nbytes", 0)

        for label, module in modules:
            for fname in FFT_FUNCTIONS:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                setattr(module, fname, self.wrap(f"fft:{label}.{fname}", fn, before, after))

    # -- package functions --------------------------------------------------

    def _install(self, target: str, before=None, after=None) -> None:
        fn = _resolve(target)
        if fn is None:
            self.absent.append(target)
            return
        if id(fn) in self._wrappers:  # another name for an already wrapped function
            return
        wrapper = self.wrap(target, fn, before, after)
        self._wrappers.add(id(wrapper))
        _rebind(fn, wrapper)

    def install_package(self) -> None:
        """Wrap the package's public layer functions; call after importing it."""
        for target in TRANSFORMS + PLAIN_TARGETS:
            self._install(target)

        def records(result, attrs):
            if isinstance(result, list):
                attrs["records"] = len(result)

        def integrate_before(args, kwargs):
            state = args[0] if args else kwargs.get("state")
            system = getattr(getattr(state, "system", None), "value", None)
            return args, kwargs, {"system": system}

        self._install("evolution.integrate", integrate_before, records)
        self._install(
            "dissipative.integrate_damped", lambda a, k: (a, k, {"system": "damped"}), records
        )

        for target in STEPPER_BINDINGS:
            fn = _resolve(target)
            if fn is None:
                self.absent.append(target)
            elif id(fn) not in self._wrappers:
                self._install_stepper(fn)

    def _install_stepper(self, fn) -> None:
        signature = inspect.signature(fn)

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            for key in STEPPER_CALLABLES:
                callback = bound.arguments.get(key)
                if callback is not None:
                    bound.arguments[key] = self.wrap(f"stepper.{key}", callback)
            return bound.args, bound.kwargs, {"n_steps": bound.arguments.get("n_steps")}

        wrapper = self.wrap(STEPPER, fn, before)
        self._wrappers.add(id(wrapper))
        _rebind(fn, wrapper)

    def dump(self, path: str) -> None:
        used = {rec[1][4:].rsplit(".", 1)[0] for rec in self.spans if rec[1].startswith("fft:")}
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent, "fft_modules": sorted(used)}, fh)
