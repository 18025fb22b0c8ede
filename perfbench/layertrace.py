"""Outside-in layer tracer for the gibbsdyn benchmark.

The library is not instrumented.  Instead, `Tracer.install` replaces each
function named in `LAYERS` with a wrapper, at every attribute of every loaded
gibbsdyn module that is bound to the original (`flow`, `harness` and `gibbs`
bind layer functions with `from ... import`, so patching the defining module
alone would miss most calls).  Each call records one span in memory: its id,
its parent span on the same thread, thread, start, end, self time and work
counts.  Self time is the span's duration minus the time of the child spans
it caused on its own thread's stack, so spans opened in `evolve_ensemble`'s
worker threads are their own roots.

FFT calls are counted, not spanned: every numpy.fft / scipy.fft transform adds
its complex point count to the innermost open span of its thread, so a
half-spectrum transform shows up as fewer points without any formula here
knowing about it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time

import numpy as np

ALL = frozenset({"ensemble_wide", "trajectory_long", "trajectory_recorded"})
ENSEMBLE = frozenset({"ensemble_wide", "trajectory_long"})
RECORDED = frozenset({"trajectory_recorded"})

# wrapped function -> workloads that must call it; a traced run fails when a
# function expected on its workload records no call (e.g. after a rename)
LAYERS: dict[str, frozenset] = {
    "rng.stream": ALL,
    "linear_dynamics.build_table": ALL,
    "linear_dynamics.draw_increments": ALL,
    "linear_dynamics.propagate_states": ALL,
    "linear_dynamics.increments_to_states": ALL,
    "linear_dynamics.xalpha_norm": RECORDED,
    "spectral.dealiased_cube_coeffs": ALL,
    "spectral.quartic_integral_coeffs": ALL,
    "spectral.holder_norm": RECORDED,
    "gibbs.sample_mu_states": ENSEMBLE,
    "gibbs.interaction_states": ENSEMBLE,
    "gibbs.sample_rho": frozenset({"trajectory_long"}),
    "gibbs.estimate": ENSEMBLE,
    "observables.resolve": ENSEMBLE,
    "observables.eval": ENSEMBLE,  # the callables `resolve` returns
    "flow.kick_states": ALL,
    "flow.evolve_ensemble": ENSEMBLE,
    "flow.evolve": RECORDED,
    "flow.energy_states": RECORDED,
    "flow.energy_monitor": RECORDED,
    "harness.run_experiment": ALL,
    "cli.main": ALL,
}

_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "rfft2", "rfftn")
_IRFFT_NAMES = ("irfft", "irfft2", "irfftn")


def _n_half(n_modes: int) -> int:
    # zero mode plus one of each +-n pair
    return (n_modes + 1) // 2


def _work_draw_increments(args, kwargs, out):
    return {"normals": 2 * out.size}  # one complex increment = two normals


def _work_sample_mu_states(args, kwargs, out):
    return {"normals": 4 * out.shape[0] * _n_half(out.shape[-1])}


def _work_propagate_states(args, kwargs, out):
    S, states = args[0], args[1]
    return {
        "rows": math.prod(states.shape[:-2]),
        "bytes": S.nbytes + states.nbytes + out.nbytes,
    }


def _work_eval(args, kwargs, out):
    return {"rows": args[1].shape[0]}


def _work_evolve_ensemble(args, kwargs, out):
    cfg, initial = args[0], args[1]
    finals = out[2].reshape(out[2].shape[0], -1)
    blown = int(np.count_nonzero(~np.isfinite(finals).all(axis=1)))
    return {"member_steps": initial.shape[0] * cfg.n_steps, "blowups": blown}


def _work_evolve(args, kwargs, out):
    cfg = args[1]
    if out.blowup_time is None:
        return {"member_steps": cfg.n_steps, "blowups": 0}
    return {"member_steps": round(out.blowup_time / cfg.h), "blowups": 1}


def _work_estimate(args, kwargs, out):
    return {"min_ess": out[2]}


WORK = {
    "linear_dynamics.draw_increments": _work_draw_increments,
    "gibbs.sample_mu_states": _work_sample_mu_states,
    "linear_dynamics.propagate_states": _work_propagate_states,
    "observables.eval": _work_eval,
    "flow.evolve_ensemble": _work_evolve_ensemble,
    "flow.evolve": _work_evolve,
    "gibbs.estimate": _work_estimate,
}


class Tracer:
    """Span recorder; create one per process, `install` it, `summary` at the end."""

    def __init__(self):
        self.spans: list[tuple] = []  # recorded when a call returns
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._build_table_misses = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        work_of = WORK.get(name)
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [next(ids), 0.0, 0]  # span id, child time, fft points
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
            work = work_of(args, kwargs, out) if work_of is not None else {}
            if frame[2]:
                work["fft_points"] = frame[2]
            # a tuple of untracked values: the cyclic GC stops rescanning old spans
            spans.append((frame[0], parent, name, get_ident(), start, end,
                          duration - frame[1], work or None))
            return out

        return traced

    def _count_fft(self, fn, inverse_real: bool):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            stack = self._stack()
            if stack:
                # complex points transformed: the half spectrum for real transforms
                stack[-1][2] += (a.size if inverse_real else out.size)
            return out

        return counted

    def install(self) -> None:
        """Wrap every function in LAYERS and count every FFT; raises
        AttributeError when a layer function no longer exists."""
        import numpy.fft
        import scipy.fft

        import gibbsdyn.cli  # noqa: F401  (loads every layer module)

        mods = [m for n, m in list(sys.modules.items()) if n == "gibbsdyn" or n.startswith("gibbsdyn.")]
        replace: dict[int, object] = {}
        for qual in LAYERS:
            if qual == "observables.eval":
                continue
            mod_name, fn_name = qual.split(".")
            orig = getattr(sys.modules[f"gibbsdyn.{mod_name}"], fn_name)
            if qual == "observables.resolve":
                replace[id(orig)] = self.wrap(qual, self._traced_resolve(orig))
            elif qual == "linear_dynamics.build_table":
                replace[id(orig)] = self.wrap(qual, self._counted_build_table(orig))
            else:
                replace[id(orig)] = self.wrap(qual, orig)
        for fft_mod in (numpy.fft, scipy.fft):
            for fn_name in _FFT_NAMES + _IRFFT_NAMES:
                orig = getattr(fft_mod, fn_name)
                wrapped = self._count_fft(orig, fn_name in _IRFFT_NAMES)
                replace[id(orig)] = wrapped
                setattr(fft_mod, fn_name, wrapped)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])

    def _traced_resolve(self, orig):
        def resolve(name, grid):
            return self.wrap("observables.eval", orig(name, grid))

        return resolve

    def _counted_build_table(self, orig):
        def build_table(grid, h):
            before = orig.cache_info().misses
            out = orig(grid, h)
            self._build_table_misses += orig.cache_info().misses - before
            return out

        return build_table

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds `s`, `self_s`, summed work
        counts (minimum for `min_ess`)."""
        out: dict[str, dict] = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYERS}
        for _, _, name, _, start, end, self_s, work in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += self_s
            for key, value in (work or {}).items():
                if key.startswith("min_"):
                    agg[key] = min(agg.get(key, value), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        out["linear_dynamics.build_table"]["misses"] = self._build_table_misses
        return out

    def write_spans(self, path) -> None:
        """All spans as CSV: id,parent,name,thread,start,end,self_s."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,thread,start,end,self_s\n")
            for sid, parent, name, tid, start, end, self_s, _ in self.spans:
                fh.write(f"{sid},{parent},{name},{tid},{start:.9f},{end:.9f},{self_s:.9f}\n")
