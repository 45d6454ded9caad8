"""Spans around the library's layer boundaries, recorded from outside src/.

``Tracer.install`` wraps every public function of the esum_lab layer
modules at every module-level name bound to it: ``from .lattice import
norm_eval`` makes ``esum_lab.gamma.norm_eval`` a second name for the same
function, and patching ``esum_lab.lattice`` alone would leave lattice time
under gamma unattributed.  It also wraps the class methods in ``METHODS``,
the ``minimize`` that derivations calls (as ``derivations.powell``) and
``numpy.linalg.svd``, which is charged to the innermost open layer span.

A span has a name, start, end, parent span and task id, plus the extra
quantities its measure returns.  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

import esum_lab
from esum_lab import cli, derivations, esum, gamma, jsum, lattice, verify

ONE_OFF = ("setup", "once")   # task ids of spans outside the timed passes
LAYERS = {"lattice": lattice, "esum": esum, "gamma": gamma, "jsum": jsum,
          "derivations": derivations, "verify": verify, "cli": cli}

METHODS = (
    (esum.FiniteAlgebra, "__init__", "esum.FiniteAlgebra"),
    (esum.ESumAlgebra, "as_finite_algebra", "esum.as_finite_algebra"),
    (esum.ESumAlgebra, "certify_submultiplicative", "esum.certify_submultiplicative"),
    (esum.LatticeBlockNorm, "eval", "esum.LatticeBlockNorm.eval"),
    (esum.LatticeBlockNorm, "dual", "esum.LatticeBlockNorm.dual"),
    (jsum.JSystem, "__init__", "jsum.JSystem"),
)


def _rows(args, kwargs, out):
    return {"rows": len(args[1])}


def _block_rows(args, kwargs, out):
    shape = np.shape(args[1])
    return {"rows": int(np.prod(shape[:-1]))}


def _pairs(args, kwargs, out):
    x = args[0]
    horizon = args[1] if len(args) > 1 else kwargs.get("horizon")
    h = x.system.top + 1 if horizon is None else int(horizon)
    return {"pairs": h * (h + 1) // 2}


def _unknowns(args, kwargs, out):
    return {"unknowns": args[0].dim ** 2}


def _nfev(args, kwargs, out):
    return {"nfev": int(out.nfev)}


def _svd_out_mb(args, kwargs, out):
    """Megabytes of the factors numpy.linalg.svd returns, from their shapes."""
    shape, item = np.shape(args[0]), max(np.asarray(args[0]).dtype.itemsize, 8)
    full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
    compute_uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    m, n = shape[-2:]
    k = min(m, n)
    size = k * 8
    if compute_uv:
        size += ((m * m + n * n) if full else (m * k + k * n)) * item
    for extent in shape[:-2]:
        size *= extent
    return {"out_mb_max": size / 1e6}


# span name -> (measure, the quantities it returns)
MEASURES = {
    "lattice.norm_eval_batch": (_rows, ("rows",)),
    "esum.LatticeBlockNorm.eval": (_block_rows, ("rows",)),
    "jsum.jnorm": (_pairs, ("pairs",)),
    "derivations.derivation_space": (_unknowns, ("unknowns",)),
    "derivations.powell": (_nfev, ("nfev",)),
}
MEASURES.update({layer + ".svd": (_svd_out_mb, ("out_mb_max",)) for layer in LAYERS})


class Tracer:
    """Spans kept as parallel lists of numbers and strings.

    One list object per span would give the cyclic garbage collector a
    growing heap to traverse and slow the traced run down more and more.
    """

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.task_of = [], [], [], [], []
        self.extras = ([], [], [])   # span index, quantity, value
        self.stack = []
        self.task = "setup"
        self.active = True
        self.names = {}   # span name -> quantities its measure returns

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        measure, keys = MEASURES.get(name, (None, ()))
        self.names[name] = keys
        tracer = self
        stack, names, starts, ends = self.stack, self.name, self.start, self.end
        # CPU time of the process, the clock the task times use
        parents, tasks, clock = self.parent, self.task_of, time.process_time
        ex_index, ex_key, ex_value = self.extras

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            tasks.append(tracer.task)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                for key, value in measure(args, kwargs, out).items():
                    ex_index.append(idx)
                    ex_key.append(key)
                    ex_value.append(value)
            return out
        return traced

    def _svd(self, fn):
        """numpy.linalg.svd, charged to the layer of the innermost open span."""
        per_layer = {layer: self._wrap(layer + ".svd", fn) for layer in LAYERS}
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or not tracer.stack:
                return fn(*args, **kwargs)
            return per_layer[tracer.name[tracer.stack[-1]].split(".")[0]](*args, **kwargs)
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer, module in LAYERS.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for module in (esum_lab, *LAYERS.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for cls, attr, name in METHODS:
            setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
        setattr(derivations, "minimize", self._wrap("derivations.powell", derivations.minimize))
        setattr(np.linalg, "svd", self._svd(np.linalg.svd))
        return self

    # -- results ---------------------------------------------------------------

    def write(self, path):
        extras = {}
        for idx, key, value in zip(*self.extras):
            extras.setdefault(idx, {})[key] = value
        with open(path, "w") as fh:
            for idx, span in enumerate(zip(self.name, self.start, self.end,
                                           self.parent, self.task_of)):
                record = dict(zip(("name", "start", "end", "parent", "task"), span))
                if idx in extras:
                    record["extras"] = extras[idx]
                fh.write(json.dumps(record) + "\n")

    def metrics(self, passes):
        """Per-span and per-layer totals for one set-up plus one pass.

        Spans recorded during set-up or by a task that runs once count once;
        spans of the timed passes are divided by ``passes``.
        ``<layer>.task_self_s`` covers the timed passes alone.
        Quantities named ``*_max`` are maxima, the others sums.
        """
        child = [0.0] * len(self.name)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                child[parent] += end - start
        weight = [1.0 if task in ONE_OFF else 1.0 / passes for task in self.task_of]
        out = defaultdict(float)
        for name, keys in self.names.items():
            out[name + ".calls"] = 0.0
            out[name + ".self_s"] = 0.0
            for key in keys:
                out[f"{name}.{key}"] = 0.0
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
            out[layer + ".task_self_s"] = 0.0
        for idx, (name, start, end, task) in enumerate(
                zip(self.name, self.start, self.end, self.task_of)):
            w = weight[idx]
            own = (end - start - child[idx]) * w
            layer = name.split(".")[0]
            out[name + ".calls"] += w
            out[name + ".self_s"] += own
            out[layer + ".self_s"] += own
            if task not in ONE_OFF:
                out[layer + ".task_self_s"] += own
        for idx, key, value in zip(*self.extras):
            name = f"{self.name[idx]}.{key}"
            if key.endswith("_max"):
                out[name] = max(out[name], value)
            else:
                out[name] += value * weight[idx]
        return dict(out)
