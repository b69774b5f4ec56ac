"""Span tracer that wraps the package's functions from outside the package.

Every function and method defined in a layer module is replaced, at every
module namespace that binds it, by a wrapper that records one span per call.
A span's self time is its duration minus the time covered by its child spans,
so the self times of all spans under a root add up to the root's duration,
less the time of the benchmark's own work done inside them (``harness``):
the counters' hooks and the speed gauge.  That time is booked to
``harness_s`` and to no layer.

Named groups give the per-layer metrics of the benchmark.  A group's ``calls``
counts outermost entries only (a call from one member into another is not a
second call), and its ``self_s`` sums the self time of its members.  A group
whose members are all missing from the package is reported as absent.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time

import numpy as np

# module -> layer; serialization is the JSON side of the cliconfig layer
LAYER_OF_MODULE = {
    "inner": "inner",
    "grids": "grids",
    "fock": "fock",
    "deformation": "deformation",
    "chiral": "chiral",
    "dense": "dense",
    "suites": "suites",
    "cliconfig": "cliconfig",
    "serialization": "cliconfig",
}
LAYERS = ("inner", "grids", "fock", "deformation", "chiral", "dense", "suites", "cliconfig")

# group -> member functions as "module:qualname"
GROUPS = {
    "inner.eval_root": ("inner:eval_root",),
    "inner.eval_inner": ("inner:eval_inner",),
    "grids.omega": ("grids:omega",),
    "deformation.kernel_matrix": ("deformation:kernel_matrix",),
    "deformation.kernel": ("deformation:kernel",),
    "deformation.sharp_momentum_twist": ("deformation:sharp_momentum_twist",),
    "deformation.annihilate_deformed": ("deformation:annihilate_deformed",),
    "deformation.create_deformed": ("deformation:create_deformed",),
    "fock.symmetrize": ("fock:symmetrize",),
    "fock.ladder": ("fock:annihilate", "fock:create",
                    "fock:_annihilate_with_kernel", "fock:_create_with_kernel"),
    "chiral.merge": ("chiral:merge_chiral",),
    "chiral.split": ("chiral:split_chiral",),
    "chiral.cross_twist": ("chiral:cross_kernel", "chiral:_cross_matrix",
                           "chiral:apply_cross_twist_matrix", "chiral:apply_cross_twist",
                           "chiral:fock_cross_matrix", "chiral:apply_cross_twist_fock_matrix",
                           "chiral:apply_cross_twist_fock"),
    "chiral.half_ops": ("chiral:annihilate_half", "chiral:create_half", "chiral:chiral_field"),
    "dense.basis_build": ("dense:FockBasis.__init__", "dense:BiFockBasis.__init__"),
    "dense.operator_matrix": ("dense:operator_matrix",),
    "dense.coefficients": ("dense:FockBasis.coefficients", "dense:BiFockBasis.coefficients"),
}


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Group:
    __slots__ = ("calls", "depth", "members")

    def __init__(self):
        self.calls = 0
        self.depth = 0
        self.members: list[str] = []


class Tracer:
    """In-memory spans for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.groups: dict[str, Group] = {name: Group() for name in GROUPS}
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.absent: list[str] = []  # groups with no member in the package
        self.harness_s = 0.0
        self._child_s: list[float] = []  # one accumulator per open span

    def harness(self, fn, *args):
        """Run fn(*args) as the benchmark's own work: its time counts as a
        child of the open span, so no span's self time includes it, and is
        booked to ``harness_s``."""
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            dur = self.clock() - t0
            self.harness_s += dur
            if self._child_s:
                self._child_s[-1] += dur

    def wrap(self, key: str, fn, pre=None, post=None):
        """Return fn wrapped in a span named key.

        ``pre(args, kwargs)`` runs before the call and ``post(args, result)``
        after it, both as harness work.
        """
        stat = self.stats.setdefault(key, Stat())
        group = next((g for g in self.groups.values() if key in g.members), None)
        stack = self._child_s
        clock = self.clock

        def traced(*args, **kwargs):
            if pre is not None:
                self.harness(pre, args, kwargs)
            if group is not None:
                if group.depth == 0:
                    group.calls += 1
                group.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stat.calls += 1
                stat.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                if group is not None:
                    group.depth -= 1
            if post is not None:
                self.harness(post, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def see(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(hash(key))

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, stat in self.stats.items():
            out[LAYER_OF_MODULE[key.split(":", 1)[0]]] += stat.self_s
        return out


def _hashable(obj):
    """obj itself where its type hashes by value, else its identity."""
    return obj if type(obj).__hash__ is not None else id(obj)


def _grid_key(grid):
    return (float(grid.mass), np.asarray(grid.points).tobytes())


def _hooks(tracer: Tracer) -> dict:
    """Counters measured at call boundaries, keyed by traced function."""

    def eval_root_pre(args, kwargs):
        root, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
        t = np.asarray(t)
        tracer.count("inner.eval_root.points", t.size)
        tracer.see("inner.eval_root", (_hashable(root), t.shape, t.tobytes()))

    def kernel_matrix_pre(args, kwargs):
        spec, grid = args[0], args[1] if len(args) > 1 else kwargs["grid"]
        tracer.see("deformation.kernel_matrix", (_hashable(spec), _grid_key(grid)))

    def sharp_twist_pre(args, kwargs):
        spec, variant, p, psi = args[:4]
        tracer.see("deformation.sharp_momentum_twist",
                   (_hashable(spec), variant, float(p), _grid_key(psi.grid)))

    def symmetrize_pre(args, kwargs):
        tracer.count("fock.symmetrize.bytes_in", getattr(args[0], "nbytes", 0))

    def fock_vector_post(args, result):
        tracer.peak("fock.sector_bytes_max", args[0].sectors[-1].nbytes)

    def basis_post(args, result):
        tracer.peak("dense.basis_dim_max", len(args[0]))

    def operator_matrix_pre(args, kwargs):
        tracer.count("dense.op_applications", len(args[1]))

    return {
        "inner:eval_root": (eval_root_pre, None),
        "deformation:kernel_matrix": (kernel_matrix_pre, None),
        "deformation:sharp_momentum_twist": (sharp_twist_pre, None),
        "fock:symmetrize": (symmetrize_pre, None),
        "fock:FockVector.__post_init__": (None, fock_vector_post),
        "dense:FockBasis.__init__": (None, basis_post),
        "dense:BiFockBasis.__init__": (None, basis_post),
        "dense:operator_matrix": (operator_matrix_pre, None),
    }


def _own_callables(module):
    """(qualname, owning class or None, attribute, member) for each function and
    method that module defines."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if not inspect.isgeneratorfunction(obj):
                yield obj.__qualname__, None, name, obj
        elif (inspect.isclass(obj) and obj.__module__ == module.__name__
              and not issubclass(obj, enum.Enum)):
            for attr, member in list(vars(obj).items()):
                fn = member.__func__ if isinstance(member, staticmethod) else member
                # dataclass-generated methods have no source file of the module
                if (inspect.isfunction(fn)
                        and fn.__code__.co_filename == module.__file__
                        and not inspect.isgeneratorfunction(fn)):
                    yield f"{obj.__name__}.{attr}", obj, attr, member


def install(tracer: Tracer, package: str = "fockdeform"):
    """Wrap every layer function at each of its binding sites.

    Modules are taken from ``sys.modules`` after importing them by name: the
    attribute ``fockdeform.inner`` is the re-exported function ``fock.inner``,
    not the module.  Returns a function that restores the originals.
    """
    modules = {}
    for name in LAYER_OF_MODULE:
        try:
            modules[name] = importlib.import_module(f"{package}.{name}")
        except ImportError:
            continue
    namespaces = [vars(m) for n, m in sys.modules.items()
                  if m is not None and (n == package or n.startswith(package + "."))]
    found = [(f"{name}:{qualname}", owner, attr, member)
             for name, module in modules.items()
             for qualname, owner, attr, member in _own_callables(module)]
    for group_name, members in GROUPS.items():
        tracer.groups[group_name].members.extend(k for k, *_ in found if k in members)
    tracer.absent = sorted(g for g, grp in tracer.groups.items() if not grp.members)
    hooks = _hooks(tracer)
    restore = []
    for key, owner, attr, member in found:
        pre, post = hooks.get(key, (None, None))
        if owner is not None:
            fn = member.__func__ if isinstance(member, staticmethod) else member
            wrapped = tracer.wrap(key, fn, pre, post)
            if isinstance(member, staticmethod):
                wrapped = staticmethod(wrapped)
            restore.append((owner, attr, member))
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(key, member, pre, post)
        for ns in namespaces:
            for bound_name, value in list(ns.items()):
                if value is member:
                    restore.append((ns, bound_name, member))
                    ns[bound_name] = wrapped

    def uninstall():
        for target, attr, original in reversed(restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    return uninstall
