"""Per-layer tracing installed from outside the library.

Wrappers go at every place a layer's entry point is looked up: methods on
their class, module functions in every ``houghton`` module that imported
them, and the kernel's axiom and variant tables.  Each call is folded into
counters and second totals at once, so memory stays bounded however many
calls a run makes.

A layer's self time is the time spent inside its outermost wrapped call
minus the time of wrapped calls into other layers made from it.  O(1)
accessors (``apply``, ``__call__``, ``support``, ``__eq__``, ``__hash__``,
``is_identity``) are not wrapped; their time stays with the caller.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("perm", "elem", "orbits", "certs", "construct", "bounds")

PERM_METHODS = (
    "__init__", "__mul__", "inverse", "__pow__", "conjugate", "translate",
    "cycles", "order", "is_even", "is_three_cycle", "orbit_of", "__str__",
)
PERM_STATIC = ("identity", "from_cycles", "cycle", "parse")
ELEM_METHODS = ("__mul__", "inverse", "__pow__", "conjugate", "eventual_bound", "__str__")
ELEM_FUNCS = (
    "identity", "t", "finitary", "make_s", "parse_element", "parse_group",
    "member", "G", "in_class_tk", "class_tk_relabel",
)
ORBIT_FUNCS = ("decompose", "orbit_index")
CERT_FUNCS = (
    "verify", "verify_positive", "verify_negative", "eval_word",
    "cert_to_dict", "cert_to_json", "cert_from_dict", "cert_from_json",
)
CONSTRUCT_FUNCS = (
    "gcd_test", "partner_alt_g1", "partner_alt_g2", "partner_nonalt",
    "pair_partner_g1", "pair_partner_g2", "two_gen_alpha", "euclid_word",
    "evens_odds_reduce", "three_cycle_word", "alt_basis_words",
)
BOUNDS_FUNCS = ("defeat_set", "spread_zero_witness", "refute_dominating", "defeat_ten")

CERT_KINDS = (
    "gcd_criterion", "g2_seed", "alt_basis", "odd_even_mix",
    "finitary", "shift_lattice", "invariant_set", "block_system",
    "imprimitivity3", "not_in_group",
)

# (name, unit) of every per-layer metric, normalised per request
METRICS = (
    ("perm.new", "count/req"),
    ("perm.mul", "count/req"),
    ("perm.self_s", "s/req"),
    ("elem.mul", "count/req"),
    ("elem.pow", "count/req"),
    ("elem.self_s", "s/req"),
    ("elem.class_tk_s", "s/req"),
    ("elem.parse_s", "s/req"),
    ("orbits.calls", "count/req"),
    ("orbits.s", "s/req"),
    ("certs.verify", "count/req"),
    ("certs.verify_s", "s/req"),
) + tuple(("certs.verify_s." + kind, "s/req") for kind in CERT_KINDS) + (
    ("certs.eval_word_s", "s/req"),
    ("certs.from_json_s", "s/req"),
    ("certs.steps", "count/req"),
    ("construct.calls", "count/req"),
    ("construct.search_s", "s/req"),
    ("construct.derive_s", "s/req"),
    ("construct.finish_s", "s/req"),
    ("construct.fail", "count/req"),
    ("bounds.calls", "count/req"),
    ("bounds.self_s", "s/req"),
    ("bounds.check_s", "s/req"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """Counters, inclusive timers and per-layer self time."""

    def __init__(self):
        self.counts: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.active: Dict[str, int] = defaultdict(int)
        self.stack: List[list] = []  # [layer, start, time in other layers]
        self._undo: List[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def layer_call(
        self,
        fn: Callable,
        layer: str,
        count: Optional[str] = None,
        timer: Optional[str] = None,
        extra: Optional[Callable] = None,
        fail: Optional[tuple] = None,
    ) -> Callable:
        """Wrap an entry point of layer.  ``count`` counts every call, or
        only outermost ones when ``timer`` is set; ``timer`` adds the
        outermost call's wall time; ``extra(counts, args)`` adds more
        counts on outermost calls; ``fail`` = (exception type, key)
        counts outermost calls that raise it."""
        counts, seconds, self_s, active, stack = (
            self.counts, self.seconds, self.self_s, self.active, self.stack
        )

        @wraps(fn)
        def wrapper(*args, **kw):
            outer = timer is not None and not active[timer]
            if count is not None and (timer is None or outer):
                counts[count] += 1
            new_frame = not stack or stack[-1][0] != layer
            if not new_frame and not outer:
                return fn(*args, **kw)
            if outer:
                active[timer] += 1
                if extra is not None:
                    extra(counts, args)
            start = perf_counter()
            if new_frame:
                stack.append([layer, start, 0.0])
            try:
                return fn(*args, **kw)
            except BaseException as exc:
                if outer and fail is not None and isinstance(exc, fail[0]):
                    counts[fail[1]] += 1
                raise
            finally:
                dt = perf_counter() - start
                if new_frame:
                    frame = stack.pop()
                    self_s[layer] += dt - frame[2]
                    if stack:
                        stack[-1][2] += dt
                if outer:
                    active[timer] -= 1
                    seconds[timer] += dt

        return wrapper

    def timed(self, fn: Callable, timer: str) -> Callable:
        """Add the outermost call's wall time to timer; no layer frame."""
        seconds, active = self.seconds, self.active

        @wraps(fn)
        def wrapper(*args, **kw):
            if active[timer]:
                return fn(*args, **kw)
            active[timer] += 1
            start = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                seconds[timer] += perf_counter() - start
                active[timer] -= 1

        return wrapper

    # -- installation -------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name], True))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name], False))
            setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the entry points of the loaded ``houghton`` modules."""
        mods = {n: m for n, m in sys.modules.items() if n.startswith("houghton") and m}
        perm, elem, orbits, certs = (mods["houghton." + n] for n in ("perm", "elem", "orbits", "certs"))
        construct, bounds = mods["houghton.construct"], mods["houghton.bounds"]

        for name in PERM_METHODS:
            key = {"__init__": "perm.new", "__mul__": "perm.mul"}.get(name)
            self._set(perm.FinPerm, name, self.layer_call(perm.FinPerm.__dict__[name], "perm", count=key))
        for name in PERM_STATIC:
            fn = perm.FinPerm.__dict__[name].__func__
            self._set(perm.FinPerm, name, staticmethod(self.layer_call(fn, "perm")))
        for name in ELEM_METHODS:
            key = {"__mul__": "elem.mul", "__pow__": "elem.pow"}.get(name)
            self._set(elem.GroupElement, name, self.layer_call(elem.GroupElement.__dict__[name], "elem", count=key))
        self._set(
            orbits.OrbitDecomposition, "orbit_id_of",
            self.layer_call(orbits.OrbitDecomposition.__dict__["orbit_id_of"], "orbits",
                            count="orbits.calls", timer="orbits.s"),
        )

        def steps(counts, args):
            cert = args[0] if args else None
            counts["certs.steps"] += len(getattr(cert, "steps", ())) or 1

        construct_error = construct.ConstructError
        wrapped = {}
        for mod, names, layer, opts in (
            (elem, ELEM_FUNCS, "elem", {}),
            (orbits, ORBIT_FUNCS, "orbits", {"count": "orbits.calls", "timer": "orbits.s"}),
            (certs, CERT_FUNCS, "certs", {}),
            (construct, CONSTRUCT_FUNCS, "construct",
             {"count": "construct.calls", "timer": "construct.busy",
              "fail": (construct_error, "construct.fail")}),
            (bounds, BOUNDS_FUNCS, "bounds", {"count": "bounds.calls", "timer": "bounds.busy"}),
        ):
            for name in names:
                fn = getattr(mod, name)
                kw = dict(opts)
                if name in ("in_class_tk", "class_tk_relabel"):
                    kw["timer"] = "elem.class_tk_s"
                elif name == "parse_element":
                    kw["timer"] = "elem.parse_s"
                elif name in ("verify", "verify_positive", "verify_negative"):
                    kw.update(count="certs.verify", timer="certs.verify_s", extra=steps)
                elif name == "cert_from_json":
                    kw["timer"] = "certs.from_json_s"
                wrapped[id(fn)] = self.layer_call(fn, layer, **kw)

        # every module-level name bound to an entry point, wherever imported
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and callable(value):
                    self._set(vars(mod), name, wrapped[id(value)])
        # stage timers at the lookup sites of one layer's calls into another
        self._set(vars(certs), "eval_word", self.timed(vars(certs)["eval_word"], "certs.eval_word_s"))
        self._set(vars(construct), "eval_word", self.timed(vars(construct)["eval_word"], "construct.derive_s"))
        for name in ("verify", "verify_positive"):
            self._set(vars(construct), name, self.timed(vars(construct)[name], "construct.finish_s"))
        self._set(vars(bounds), "verify_negative", self.timed(vars(bounds)["verify_negative"], "bounds.check_s"))
        for table in (certs._AXIOMS, certs._NEGATIVES):
            for kind, fn in list(table.items()):
                self._set(table, kind, self.timed(fn, "certs.verify_s." + kind))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value, is_dict = self._undo.pop()
            if is_dict:
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- results ------------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Every per-layer metric (except trace.overhead) as a run total."""
        out: Dict[str, float] = {}
        for name, unit in METRICS:
            if name == "trace.overhead":
                continue
            if name.endswith(".self_s"):
                out[name] = self.self_s[name.split(".")[0]]
            elif name == "construct.search_s":
                out[name] = (
                    self.seconds["construct.busy"]
                    - self.seconds["construct.derive_s"]
                    - self.seconds["construct.finish_s"]
                )
            elif unit == "s/req":
                out[name] = self.seconds[name]
            else:
                out[name] = self.counts[name]
        return out
