"""Span tracer for the rpsets layers, installed from outside the package.

Every public function defined in one of the layer modules is replaced by a
wrapper that times each call (a span) and knows its parent span. The wrapper
is set on every module of the package that holds the function under some
name, so a call through an alias such as ``counting.binomial`` or
``cli.count`` is traced too. Self time is a span's duration minus the time
its direct child spans cover.
"""

import functools
import inspect
import sys
import time

LAYERS = ("sieve", "counting", "exactmath", "bounds", "oracle", "cli")

COUNT_FUNCTIONS = ("f_interval", "fk_interval", "phi_interval", "phik_interval")
CHECK_FUNCTIONS = ("check_f", "check_fk", "check_phi", "check_phik")
PARTITION_FUNCTIONS = (
    "partition_sum_f",
    "partition_sum_fk",
    "partition_identity_f",
    "partition_identity_fk",
)


class Tracer:
    """Self time and call count of every wrapped function, kept as it runs.

    A stack holds, for each open call, the summed duration of its direct
    children; when a call ends, its self time is its duration minus that sum,
    and its duration is added to its parent's entry. The bottom entry sums
    the calls made from outside the traced functions.
    """

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [self seconds, calls]
        self._stack = [0.0]
        self.result_bits: list[int] = []
        self.sieve_limits: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def top_s(self) -> float:
        """Summed duration of the calls made from outside the traced functions."""
        return self._stack[0]

    def install(self) -> "Tracer":
        import rpsets  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"rpsets.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rpsets" and not mod_name.startswith("rpsets."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _note_for(self, name: str):
        func = name.rpartition(".")[2]
        if func in COUNT_FUNCTIONS:
            bits = self.result_bits
            return lambda args, kwargs, result: bits.append(result.bit_length())
        if name == "sieve.build_sieve":
            limits = self.sieve_limits
            return lambda args, kwargs, result: limits.append(
                args[0] if args else kwargs["limit"]
            )
        return None

    def _wrap(self, name: str, fn):
        totals = self.totals[name] = [0.0, 0]
        note = self._note_for(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                totals[0] += duration - children
                totals[1] += 1
            if note is not None:
                note(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures named after the package modules."""
        totals = self.totals

        def self_of(*names: str) -> float:
            return sum(totals[n][0] for n in names if n in totals)

        def calls_of(*names: str) -> int:
            return sum(totals[n][1] for n in names if n in totals)

        def layer_self(layer: str) -> float:
            return sum(t[0] for n, t in totals.items() if n.startswith(layer + "."))

        bits = self.result_bits
        return {
            "sieve.self_s": layer_self("sieve"),
            "sieve.build_s": self_of("sieve.build_sieve"),
            "sieve.build_calls": calls_of("sieve.build_sieve"),
            "sieve.limit_sum": sum(self.sieve_limits),
            "sieve.divisors_s": self_of("sieve.divisors"),
            "sieve.divisors_calls": calls_of("sieve.divisors"),
            "counting.self_s": layer_self("counting"),
            "counting.f_s": self_of("counting.f_interval"),
            "counting.fk_s": self_of("counting.fk_interval"),
            "counting.phi_s": self_of("counting.phi_interval"),
            "counting.phik_s": self_of("counting.phik_interval"),
            "counting.calls": calls_of(*(f"counting.{f}" for f in COUNT_FUNCTIONS)),
            "counting.result_bits_sum": sum(bits),
            "counting.result_bits_max": max(bits, default=0),
            "exactmath.self_s": layer_self("exactmath"),
            "exactmath.binomial_s": self_of("exactmath.binomial"),
            "exactmath.binomial_calls": calls_of("exactmath.binomial"),
            "bounds.self_s": layer_self("bounds"),
            "bounds.reports": calls_of(*(f"bounds.{f}" for f in CHECK_FUNCTIONS)),
            "bounds.partition_s": self_of(*(f"bounds.{f}" for f in PARTITION_FUNCTIONS)),
            "oracle.self_s": layer_self("oracle"),
            "oracle.calls": calls_of("oracle.oracle_count", "oracle.oracle_gcd_class_counts"),
            "cli.self_s": layer_self("cli"),
            "cli.render_s": self_of("cli.render_records"),
        }
