"""Per-layer tracing from outside the program.

``Tracer`` rebinds each named public function in every ``spdcpol`` module
that holds it (``coincidence_rate`` lives in both ``measurement`` and
``scenario``, for example), so calls made inside the package are seen too.
Each call becomes a span (op id, span id, parent span id, name, start, end,
self time) kept in memory; per-point leaf calls are only counted and timed,
because recording them as spans would cost more than the calls themselves.
Self time is a call's duration minus the time of the traced calls it made.
Leaving the ``with`` block restores every original binding.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute) pairs; "SourceConfig" times the dataclass's
# __post_init__, which holds all of its construction work.
TARGETS = (
    ("config", "parse_config"),
    ("crystal", "phase_matching_cut_angle"),
    ("crystal", "index_ordinary"),
    ("biphoton", "SourceConfig"),
    ("biphoton", "state_at_angle"),
    ("biphoton", "bell_angles"),
    ("geometry", "external_to_internal_angle"),
    ("measurement", "coincidence_rate"),
    ("measurement", "window_coincidences"),
    ("measurement", "aperture_density_matrix"),
    ("measurement", "concurrence"),
    ("measurement", "simulate_counts"),
    ("quadrature", "adaptive_simpson"),
    ("scenario", "load_scenario"),
    ("scenario", "run_scenario"),
    ("output", "to_csv"),
    ("output", "to_json"),
    ("output", "write_table"),
    ("cli", "main"),
)

# Called per scan point or integrand evaluation: counted and timed (self
# time included), but not kept as spans.
HOT = {"crystal.index_ordinary", "biphoton.state_at_angle",
       "measurement.coincidence_rate", "measurement.simulate_counts",
       "geometry.external_to_internal_angle"}

NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)


class Tracer:
    def __init__(self):
        self.op = 0
        self.spans: list[tuple] = []
        self.hot = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.integrand_evals = 0
        self.output_bytes = 0
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 1
        self._restore: list[tuple] = []

    # -- patching -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        homes = [importlib.import_module(f"spdcpol.{module}")
                 for module, _ in TARGETS]
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spdcpol" or name.startswith("spdcpol.")]
        for home, (module, attr) in zip(homes, TARGETS):
            name = f"{module}.{attr}"
            original = getattr(home, attr)
            if isinstance(original, type):
                init = original.__post_init__
                self._bind(original, "__post_init__",
                           self._wrap(name, init))
                continue
            wrapper = self._wrap(name, original)
            for holder in modules:
                if getattr(holder, attr, None) is original:
                    self._bind(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _bind(self, holder, attr, wrapper) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    # -- recording ------------------------------------------------------
    def _wrap(self, name: str, func):
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        if name in HOT:
            hot = self.hot[name]

            def leaf(*args, **kwargs):
                frame = [0, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    spent = clock() - start
                    stack.pop()
                    hot[0] += 1
                    hot[1] += spent - frame[1]
                    if stack:
                        stack[-1][1] += spent
            return leaf

        counting = name == "quadrature.adaptive_simpson"
        measuring = name in ("output.to_csv", "output.to_json")

        def span(*args, **kwargs):
            if counting:
                integrand = args[0]

                def counted(theta):
                    tracer.integrand_evals += 1
                    return integrand(theta)
                args = (counted,) + args[1:]
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((tracer.op, span_id, parent, name,
                                     start, end, end - start - frame[1]))
            if measuring:
                tracer.output_bytes += len(result.encode())
            return result
        return span

    # -- aggregation ----------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every traced op."""
        out = {name: [0, 0.0] for name in NAMES}
        for name, (calls, seconds) in self.hot.items():
            out[name] = [calls, seconds]
        for _op, _sid, _parent, name, _start, _end, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        return {name: (calls, seconds) for name, (calls, seconds)
                in out.items()}
