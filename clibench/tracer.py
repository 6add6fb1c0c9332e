"""Per-layer tracing of lindbladmv from outside the program.

Each traced function is replaced by a wrapper in every module that holds a
reference to it: ``from .linalg import expm`` copies the name into the
importing module, so rebinding ``linalg.expm`` alone would miss those calls.
A call opens a span whose parent is the innermost open span; on return the
span's duration goes to the function's total and is subtracted from its
parent's self time.  Spans are folded into per-function counters as they
close (a dense-n16 round opens about a million of them), and parent->child
edges are kept so the call tree can be read back from the trace file.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, function) pairs traced; the two scipy entries are the dependency boundary.
TRACED = (
    ("lindbladmv.cli", "main"),
    ("lindbladmv.modelio", "load_model"),
    ("lindbladmv.modelio", "load_state"),
    ("lindbladmv.modelio", "load_observables"),
    ("lindbladmv.model", "validate_state"),
    ("lindbladmv.model", "apply_generator"),
    ("lindbladmv.model", "apply_adjoint"),
    ("lindbladmv.vectorized", "build_superoperator"),
    ("lindbladmv.vectorized", "propagate"),
    ("lindbladmv.vectorized", "spectrum"),
    ("lindbladmv.linalg", "as_square"),
    ("lindbladmv.linalg", "hs_inner"),
    ("lindbladmv.linalg", "expm"),
    ("lindbladmv.linalg", "expm_action"),
    ("lindbladmv.linalg", "eig"),
    ("lindbladmv.arnoldi", "arnoldi_reduce"),
    ("lindbladmv.arnoldi", "propagate_reduced"),
    ("lindbladmv.arnoldi", "ritz_values"),
    ("lindbladmv.heisenberg", "close_set"),
    ("lindbladmv.heisenberg", "expectations"),
    ("lindbladmv.heisenberg", "propagate_expectations"),
    ("lindbladmv.heisenberg", "adjoint_spectrum"),
    ("lindbladmv.analysis", "detect_degeneracy"),
    ("scipy.linalg", "expm"),
    ("scipy.linalg", "eig"),
)


def layer_name(module: str, function: str) -> str:
    """Metric prefix of a traced function: ``linalg.expm``, ``scipy.linalg.eig``."""
    return f"{module.removeprefix('lindbladmv.')}.{function}"


LAYERS = tuple(layer_name(m, f) for m, f in TRACED)


class Tracer:
    """Counts calls and self time per traced function, plus two computed sizes."""

    def __init__(self):
        self._open = []  # per open span: [name, time covered by its children]
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.edges = {}
        self.superop_mb = 0.0
        self.basis_size = 0

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
            "superop_mb": self.superop_mb,
            "basis_size": self.basis_size,
        }

    def _record(self, name: str, result) -> None:
        if name == "vectorized.build_superoperator":
            self.superop_mb = max(self.superop_mb, result.matrix.nbytes / 1e6)
        elif name == "arnoldi.arnoldi_reduce":
            self.basis_size = max(self.basis_size, result.size)

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                edge = (parent, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
                if stack:
                    stack[-1][1] += elapsed
            self._record(name, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a lindbladmv module holds it."""
        import lindbladmv.cli  # noqa: F401  (loads every traced module)

        holders = [m for k, m in sys.modules.items() if k == "lindbladmv" or k.startswith("lindbladmv.")]
        for module_name, function in TRACED:
            module = sys.modules[module_name]
            original = getattr(module, function)
            wrapper = self.wrap(layer_name(module_name, function), original)
            setattr(module, function, wrapper)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
