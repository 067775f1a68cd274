"""Span tracing installed from outside the library, by module attribute.

``Tracer.install`` wraps every public function defined in the measured
``orthorank`` modules and rebinds the wrapper in every ``orthorank`` module
that holds the original under some name (``tensor_core.matmul`` is reached
as ``tc.matmul``; ``block_forward`` is imported by name into ``selection``).
Nothing under ``src/`` changes; ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, op_id, attrs]``. Spans are recorded
only while a root span opened by ``Tracer.root`` is active, so the
benchmark's own checks, which run outside root spans, leave no spans.
"""

import contextlib
import functools
import inspect
import sys
import time

PACKAGE = "orthorank"
MEASURED_MODULES = (
    "tensor_core",
    "model_runtime",
    "selection",
    "calibration",
    "eval_harness",
    "checkpoint_io",
)

NAME, START, END, PARENT, OP, ATTRS = range(6)

# Attribute hooks run after the call returns, outside its span. They read
# the arguments the library passes positionally at every call site.


def _matmul_attrs(args, result):
    (m, k), n = args[0].shape, args[1].shape[1]
    return 2 * m * k * n


def _block_forward_attrs(args, result):
    # block_forward(model, layer, x, positions, sel, kv_rows, ...)
    return (int(args[1]), args[2].shape[0], len(args[4]), len(args[5]))


def _cache_nbytes(cache):
    return sum(a.nbytes for arrays in (cache.keys, cache.values, cache.positions) for a in arrays)


def _forward_with_plan_attrs(args, result):
    # forward_with_plan(model, token_ids, plan_layers, keep_ratio, ...)
    layers = {int(l) for l in args[2]}
    ratio = args[3]
    planned = float(ratio) if isinstance(ratio, (int, float)) else sum(ratio) / max(1, len(ratio))
    return (layers, planned, _cache_nbytes(result[2]))


def _decode_step_attrs(args, result):
    return _cache_nbytes(result[1])


def _decode_select_attrs(args, result):
    # decode_select(cache, layer, new_score, keep_ratio) -> bool
    return (bool(result), float(args[3]))


def _perplexity_attrs(args, result):
    # perplexity(model, plan, corpus_tokens, context_len, ...)
    plan = args[1]
    return tuple(plan.layers) if plan is not None else ()


ATTR_HOOKS = {
    "tensor_core.matmul": _matmul_attrs,
    "model_runtime.block_forward": _block_forward_attrs,
    "selection.forward_with_plan": _forward_with_plan_attrs,
    "selection.decode_step_with_plan": _decode_step_attrs,
    "selection.decode_select": _decode_select_attrs,
    "eval_harness.perplexity": _perplexity_attrs,
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for short in MEASURED_MODULES:
            mod = modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in modules.values():
                    for held_name, value in list(vars(holder).items()):
                        if value is fn:
                            self._installed.append((holder, held_name, fn))
                            setattr(holder, held_name, wrapper)

    def uninstall(self) -> None:
        for holder, held_name, fn in reversed(self._installed):
            setattr(holder, held_name, fn)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        stack, spans, hook = self._stack, self.spans, ATTR_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [name, 0.0, 0.0, parent, spans[parent][OP], None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[ATTRS] = hook(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str, op_id):
        """Open a root span; library calls inside it are recorded as its descendants."""
        span = [name, 0.0, 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, cursor = 0.0, lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out.append((hi - lo) - covered)
    return out


def ancestor(spans: list[list], index: int, name: str) -> int:
    """Index of the nearest ancestor span called ``name``, or -1."""
    index = spans[index][PARENT]
    while index >= 0 and spans[index][NAME] != name:
        index = spans[index][PARENT]
    return index
