"""Spans around calls into each gridseq module, recorded from outside the library.

:class:`Tracer` rebinds the layer entry points listed in ``LAYERS`` to
wrappers, wherever a gridseq module holds a reference to them (module
globals and module-level dispatch tables), and puts the originals back in
:meth:`Tracer.restore`.  Each wrapper records one span: name, start, end
and parent.  Self time (a span's duration minus the part its child spans
cover) and call counts are accumulated as spans close; the first
``SPAN_CAP`` spans are also kept whole and written out at the end.
"""

import inspect
import json
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 50_000
_MARK = "_perfbench_span"


def _tiling_name(name):
    if name.startswith("rect_encode"):
        return "tiling.encode"
    if name.startswith("rect_decode"):
        return "tiling.decode"
    return "tiling.parse" if name == "parse_tiling_spec" else None


# module -> (public name -> span name, or None to leave it unwrapped).  A
# name the library no longer has is skipped, so a later refactor that
# deletes an entry point reads as zero calls rather than a crash.
LAYERS = {
    "cli": {"main": "cli.main"}.get,
    "schemes": {
        "encode": "schemes.encode",
        "decode": "schemes.decode",
        "decode_by_search": "schemes.search",
        "parse_scheme": "schemes.parse",
        "tiling_scheme": "schemes.parse",
    }.get,
    "tiling": _tiling_name,
    "pairing": lambda name: "pairing",
    "transforms": {"term": "transforms.term", "generate_prefix": "transforms.prefix"}.get,
    "sources": {
        "SequenceSource.value": "sources.value",
        "nth_prime": "sources.prime",
        "totient": "sources.totient",
        "parse_source": "sources.parse",
    }.get,
    "oracle": {"verify_scheme": "oracle.verify", "traverse": "oracle.walk"}.get,
    "oeis": {
        "fetch_bfile": "oeis.fetch",
        "parse_bfile": "oeis.parse",
        "compare_prefix": "oeis.compare",
        "normalize_anum": "oeis.anum",
    }.get,
}


def entry_points(lib):
    """(module, qualified name, function, span name) for every traced entry point."""
    found = []
    for layer, span_of in LAYERS.items():
        module = getattr(lib, layer)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                targets = [(name, obj)]
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                targets = [(f"{name}.{m}", f) for m, f in vars(obj).items()
                           if inspect.isfunction(f) and not m.startswith("_")]
            else:
                continue
            for qualname, fn in targets:
                span = span_of(qualname)
                if span is not None:
                    found.append((module, qualname, fn, span))
    return found


def assert_untraced(lib):
    """Raise if any traced entry point is still rebound to a wrapper."""
    for module in {getattr(lib, layer) for layer in LAYERS}:
        for name, obj in vars(module).items():
            if hasattr(obj, _MARK):
                raise AssertionError(f"{module.__name__}.{name} is still traced")
            if isinstance(obj, dict) and any(hasattr(v, _MARK) for v in obj.values()):
                raise AssertionError(f"{module.__name__}.{name} still holds traced entries")
            if inspect.isclass(obj) and any(hasattr(v, _MARK) for v in vars(obj).values()):
                raise AssertionError(f"{module.__name__}.{name} has traced methods")


class Tracer:
    def __init__(self, lib):
        self._lib = lib
        self._stack = []  # open spans: [name, seconds covered by children, span id]
        self._next_id = 1
        self.spans = []  # (id, parent id, name, start, end), first SPAN_CAP only
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.edges = defaultdict(int)  # (parent span name, child span name) -> calls
        self.verified = 0  # positions reported checked by oracle.verify
        self._undo = []

    # -- rebinding ------------------------------------------------------------------

    def install(self):
        modules = [getattr(self._lib, layer) for layer in LAYERS]
        for module, qualname, fn, span in entry_points(self._lib):
            wrapper = self._wrap(span, fn)
            if "." in qualname:  # a method: rebind it on its class
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                self._undo.append((cls, method, fn, setattr))
                setattr(cls, method, wrapper)
                continue
            for holder in modules:
                space = vars(holder)
                for key, value in list(space.items()):
                    if value is fn:
                        self._undo.append((space, key, fn, dict.__setitem__))
                        space[key] = wrapper
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                self._undo.append((value, k, fn, dict.__setitem__))
                                value[k] = wrapper

    def restore(self):
        while self._undo:
            holder, key, fn, put = self._undo.pop()
            put(holder, key, fn)
        assert_untraced(self._lib)

    def _wrap(self, span, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[span] += 1
                self.self_s[span] += duration - frame[1]
                if parent is None or parent[0] != span:  # count recursion once
                    self.incl_s[span] += duration
                if parent is not None:
                    parent[1] += duration
                    self.edges[parent[0], span] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[2], parent[2] if parent else 0, span, start, end))
                else:
                    self.dropped += 1
            if span == "oracle.verify":
                self.verified += getattr(result, "checked", 0)
            return result

        setattr(traced, _MARK, span)
        traced.__wrapped__ = fn
        return traced

    # -- summaries --------------------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def layer_calls(self, layer):
        return sum(v for k, v in self.calls.items() if k.split(".")[0] == layer)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans, "dropped": self.dropped}, f)
