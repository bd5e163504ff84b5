"""Per-layer tracing installed from outside the program.

`Tracer.install()` wraps the public functions and methods of every
`satake` module, and rebinds each wrapper at every name a caller looks up
(`satake.cli.classify`, `satake.kottwitz.weyl_group`, class attributes).
A layer is a module; `presets` belongs to the `config` layer.

A call that crosses into another layer opens a span (name, start, end,
parent); a call within the caller's own layer is only counted, which keeps
the span count near the number of layer crossings.  `circle` is counted
only: its arithmetic runs inside the caller's span, so its time is part of
the caller's self time (mostly `abelian`).  Spans are kept in memory and
written out at the end; a span's self time is its duration minus the time
its child spans cover.
"""

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter

LAYERS = {
    "satake.cli": "cli", "satake.config": "config", "satake.presets": "config",
    "satake.rootdata": "rootdata", "satake.matrices": "matrices",
    "satake.abelian": "abelian", "satake.circle": "circle",
    "satake.kottwitz": "kottwitz", "satake.components": "components",
    "satake.report": "report",
}
SPAN_LAYERS = ("cli", "config", "rootdata", "matrices", "abelian", "kottwitz",
               "components", "report")
COUNT_ONLY = ("circle",)
# Operators wrapped besides public methods: they carry the hot arithmetic.
DUNDERS = ("__init__", "__call__", "__matmul__", "__add__", "__sub__",
           "__neg__", "__mul__", "__pow__", "__truediv__")

# Counters reported as per-layer metrics, by wrapped function name.
COUNTERS = {
    "config.resolve_calls": ("config.resolve",),
    "matrices.matmul_calls": ("matrices.IntMatrix.__matmul__",),
    "matrices.smith_calls": ("matrices.smith_normal_form",),
    "abelian.subgroup_coordinates_calls": ("abelian.subgroup_coordinates",),
    "abelian.precompose_calls": ("abelian.GroupCharacter.precompose",),
    "circle.ops": ("circle.ExactCircle.__mul__", "circle.ExactCircle.__pow__"),
    "kottwitz.settings": ("kottwitz.setting_for_datum",
                          "kottwitz.setting_for_torus"),
    "kottwitz.descend_calls": ("kottwitz.descend_to_kottwitz",),
    "kottwitz.classify_calls": ("kottwitz.classify",),
}


class Tracer:
    def __init__(self):
        self.counts = {}
        self.spans = []            # (parent id, name, start, end); index = id
        self.stack = [(-1, None)]  # (span id, layer) of the open spans
        self.layer_of = {}
        self.extra = {"rootdata.weyl_elements": 0, "abelian.characters": 0}
        self.class_keys = set()
        self.kept = []             # spans of each finished command, if kept

    # -- installation --

    def install(self):
        import satake  # noqa: F401  (the package imports every module)
        modules = [m for name, m in sys.modules.items()
                   if name == "satake" or name.startswith("satake.")]
        replaced = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            short = modname.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    replaced[id(obj)] = (obj, self._wrap(obj, layer,
                                                         f"{short}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, layer, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, cls, layer, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(raw, classmethod):
                fn = raw.__func__
                if fn.__module__ == cls.__module__:
                    setattr(cls, attr, classmethod(
                        self._wrap(fn, layer, f"{prefix}.{attr}")))
            elif inspect.isfunction(raw) and raw.__module__ == cls.__module__:
                setattr(cls, attr, self._wrap(raw, layer, f"{prefix}.{attr}"))

    def _wrap(self, fn, layer, name):
        self.layer_of[name] = layer
        counts = self.counts
        counts[name] = 0
        call = self._call
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)
        if layer in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        hook = {"rootdata.weyl_group": self._on_weyl,
                "kottwitz.classify": self._on_classify}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = call(layer, name, fn, args, kwargs)
            if hook is not None:
                hook(result)
            return result
        return wrapper

    def _wrap_generator(self, fn, layer, name):
        counts, call, extra = self.counts, self._call, self.extra
        key = "abelian.characters" if name == "abelian.all_characters" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            it = call(layer, name, fn, args, kwargs)
            while True:
                try:
                    item = call(layer, name, next, (it,), {})
                except StopIteration:
                    return
                if key is not None:
                    extra[key] += 1
                yield item
        return wrapper

    def _call(self, layer, name, fn, args, kwargs):
        stack = self.stack
        parent, parent_layer = stack[-1]
        if parent_layer == layer:
            return fn(*args, **kwargs)
        spans = self.spans
        sid = len(spans)
        spans.append(None)
        stack.append((sid, layer))
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            spans[sid] = (parent, name, t0, t1)

    def _on_weyl(self, group):
        self.extra["rootdata.weyl_elements"] += group.order

    def _on_classify(self, cls):
        # read the values directly so the hook itself calls no wrapper
        self.class_keys.add(tuple((v.q_exponent, v.argument)
                                  for v in cls.representative.character.values))

    # -- per command --

    def begin(self):
        for k in self.counts:
            self.counts[k] = 0
        for k in self.extra:
            self.extra[k] = 0
        self.class_keys.clear()
        self.spans.clear()

    def end(self, keep=False):
        """Self seconds per layer, counters and root-span cover of the
        command just run."""
        spans = self.spans
        child = [0.0] * len(spans)
        covered = 0.0
        for parent, _, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                covered += t1 - t0
        self_s = dict.fromkeys(SPAN_LAYERS, 0.0)
        for sid, (_, name, t0, t1) in enumerate(spans):
            self_s[self.layer_of[name]] += (t1 - t0) - child[sid]
        counts = {metric: sum(self.counts.get(n, 0) for n in names)
                  for metric, names in COUNTERS.items()}
        counts.update(self.extra)
        counts["kottwitz.classes"] = len(self.class_keys)
        if keep:
            base = spans[0][2] if spans else 0.0
            self.kept.append([(p, n, t0 - base, t1 - base)
                              for p, n, t0, t1 in spans])
        return {"self_s": self_s, "counts": counts, "covered": covered,
                "spans": len(spans)}

    def write_spans(self, path, cids):
        """Gzipped JSON lines, one per span: command, id, parent, name,
        start, end (seconds from the command's first span)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for cid, spans in zip(cids, self.kept):
                for sid, (parent, name, t0, t1) in enumerate(spans):
                    fh.write(json.dumps([cid, sid, parent, name,
                                         round(t0, 9), round(t1, 9)]) + "\n")
