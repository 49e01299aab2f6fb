"""Span tracer for the seqens modules, installed from outside the package.

`Tracer.install()` replaces every public function of the eight seqens modules
(plus the optimizer step, the resize-matrix builder and the backward function
each op leaves on the autodiff tape) with a wrapper that records a span
(name, start, end, parent, attributes) in memory. `uninstall()` puts the
originals back, so an untraced round runs the unmodified program.
`layer_metrics()` derives the per-layer figures from the recorded spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import zlib

import numpy as np

MODULES = ("tensor", "nets", "training", "ensembling", "calibration", "analysis", "data", "cli")
# private helpers that a layer metric names
PRIVATE = {"tensor": ("_resize_matrix",)}
NETS_PARTS = (
    "stem", "layer1", "layer2", "layer3", "head",
    "adon_early", "adon_middle", "adon_late", "output_resize",
)
CLI_COMMANDS = ("gen-data", "train", "eval", "ensemble", "calibrate", "fourcase", "diversity")
ELEMENTWISE = frozenset(
    "tensor." + n
    for n in (
        "add", "add_scalar", "mul", "mul_scalar", "sum_all",
        "relu", "affine_modulate", "concat_channels",
    )
)
SOFTMAX_CE = frozenset(("tensor.channel_softmax", "tensor.pixel_cross_entropy"))
# the op-level spans that make up a forward pass through `nets`
TENSOR_OPS = ELEMENTWISE | SOFTMAX_CE | {"tensor.conv2d", "tensor.bilinear_resize"}
FORWARD_ROOTS = frozenset(("nets.predict", "nets.forward_logits", "ensembling.chain_predict"))
ROUND = "bench.round"
SETUP = "bench.setup"

_NAME, _START, _END, _PARENT, _ATTRS = range(5)


def _part_of_param(name: str) -> str:
    return name.split(".", 1)[0]


def _crc(arr) -> int:
    return zlib.crc32(memoryview(np.ascontiguousarray(arr)).cast("B"))


class Tracer:
    """Records spans while installed; `spans` rows are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._part_of: dict[int, str] = {}
        self._adon_parts: list[str] = []
        self._forward_depth = 0
        self._graph_depth = 0
        self._current_part: str | None = None

    # ------------------------------------------------------------------ spans

    def span(self, name: str, **attrs):
        return _SpanContext(self, name, attrs or None)

    def _open(self, name, attrs=None) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[_END] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ installing

    def install(self):
        import seqens

        if self._patches:
            return
        mods = {m: importlib.import_module(f"seqens.{m}") for m in MODULES}
        originals: dict[int, object] = {}
        for short, mod in mods.items():
            names = [
                n for n, v in vars(mod).items()
                if inspect.isfunction(v) and v.__module__ == mod.__name__ and not n.startswith("_")
            ]
            names += [n for n in PRIVATE.get(short, ()) if hasattr(mod, n)]
            for n in names:
                fn = getattr(mod, n)
                originals[id(fn)] = self._wrap(f"{short}.{n}", fn)
        # rebind every module-level reference, including `from .x import y` copies
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(seqens.__name__):
                continue
            for n, v in list(vars(mod).items()):
                w = originals.get(id(v))
                if w is not None:
                    self._patch(mod, n, w)
        T = self._tensor_mod = mods["tensor"]
        self._patch(T.SgdMomentum, "step", self._wrap("tensor.sgd_step", T.SgdMomentum.step))
        self._patch(T.Graph, "__enter__", self._count_graph(T.Graph.__enter__, +1))
        self._patch(T.Graph, "__exit__", self._count_graph(T.Graph.__exit__, -1))
        self._patch(T, "_record", self._wrap_record(T._record))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _count_graph(self, fn, delta):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._graph_depth += delta
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_record(self, record):
        tracer = self

        @functools.wraps(record)
        def wrapper(out, inputs, backward_fn):
            op = tracer.spans[tracer._stack[-1]] if tracer._stack else None
            name = (op[_NAME] if op else "tensor.unknown") + ".bwd"
            op_attrs = (op[_ATTRS] if op else None) or {}
            attrs = {}
            if "part" in op_attrs:
                attrs["part"] = op_attrs["part"]
            if "flop" in op_attrs:
                attrs["flop"] = 2 * op_attrs["flop"]  # grads wrt input and weight

            def traced_backward(g):
                rec = tracer._open(name, attrs or None)
                try:
                    return backward_fn(g)
                finally:
                    tracer._close(rec)

            return record(out, inputs, traced_backward)

        return wrapper

    def _wrap(self, name, fn):
        tracer = self
        enter = getattr(self, "_enter_" + name.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + name.replace(".", "_"), None)
        is_op = name in TENSOR_OPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = enter(args, kwargs) if enter else None
            if is_op and tracer._forward_depth:
                attrs = tracer._charge(name, attrs)
            rec = tracer._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                if leave:
                    leave(args, kwargs)
            return result

        return wrapper

    # ------------------------------------------------------ per-span hooks

    def _charge(self, name, attrs):
        """Attribute an op inside `nets.forward_logits` to the backbone part it serves."""
        attrs = attrs or {}
        if self._adon_parts:
            part = self._adon_parts[-1]
        elif name == "tensor.conv2d":
            part = attrs.get("part") or self._current_part
            self._current_part = part
        elif name == "tensor.bilinear_resize":
            part = "output_resize"
        else:
            part = self._current_part
        attrs["part"] = part
        return attrs

    def _enter_tensor_conv2d(self, args, kwargs):
        x, w = args[0], args[1]
        stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
        padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
        n, cin, h, wd = x.shape
        cout, _, kh, kw = w.shape
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (wd + 2 * padding - kw) // stride + 1
        return {"flop": 2 * n * cout * oh * ow * cin * kh * kw, "part": self._part_of.get(id(w))}

    def _enter_tensor__resize_matrix(self, args, kwargs):
        cache = getattr(self._tensor_mod, "_RESIZE_CACHE", None)
        return {"hit": cache is not None and tuple(args) in cache}

    def _enter_tensor_backward(self, args, kwargs):
        graph = args[0] if args else kwargs.get("graph")
        return {"nodes": len(getattr(graph, "nodes", ()))}

    def _enter_nets_adon_forward(self, args, kwargs):
        self._adon_parts.append(getattr(args[0], "prefix", "adon"))
        return None

    def _leave_nets_adon_forward(self, args, kwargs):
        self._adon_parts.pop()

    def _enter_nets_forward_logits(self, args, kwargs):
        self._forward_depth += 1
        self._current_part = None
        g, image = args[0], args[1]
        # ids, not references: a generation's tensors keep their identity for its life
        for pname, t in g.parameters.items():
            self._part_of[id(t)] = _part_of_param(pname)
        if self._graph_depth:
            return None
        # inference forward: key each image by (generation, image, conditioning map)
        p_prev = args[2] if len(args) > 2 else kwargs.get("p_prev")
        gen = 0
        for _, t in sorted(g.parameters.items()):
            gen = zlib.crc32(memoryview(np.ascontiguousarray(t.data)).cast("B"), gen)
        x = image.data
        cond = None if p_prev is None else p_prev.data
        keys = [
            (gen, _crc(x[i]), 0 if cond is None else _crc(cond[i])) for i in range(x.shape[0])
        ]
        return {"keys": keys}

    def _leave_nets_forward_logits(self, args, kwargs):
        self._forward_depth -= 1

    # ---------------------------------------------------------------- output

    def write(self, path: str, header: dict):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for name, start, end, parent, attrs in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    row["attrs"] = {k: v for k, v in attrs.items() if k != "keys"}
                f.write(json.dumps(row) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        return derive_metrics(self.spans)


class _SpanContext:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.rec = self.tracer._open(self.name, self.attrs)
        return self.rec

    def __exit__(self, *exc):
        self.tracer._close(self.rec)


# ---------------------------------------------------------------------------
# metrics from spans


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def derive_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics, each a total per traced round unless its name says otherwise."""
    n = len(spans)
    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[_PARENT] >= 0:
            children[s[_PARENT]].append(i)
    dur = [s[_END] - s[_START] for s in spans]
    self_time = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]
    # root span of each span, and the spans under a traced round
    root = [0] * n
    for i, s in enumerate(spans):
        root[i] = i if s[_PARENT] < 0 else root[s[_PARENT]]
    rounds = [i for i, s in enumerate(spans) if s[_NAME] == ROUND]
    in_round = [spans[root[i]][_NAME] == ROUND and i != root[i] for i in range(n)]
    k = max(1, len(rounds))
    m: dict[str, float] = {}

    def has_ancestor(i, names):
        p = spans[i][_PARENT]
        while p >= 0:
            if spans[p][_NAME] in names:
                return True
            p = spans[p][_PARENT]
        return False

    def total_ms(pred, measure=dur):
        return 1e3 * sum(measure[i] for i in range(n) if in_round[i] and pred(i)) / k

    def count(pred):
        return sum(1 for i in range(n) if in_round[i] and pred(i)) / k

    def name_is(*names):
        names = frozenset(names)
        return lambda i: spans[i][_NAME] in names

    def topmost(names):
        names = frozenset(names)
        return lambda i: spans[i][_NAME] in names and not has_ancestor(i, names)

    def minus_forwards(names):
        # inclusive time of the named spans, less the model forwards they run
        names = frozenset(names)
        inclusive = total_ms(topmost(names))
        nested = total_ms(
            lambda i: spans[i][_NAME] in FORWARD_ROOTS
            and not has_ancestor(i, FORWARD_ROOTS)
            and has_ancestor(i, names)
        )
        return inclusive - nested

    def attr(i, key, default=None):
        a = spans[i][_ATTRS]
        return default if not a else a.get(key, default)

    # tensor
    conv_f, conv_b = name_is("tensor.conv2d"), name_is("tensor.conv2d.bwd")
    m["tensor.conv2d.fwd_ms"] = total_ms(conv_f)
    m["tensor.conv2d.bwd_ms"] = total_ms(conv_b)
    m["tensor.conv2d.calls"] = count(conv_f)
    fwd_flop = sum(attr(i, "flop", 0) for i in range(n) if in_round[i] and conv_f(i)) / k
    bwd_flop = sum(attr(i, "flop", 0) for i in range(n) if in_round[i] and conv_b(i)) / k
    m["tensor.conv2d.gflop"] = (fwd_flop + bwd_flop) / 1e9
    m["tensor.conv2d.fwd_gflop_per_s"] = _ratio(fwd_flop / 1e6, m["tensor.conv2d.fwd_ms"])
    m["tensor.conv2d.bwd_gflop_per_s"] = _ratio(bwd_flop / 1e6, m["tensor.conv2d.bwd_ms"])
    m["tensor.bilinear_resize.fwd_ms"] = total_ms(name_is("tensor.bilinear_resize"))
    m["tensor.bilinear_resize.bwd_ms"] = total_ms(name_is("tensor.bilinear_resize.bwd"))
    lookups = count(name_is("tensor._resize_matrix"))
    builds = count(lambda i: spans[i][_NAME] == "tensor._resize_matrix" and not attr(i, "hit"))
    m["tensor.resize_matrix.builds"] = builds
    m["tensor.resize_matrix.hit_ratio"] = _ratio(lookups - builds, lookups)
    m["tensor.softmax_ce.fwd_ms"] = total_ms(lambda i: spans[i][_NAME] in SOFTMAX_CE)
    m["tensor.softmax_ce.bwd_ms"] = total_ms(
        lambda i: spans[i][_NAME].removesuffix(".bwd") in SOFTMAX_CE and spans[i][_NAME].endswith(".bwd")
    )
    m["tensor.elementwise.fwd_ms"] = total_ms(lambda i: spans[i][_NAME] in ELEMENTWISE)
    m["tensor.elementwise.bwd_ms"] = total_ms(
        lambda i: spans[i][_NAME].endswith(".bwd") and spans[i][_NAME].removesuffix(".bwd") in ELEMENTWISE
    )
    backward = name_is("tensor.backward")
    m["tensor.backward.self_ms"] = total_ms(backward, self_time)
    m["tensor.sgd_step_ms"] = total_ms(name_is("tensor.sgd_step"))
    nodes = [attr(i, "nodes", 0) for i in range(n) if in_round[i] and backward(i)]
    m["tensor.tape_nodes_per_step"] = statistics.fmean(nodes) if nodes else 0.0

    # nets: op-level spans charged to a backbone part
    for part in NETS_PARTS:
        m[f"nets.{part}.fwd_ms"] = total_ms(
            lambda i: spans[i][_NAME] in TENSOR_OPS and attr(i, "part") == part
        )
        m[f"nets.{part}.bwd_ms"] = total_ms(
            lambda i: spans[i][_NAME].endswith(".bwd") and attr(i, "part") == part
        )

    # training
    steps = _step_times(spans, in_round)
    m["training.step_ms_p50"] = 1e3 * statistics.median(steps) if steps else 0.0
    m["training.step_ms_p90"] = 1e3 * percentile(steps, 90) if len(steps) >= 100 else 0.0
    m["training.steps"] = len(steps) / k
    m["training.augment_ms"] = total_ms(topmost(("training.augment_sample",)))
    m["training.val_eval_ms"] = total_ms(topmost(("training.evaluate_miou",)))
    m["training.provider_ms"] = total_ms(
        lambda i: spans[i][_NAME] in ("nets.predict", "ensembling.chain_predict")
        and not has_ancestor(i, FORWARD_ROOTS)
        and has_ancestor(i, ("training.train_generation",))
    )

    # ensembling: inference forwards, keyed per image
    forwards = [
        (root[i], attr(i, "keys")) for i in range(n)
        if in_round[i] and spans[i][_NAME] == "nets.forward_logits" and attr(i, "keys") is not None
    ]
    run_count = sum(len(keys) for _, keys in forwards)
    distinct = sum(
        len({key for r2, keys in forwards if r2 == r for key in keys}) for r in rounds
    )
    m["ensembling.chain_predict_ms"] = total_ms(topmost(("ensembling.chain_predict",)))
    m["ensembling.combine_ms"] = total_ms(topmost(("ensembling.combine",)))
    m["ensembling.generation_forwards"] = run_count / k
    m["ensembling.forward_useful_ratio"] = _ratio(distinct, run_count)

    # calibration, analysis
    m["calibration.temperature_sweep_ms"] = minus_forwards(("calibration.temperature_sweep",))
    m["calibration.temperature_scale.calls"] = count(name_is("calibration.temperature_scale"))
    m["analysis.segmentation_metrics_ms"] = total_ms(topmost(("analysis.segmentation_metrics",)))
    m["analysis.four_case_ms"] = total_ms(topmost(("analysis.four_case_table",)))
    m["analysis.similarity_ms"] = minus_forwards(
        ("analysis.prediction_similarity_matrix", "analysis.parameter_similarity_matrix")
    )

    # data
    m["data.load_split_ms"] = total_ms(topmost(("data.load_split",)))
    m["data.images_decoded"] = count(name_is("data.decode_ppm"))
    m["data.checkpoint_load_ms"] = total_ms(
        topmost(("data.load_checkpoint", "data.generation_from_checkpoint"))
    )
    m["data.checkpoint_save_ms"] = total_ms(
        topmost(("data.save_checkpoint", "data.checkpoint_from_generation"))
    )
    setup = [i for i, s in enumerate(spans) if spans[root[i]][_NAME] == SETUP]
    m["data.generate_ms"] = 1e3 * sum(dur[i] for i in setup if spans[i][_NAME] == "cli.cmd_gen_data")

    # cli
    for cmd in CLI_COMMANDS:
        fn = "cli.cmd_" + cmd.replace("-", "_")
        if cmd == "gen-data":
            m[f"cli.{cmd}_ms"] = m["data.generate_ms"]
        else:
            m[f"cli.{cmd}_ms"] = total_ms(name_is(fn))

    # coverage of the timed part by leaf spans
    round_ms = sum(dur[i] for i in rounds)
    leaves = sum(dur[i] for i in range(n) if in_round[i] and not children[i])
    m["trace.covered_share"] = _ratio(leaves, round_ms)
    return m


def _step_times(spans, in_round) -> list[float]:
    """A step runs from its first augment_sample to the end of its optimizer step."""
    steps, start = [], None
    for i, s in enumerate(spans):
        if not in_round[i]:
            continue
        name = s[_NAME]
        if name == "training.train_generation":
            start = None
        elif name == "training.augment_sample" and start is None:
            start = s[_START]
        elif name == "tensor.sgd_step" and start is not None:
            steps.append(s[_END] - start)
            start = None
    return steps


def _ratio(a, b) -> float:
    return a / b if b else 0.0
