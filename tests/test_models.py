"""Executable models: parameter traversal, pooling, and the package surface."""

import ast
import inspect
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import axmoe
from axmoe import engine, moe
from axmoe.engine import AvgPool2d, Flatten, Layer, RunContext, softmax_cross_entropy
from axmoe.graphs import VARIANTS, ClusterArch, MoEGroup, substitute_moe, toy_cnn, toy_mlp
from axmoe.errors import NumericError, ParameterError
from axmoe.models import EXPERT_JITTER, build_model
from axmoe.moe import MoELayer
from axmoe.multipliers import builtin_multiplier
from axmoe.train import TrainConfig, evaluate, sgd_step
from test_engine import EXACT, _bent

ARCHS = {
    "toy_cnn": lambda: toy_cnn(num_classes=3, resolution=8, channels=1),
    "toy_mlp": lambda: toy_mlp(num_classes=3, resolution=6, channels=1),
}


def _expected_frozen(graph) -> set[str]:
    """Routing-gate parameter names, read from the graph spec alone."""
    if isinstance(graph, ClusterArch):
        return {f"{spec.name}.{p}" for spec in graph.gateway.layers
                if spec.kind in ("conv2d", "linear") for p in ("w", "b")}
    return {f"{entry.name}.router.w" for entry in graph.layers if isinstance(entry, MoEGroup)}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_traversal_invariants_after_one_train_step(arch, variant):
    spec = ARCHS[arch]()
    graph = substitute_moe(spec, variant, n_experts=2)
    model = build_model(graph, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, *spec.input_shape)).astype(np.float32)
    y = rng.integers(0, 3, size=12)

    logits = model.forward(x, RunContext(train=True))
    _, dlogits = softmax_cross_entropy(logits, y)
    model.zero_grads()
    model.backward(dlogits)
    frozen = model.frozen_names()
    sgd_step(model, TrainConfig(lr=0.1, epochs=1), frozen)

    params = model.params()
    grads = model.qualified_grads()
    assert frozen <= set(params)
    assert grads and set(grads) <= set(params)
    assert frozen == _expected_frozen(graph)
    assert bool(frozen) == (variant != "dense")
    if variant == "cluster":
        assert not frozen & set(grads)  # the gateway sits behind an argmax

    snapshot = {k: v.copy() for k, v in params.items()}
    for v in params.values():
        v += 1.0
    model.load_params(snapshot)
    for k, v in model.params().items():
        assert v.dtype == snapshot[k].dtype and np.array_equal(v, snapshot[k]), k

    model.zero_grads()
    assert model.qualified_grads() == {}


@pytest.mark.parametrize("mul", [None, builtin_multiplier("trunc2"), _bent(EXACT)],
                         ids=["float", "trunc2", "non_separable"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_backward_without_the_input_gradient_leaves_every_gradient(arch, variant, mul):
    spec = ARCHS[arch]()
    model = build_model(substitute_moe(spec, variant, n_experts=2), seed=3)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, *spec.input_shape)).astype(np.float32)
    y = rng.integers(0, 3, size=12)
    grads, col2im_calls = [], []
    for input_grad in (True, False):
        _, dlogits = softmax_cross_entropy(model.forward(x, RunContext(mul, train=True)), y)
        model.zero_grads()
        with mock.patch.object(engine, "col2im", wraps=engine.col2im) as col2im:
            dx = model.backward(dlogits, input_grad=input_grad)
        col2im_calls.append(col2im.call_count)
        grads.append(model.qualified_grads())
        assert dx.shape == x.shape if input_grad else dx is None
    full, params_only = grads
    assert full and full.keys() == params_only.keys()
    for name, g in full.items():
        other = params_only[name]
        assert g.dtype == other.dtype and g.tobytes() == other.tobytes(), name
    # toy_cnn's first conv (one per cluster replica that got a sample)
    # scatters no input gradient; toy_mlp has no conv
    assert (col2im_calls[1] < col2im_calls[0]) == (arch == "toy_cnn")


@pytest.mark.parametrize("mul", [None, "trunc2"], ids=["float", "trunc2"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_empty_batch_is_a_parameter_error(arch, variant, mul):
    spec = ARCHS[arch]()
    model = build_model(substitute_moe(spec, variant, n_experts=2), seed=0)
    mul = builtin_multiplier(mul) if mul else None
    x = np.zeros((0, *spec.input_shape), dtype=np.float32)
    y = np.zeros(0, dtype=np.int64)
    for train in (False, True):
        with pytest.raises(ParameterError, match="empty batch"):
            model.forward(x, RunContext(multiplier=mul, train=train))
    with pytest.raises(ParameterError, match="empty set"):
        evaluate(model, x, y, mul)
    # a non-finite input is a numeric error on the float path as on the LUT path
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((4, *spec.input_shape), dtype=np.float32)
        x[1, 0, 0, 0] = bad
        for train in (False, True):
            with pytest.raises(NumericError, match="non-finite"):
                model.forward(x, RunContext(multiplier=mul, train=train))


# Inputs of the wrong rank, channel count or feature count for ARCHS
BAD_SHAPES = {"toy_cnn": [(4, 1, 8), (4, 64), (4, 2, 8, 8)],
              "toy_mlp": [(4, 1, 6), (4, 35), (4, 2, 6, 6)]}


@pytest.mark.parametrize("mul", [None, "trunc2"], ids=["float", "trunc2"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_integer_or_misshapen_input_is_a_parameter_error(arch, variant, mul):
    spec = ARCHS[arch]()
    model = build_model(substitute_moe(spec, variant, n_experts=2), seed=0)
    mul = builtin_multiplier(mul) if mul else None
    with mock.patch.object(engine, "quantize", wraps=engine.quantize) as quantize:
        for train in (False, True):
            for dtype in (np.int64, np.int8, np.uint8, np.bool_):
                x = np.ones((4, *spec.input_shape), dtype=dtype)
                with pytest.raises(ParameterError, match="floating point"):
                    model.forward(x, RunContext(multiplier=mul, train=train))
            for shape in BAD_SHAPES[arch]:
                x = np.ones(shape, np.float32)
                with pytest.raises(ParameterError, match="input"):
                    model.forward(x, RunContext(multiplier=mul, train=train))
    assert not quantize.called


# Samples with as many values as the graph's, in another shape: each runs
# through the layers without a shape check of its own (a conv over 4 x 16
# pixels pools to toy_cnn's fc features, toy_mlp's Flatten takes any 36)
REARRANGED = {"toy_cnn": [(4, 1, 4, 16), (4, 1, 16, 4)],
              "toy_mlp": [(4, 36, 1), (4, 1, 36), (4, 6, 6), (4, 1, 6, 6, 1)]}


def _nested_models(layer):
    for child in layer.children():
        if isinstance(child, engine.Model):
            yield child
        yield from _nested_models(child)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_every_graph_builds_a_model_whose_input_errors_name_the_graph(arch, variant):
    spec = ARCHS[arch]()
    model = build_model(substitute_moe(spec, variant, n_experts=2), seed=0)
    assert type(model) is engine.Model and model.input_shape == spec.input_shape
    named = rf"^{spec.name}: "  # the graph, never a cluster's {name}_gateway
    for train in (False, True):
        ctx = RunContext(train=train)
        with pytest.raises(ParameterError, match=named + "empty batch"):
            model.forward(np.zeros((0, *spec.input_shape), np.float32), ctx)
        with pytest.raises(ParameterError, match=named + "input must be floating point"):
            model.forward(np.ones((4, *spec.input_shape), np.int64), ctx)
        x = np.ones((4, *spec.input_shape), np.float32)
        x[2].flat[0] = np.nan
        with pytest.raises(NumericError, match=named + "input contains non-finite"):
            model.forward(x, ctx)


@pytest.mark.parametrize("variant", ["hard", "soft", "cluster"])
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_one_forward_checks_its_batch_once(arch, variant):
    # the whole graph checks the batch; experts, replicas and the gateway
    # run on rows it has already checked
    spec = ARCHS[arch]()
    model = build_model(substitute_moe(spec, variant, n_experts=2), seed=0)
    x = np.random.default_rng(4).normal(size=(16, *spec.input_shape)).astype(np.float32)
    for mul in (None, EXACT):
        with mock.patch("numpy.isfinite", wraps=np.isfinite) as isfinite:
            model.forward(x, RunContext(multiplier=mul))
        assert isfinite.call_count == 1, (mul, isfinite.call_count)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_samples_of_another_shape_are_a_parameter_error(arch, variant):
    spec = ARCHS[arch]()
    model = build_model(substitute_moe(spec, variant, n_experts=2), seed=0)
    assert model.input_shape == spec.input_shape
    # experts, replicas and the gateway carry no shape of their own
    assert all(nested.input_shape is None for nested in _nested_models(model))
    for mul in (None, EXACT):
        model.forward(np.ones((4, *spec.input_shape), np.float32), RunContext(multiplier=mul))
        for shape in REARRANGED[arch]:
            with pytest.raises(ParameterError, match=r"is not \(N, "):
                model.forward(np.ones(shape, np.float32), RunContext(multiplier=mul))


def test_every_layer_backward_takes_the_input_grad_flag():
    layers = {cls for module in (engine, moe)
              for _, cls in inspect.getmembers(module, inspect.isclass)
              if issubclass(cls, Layer) and cls.__module__ == module.__name__}
    assert {"ReLU", "AvgPool2d", "Flatten", "Conv2d", "Linear", "Model", "MoELayer",
            "ClusterModel"} <= {cls.__name__ for cls in layers}
    for cls in layers:
        signature = inspect.signature(cls.backward)
        signature.bind(None, "dy", False)  # positional, as Model.backward passes it
        signature.bind(None, "dy", input_grad=False)  # by name, as the MoE dispatch does


def test_every_layer_defines_one_forward_that_takes_batch_sizes():
    layers = {cls for module in (engine, moe)
              for _, cls in inspect.getmembers(module, inspect.isclass)
              if issubclass(cls, Layer) and cls is not Layer and cls.__module__ == module.__name__}
    assert {"ReLU", "AvgPool2d", "Flatten", "Conv2d", "Linear", "Model", "MoELayer",
            "ClusterModel"} <= {cls.__name__ for cls in layers}
    for cls in {*layers, Layer}:
        assert "forward_batches" not in dir(cls), cls.__name__
    for cls in layers:
        # Layer's forward raises: each class below it defines its own
        own = cls.__mro__[: cls.__mro__.index(Layer)]
        assert sum("forward" in vars(c) for c in own) == 1, cls.__name__
        signature = inspect.signature(cls.forward)
        assert signature.parameters["sizes"].default is None
        # positional, as Model.forward passes it (perfbench reads the context
        # as the third argument), and by name
        signature.bind(None, "x", RunContext(), (1, 2))
        signature.bind(None, x="x", ctx=RunContext(), sizes=None)
        signature.bind(None, "x", RunContext())


@pytest.mark.parametrize("variant", ["hard", "soft"])
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_expert_zero_is_the_dense_layer_and_the_rest_are_jittered(arch, variant):
    spec = ARCHS[arch]()
    dense = build_model(spec, seed=7).params()
    moe = build_model(substitute_moe(spec, variant, n_experts=3), seed=7)
    groups = [layer for layer in moe.layers if isinstance(layer, MoELayer)]
    assert groups
    for group in groups:
        for i, expert in enumerate(group.experts):
            prefix = f"{group.name}.expert{i}."
            params = expert.params()
            assert params
            for name, value in params.items():
                base = dense[name.removeprefix(prefix)]
                if i == 0:
                    assert value.dtype == base.dtype and np.array_equal(value, base), name
                    continue
                scale = float(np.std(base)) or 1.0
                assert 0 < np.abs(value - base).max() <= 10 * EXPERT_JITTER * scale, name


def test_avgpool_to_one_pixel_feeds_flatten():
    model = build_model(substitute_moe(toy_cnn(num_classes=3, resolution=4, channels=2),
                                       "dense"), seed=0)
    names = [layer.name for layer in model.layers]
    pool = model.layers[names.index("pool2")]
    assert isinstance(pool, AvgPool2d)
    assert isinstance(model.layers[names.index("pool2") + 1], Flatten)

    x = np.random.default_rng(5).normal(size=(6, 2, 4, 4)).astype(np.float32)
    ctx = RunContext(train=True)
    h = x
    for layer in model.layers[: names.index("pool2") + 1]:
        h = layer.forward(h, ctx)
    assert h.shape == (6, 16, 1, 1)
    assert model.layers[names.index("pool2") + 1].forward(h, ctx).shape == (6, 16)

    logits = model.forward(x, ctx)
    assert logits.shape == (6, 3)
    assert model.backward(np.ones_like(logits)).shape == x.shape


def test_every_exported_name_resolves():
    assert len(set(axmoe.__all__)) == len(axmoe.__all__)
    for name in axmoe.__all__:
        getattr(axmoe, name)


def test_runtime_imports_only_numpy_and_the_standard_library():
    sources = sorted(Path(axmoe.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, (path.name, name)


def test_files_and_datasets_import_nothing_that_builds_or_trains_models():
    # files reads and writes the archives of every other module, and a
    # dataset is arrays read from them: neither may pull in the engine. The
    # package imports itself only relatively (the test above forbids
    # `import axmoe...`), so the relative imports are all there is to check.
    allowed = {"files": {"errors"}, "datasets": {"errors", "files"}}
    for name, ok in allowed.items():
        path = Path(axmoe.__file__).parent / f"{name}.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= {node.module} if node.module else {a.name for a in node.names}
        assert imported <= ok, (name, sorted(imported - ok))


def test_readme_layout_names_every_module():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE)
    modules = {p.name for p in Path(axmoe.__file__).parent.glob("*.py")} - {"__init__.py"}
    assert sorted(listed) == sorted(modules)


def test_every_import_is_used():
    """No module of the package or of the test suite imports a name it never
    reads, and no module of the package defines a private function, class or
    constant that no module of the package reads."""
    package = sorted(Path(axmoe.__file__).parent.glob("*.py"))
    sources = package + sorted(Path(__file__).parent.glob("*.py"))
    assert package
    private, read = {}, set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
                if path in package and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
            elif isinstance(node, ast.Attribute) and path in package:
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        assert not imported - used, (path.name, sorted(imported - used))
        if path in package:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                private.update({n: path.name for n in names
                                if n.startswith("_") and not n.startswith("__")})
    assert private
    assert not private.keys() - read, sorted((private[n], n) for n in private.keys() - read)


WRITER = "files.py"  # the one module that writes files


def _callee(call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _file_writes(tree) -> list[int]:
    """Lines of `tree` that write a file by path: `open` with a w, x, a or +
    mode (or a mode that is not a string literal), `write_text`,
    `write_bytes`, and `np.save*` on anything but a name bound to an
    in-memory buffer."""
    buffers = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call)
               and _callee(node.value) in ("BytesIO", "StringIO")
               for t in node.targets if isinstance(t, ast.Name)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node)
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            writes = mode is not None and not (isinstance(mode, ast.Constant)
                                               and not set(str(mode.value)) & set("wxa+"))
        elif name in ("write_text", "write_bytes"):
            writes = True
        elif name.startswith("save") and isinstance(node.func, ast.Attribute):
            owner, target = node.func.value, node.args[0] if node.args else None
            writes = (isinstance(owner, ast.Name) and owner.id in ("np", "numpy")
                      and not (isinstance(target, ast.Name) and target.id in buffers))
        else:
            writes = False
        if writes:
            lines.append(node.lineno)
    return lines


def test_only_the_writer_writes_files():
    """Every output goes through `files.replace_file`: no other module of the
    package opens, saves or writes a file by path."""
    package = sorted(Path(axmoe.__file__).parent.glob("*.py"))
    assert WRITER in {p.name for p in package}
    for path in package:
        lines = _file_writes(ast.parse(path.read_text(encoding="utf-8")))
        assert bool(lines) == (path.name == WRITER), (path.name, lines)
    for snippet in ('open(p, "w")', 'open(p, mode="ab")', 'open(p, "r+b")', "open(p, m)",
                    'p.write_text("x")', 'p.write_bytes(b"")', "np.savez(p, a=a)",
                    "buf = io.BytesIO()\nnp.save(p, buf)", "os.open(p, os.O_WRONLY)"):
        assert _file_writes(ast.parse(snippet)) == [snippet.count("\n") + 1], snippet
    assert not _file_writes(ast.parse('buf = io.BytesIO()\nnp.savez(buf, a=a)\n'
                                      'open(p)\nopen(p, "rb")\nnp.load(p)'))
