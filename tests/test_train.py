"""SGD mechanics and the pretrain/retrain split."""

import functools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axmoe import engine, train
from axmoe.engine import Linear, Model, RunContext, softmax_cross_entropy
from axmoe.errors import NumericError, ParameterError
from axmoe.graphs import VARIANTS, substitute_moe, toy_cnn, toy_mlp
from axmoe.models import build_model
from axmoe.multipliers import builtin_multiplier
from axmoe.train import Split, TrainConfig, evaluate, fit, retrain, sgd_step
from test_engine import TABLES

FULL_RANK = TABLES["full_rank"]


class _Stub:
    """Model facade exposing fixed params and grads to sgd_step."""

    def __init__(self, params, grads):
        self._params = params
        self._grads = grads

    def params(self):
        return self._params

    def qualified_grads(self):
        return self._grads


def test_sgd_step_hand_values():
    p = np.array([1.0])
    stub = _Stub({"w": p}, {"w": np.array([1.0])})
    cfg = TrainConfig(lr=0.1, weight_decay=0.0, epochs=1)
    sgd_step(stub, cfg, frozen=set())
    assert p[0] == pytest.approx(0.9)


def test_sgd_step_weight_decay_shrinks_parameters():
    p = np.array([2.0])
    stub = _Stub({"w": p}, {"w": np.array([0.0])})
    cfg = TrainConfig(lr=0.5, weight_decay=0.1, epochs=1)
    sgd_step(stub, cfg, frozen=set())
    # update is lr * wd * p = 0.5 * 0.1 * 2
    assert p[0] == pytest.approx(1.9)


def test_sgd_step_skips_frozen_and_gradient_free_params():
    a, b, c = np.array([1.0]), np.array([1.0]), np.array([1.0])
    stub = _Stub({"a": a, "b": b, "c": c}, {"a": np.array([1.0]), "b": np.array([1.0])})
    cfg = TrainConfig(lr=0.1, weight_decay=0.0, epochs=1)
    sgd_step(stub, cfg, frozen={"b"})
    assert a[0] == pytest.approx(0.9)
    assert b[0] == 1.0  # frozen
    assert c[0] == 1.0  # no gradient


def test_train_config_validation():
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            TrainConfig(lr=lr)
    with pytest.raises(ParameterError):
        TrainConfig(weight_decay=-1e-3)
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=-1)


def test_split_length_validation():
    x = np.zeros((4, 2), dtype=np.float32)
    y = np.zeros(3, dtype=np.int64)
    with pytest.raises(ParameterError):
        Split(x, y, x, np.zeros(4, dtype=np.int64))
    with pytest.raises(ParameterError):
        Split(x, np.zeros(4, dtype=np.int64), x, y)
    y = np.zeros(4, dtype=np.int64)
    with pytest.raises(ParameterError):
        Split(x[:0], y[:0], x, y)
    with pytest.raises(ParameterError):
        Split(x, y, x[:0], y[:0])


def test_cross_entropy_is_ln2_on_zero_logit_binary_batch():
    logits = np.zeros((6, 2))
    labels = np.array([0, 1, 0, 1, 0, 1])
    loss, grad = softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)
    # balanced labels at uniform probability leave zero column sums
    assert np.allclose(grad.sum(axis=0), 0.0, atol=1e-12)


@pytest.mark.parametrize("labels", [[0, -1, 1], [0, 3, 1], [0.0, 1.0, 2.0], [True, False, True],
                                    [[0], [1], [2]]])
def test_fit_refuses_a_split_whose_labels_are_not_classes(labels):
    # a Split made in Python reaches fit without the CLI's label check: -1
    # trained toward the last class, and 3 or a float label raised IndexError
    x = np.ones((3, 4), np.float32)
    model = Model("m", [Linear("fc", np.zeros((3, 4), np.float32), np.zeros(3, np.float32))])
    data = Split(x, np.array(labels), x, np.array([0, 1, 2]))
    with pytest.raises(ParameterError, match="labels must be"):
        fit(model, data, TrainConfig(epochs=1, batch_size=3))


def _separable(rng, n=120, fin=4):
    w_true = rng.normal(size=(3, fin))
    x = rng.normal(size=(n, fin)).astype(np.float32)
    y = np.argmax(x @ w_true.T, axis=1).astype(np.int64)
    return x, y


def test_loss_decreases_on_separable_data():
    rng = np.random.default_rng(12)
    x, y = _separable(rng)
    model = Model("m", [Linear("m.fc", rng.normal(size=(3, 4)).astype(np.float32) * 0.1,
                               np.zeros(3, dtype=np.float32))])
    data = Split(x, y, x[:40], y[:40])
    cfg = TrainConfig(lr=0.2, weight_decay=0.0, batch_size=30, epochs=10, seed=0)
    losses = fit(model, data, cfg)
    assert losses[-1] < losses[0] * 0.5
    assert evaluate(model, data.x_test, data.y_test) > 0.9


def test_fit_history_lengths_match_epochs():
    rng = np.random.default_rng(13)
    x, y = _separable(rng, n=40)
    model = Model("m", [Linear("m.fc", rng.normal(size=(3, 4)).astype(np.float32) * 0.1,
                               np.zeros(3, dtype=np.float32))])
    data = Split(x, y, x[:10], y[:10])
    losses = fit(model, data, TrainConfig(epochs=3, seed=0))
    assert len(losses) == 3 and all(type(loss) is float for loss in losses)
    assert fit(model, data, TrainConfig(epochs=0, seed=0)) == []


def test_evaluate_matches_manual_argmax():
    rng = np.random.default_rng(14)
    model = Model("m", [Linear("m.fc", rng.normal(size=(3, 4)), np.zeros(3))])
    x = rng.normal(size=(33, 4)).astype(np.float32)
    y = rng.integers(0, 3, size=33).astype(np.int64)
    logits = model.forward(x, __import__("axmoe").RunContext())
    want = float((np.argmax(logits, axis=1) == y).mean())
    assert evaluate(model, x, y, batch_size=10) == pytest.approx(want)


@pytest.mark.parametrize("multiplier", [None, FULL_RANK])
def test_evaluate_that_overflows_raises_instead_of_scoring(multiplier):
    # weights a huge learning rate leaves behind: their logits overflow
    # float32, and a top1 scored from them would mean nothing
    model = Model("m", [Linear("m.fc", np.full((3, 4), 3e38, np.float32),
                               np.zeros(3, np.float32))])
    x = np.ones((8, 4), dtype=np.float32)
    with pytest.raises(NumericError, match="evaluate: overflow"):
        evaluate(model, x, np.zeros(8, dtype=np.int64), multiplier)


@pytest.mark.parametrize("labels, batch_size", [(16, -4), (16, 0), (1, 256)])
def test_evaluate_rejects_bad_arguments(labels, batch_size):
    model = Model("m", [Linear("m.fc", np.ones((3, 4)), np.zeros(3))])
    x = np.ones((16, 4), dtype=np.float32)
    with pytest.raises(ParameterError):
        evaluate(model, x, np.zeros(labels, dtype=np.int64), batch_size=batch_size)


def _toy_model(variant):
    graph = substitute_moe(toy_cnn(num_classes=4, resolution=8, channels=1), variant,
                           n_experts=3)
    return build_model(graph, seed=7)


def _toy_set(n=44, seed=16):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, 1, 8, 8)).astype(np.float32),
            rng.integers(0, 4, size=n).astype(np.int64))


def _approximate_layers(layer):
    out = [layer] if getattr(layer, "approximate", False) else []
    for child in layer.children():
        out += _approximate_layers(child)
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_context_per_pass_matches_one_per_batch(variant):
    model = _toy_model(variant)
    x, y = _toy_set()
    # the loop evaluate ran before: a fresh context per batch of 8
    correct, counters, routed = 0, Counter(), Counter()
    for start in range(0, len(x), 8):
        ctx = RunContext(multiplier=FULL_RANK)
        logits = model.forward(x[start : start + 8], ctx)
        correct += int((np.argmax(logits, axis=1) == y[start : start + 8]).sum())
        counters.update(ctx.counters)
        routed.update(ctx.routed)
    made = []

    def context(**kwargs):
        made.append(RunContext(**kwargs))
        return made[-1]

    with mock.patch.object(train, "RunContext", side_effect=context):
        top1 = evaluate(model, x, y, FULL_RANK, batch_size=8)
    assert len(made) == 1
    assert top1 == correct / len(x)
    assert made[0].counters == counters and made[0].routed == routed


@pytest.mark.parametrize("variant", ["dense", "hard"])
def test_evaluate_quantizes_each_layers_weights_once_per_pass(variant):
    model = _toy_model(variant)
    layers = _approximate_layers(model)
    quantized = Counter()
    real = engine.quantize

    def spy(t):
        quantized.update(layer.name for layer in layers if np.shares_memory(t, layer.w))
        return real(t)

    with mock.patch.object(engine, "quantize", side_effect=spy):
        evaluate(model, *_toy_set(), FULL_RANK, batch_size=8)
    assert quantized and set(quantized.values()) == {1}
    if variant == "dense":
        assert set(quantized) == {layer.name for layer in layers}


def _evaluated_logits(model, x, y):
    """The logits evaluate computes under the full-rank table, in order."""
    seen = []
    forward_batches = model.forward_batches

    def record(xs, ctx):
        seen.extend(forward_batches(xs, ctx))
        return seen[-len(xs):]

    with mock.patch.object(model, "forward_batches", side_effect=record):
        evaluate(model, x, y, FULL_RANK, batch_size=8)
    return np.concatenate(seen)


def test_evaluate_sees_the_weights_fit_leaves():
    model = _toy_model("hard")
    x, y = _toy_set()
    before = _evaluated_logits(model, x, y)
    fit(model, Split(x, y, x[:8], y[:8]), TrainConfig(lr=0.1, batch_size=8, epochs=1),
        FULL_RANK)
    after = _evaluated_logits(model, x, y)
    fresh = _toy_model("hard")
    fresh.load_params(model.params())
    assert not np.array_equal(after, before)
    assert np.array_equal(after, _evaluated_logits(fresh, x, y))


def test_fit_is_deterministic_under_a_fixed_seed():
    rng = np.random.default_rng(15)
    x, y = _separable(rng, n=60)
    data = Split(x, y, x[:20], y[:20])

    def run():
        r = np.random.default_rng(99)
        model = Model("m", [Linear("m.fc", r.normal(size=(3, 4)).astype(np.float32) * 0.1,
                                   np.zeros(3, dtype=np.float32))])
        fit(model, data, TrainConfig(epochs=2, batch_size=16, seed=7))
        return model.params()["m.fc.w"].copy()

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("variant", ["dense", "soft"])
@pytest.mark.parametrize("multiplier", [None, FULL_RANK])
def test_fit_that_diverges_raises_naming_the_step(variant, multiplier):
    model = _toy_model(variant)
    x, y = _toy_set()
    with pytest.raises(NumericError, match=r"at step \d+: training"):
        fit(model, Split(x, y, x[:8], y[:8]), TrainConfig(lr=1e30, batch_size=8, epochs=2),
            multiplier)


def test_retrain_requires_a_multiplier():
    rng = np.random.default_rng(16)
    model = Model("m", [Linear("m.fc", rng.normal(size=(3, 4)), np.zeros(3))])
    x = rng.normal(size=(8, 4)).astype(np.float32)
    y = rng.integers(0, 3, size=8).astype(np.int64)
    data = Split(x, y, x, y)
    with pytest.raises(ParameterError):
        retrain(model, data, TrainConfig(epochs=1), None)


@pytest.mark.parametrize("variant", ["dense", "hard"])
def test_only_retrain_evaluates_and_it_returns_the_top1_it_leaves(variant):
    # retrain scores the test split once, fit never: a caller that evaluates
    # after retrain, as perfbench's retrain_lut does, sees two test passes
    model = _toy_model(variant)
    x, y = _toy_set()
    data = Split(x, y, x[:12], y[:12])
    cfg = TrainConfig(lr=0.1, batch_size=8, epochs=2)
    calls = []
    real = train.evaluate

    def counted(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs.get("multiplier"))
        return real(*args, **kwargs)

    with mock.patch.object(train, "evaluate", side_effect=counted):
        fit(model, data, cfg)
        fit(model, data, cfg, FULL_RANK)
        assert calls == []
        top1 = retrain(model, data, cfg, FULL_RANK)
    assert calls == [FULL_RANK]
    assert top1 == evaluate(model, data.x_test, data.y_test, FULL_RANK)


def test_retrain_pins_the_models_frozen_set():
    from axmoe.moe import MoELayer, Router
    from axmoe.multipliers import builtin_multiplier

    rng = np.random.default_rng(17)
    experts = [Linear(f"e{i}", rng.normal(size=(3, 4)).astype(np.float32) * 0.3,
                      np.zeros(3, dtype=np.float32)) for i in range(2)]
    router = Router("m.mix.router", rng.normal(size=(2, 4)).astype(np.float32))
    model = Model("m", [MoELayer("m.mix", experts, router, "soft")])
    x = rng.normal(size=(24, 4)).astype(np.float32)
    y = rng.integers(0, 3, size=24).astype(np.int64)
    data = Split(x, y, x[:8], y[:8])

    before = router.w.copy()
    expert_before = experts[0].w.copy()
    retrain(model, data, TrainConfig(lr=0.1, epochs=2, batch_size=8, seed=1),
            builtin_multiplier("trunc2"))
    assert np.array_equal(router.w, before)
    assert not np.array_equal(experts[0].w, expert_before)


# ---------------------------------------------------------------------------
# grouped evaluation: each batch as if run alone
# ---------------------------------------------------------------------------

GROUP_ARCHS = {"toy_cnn": toy_cnn(num_classes=4, resolution=8, channels=1),
               "toy_mlp": toy_mlp(num_classes=4, resolution=8, channels=1)}
GROUP_TABLES = {"exact": TABLES["exact"], "trunc4": builtin_multiplier("trunc4"),
                "full_rank": FULL_RANK}


@functools.lru_cache(maxsize=None)
def _group_model(arch, variant):
    return build_model(substitute_moe(GROUP_ARCHS[arch], variant, n_experts=3), seed=7)


def _group_set(arch, n):
    rng = np.random.default_rng([n, 18])
    # images in [0, 1), as datasets give them: codes 0..127 at the first layer
    return (rng.random((n, *GROUP_ARCHS[arch].input_shape)).astype(np.float32),
            rng.integers(0, 4, size=n).astype(np.int64))


def _alone(model, x, table, batch_size):
    """The logits of every batch of x run alone, in order, each through a
    fresh context; the counters and routed counts summed over them, and
    each batch's own routed counts."""
    logits, counters, routed, each = [], Counter(), Counter(), []
    for start in range(0, len(x), batch_size):
        ctx = RunContext(multiplier=table)
        logits.append(model.forward(x[start : start + batch_size], ctx))
        counters.update(ctx.counters)
        routed.update(ctx.routed)
        each.append(ctx.routed)
    return np.concatenate(logits), dict(counters), dict(routed), each


def _grouped(model, x, y, table, batch_size):
    """evaluate's top-1, the logits it computed, its context, and the
    batch sizes of each list it passed the model."""
    made, seen, lists = [], [], []
    forward_batches = model.forward_batches

    def context(**kwargs):
        made.append(RunContext(**kwargs))
        return made[-1]

    def record(xs, ctx):
        lists.append([len(xb) for xb in xs])
        seen.extend(forward_batches(xs, ctx))
        return seen[-len(xs):]

    with mock.patch.object(train, "RunContext", side_effect=context), \
            mock.patch.object(model, "forward_batches", side_effect=record):
        top1 = evaluate(model, x, y, table, batch_size=batch_size)
    assert len(made) == 1
    return top1, np.concatenate(seen), made[0], lists


# A hard toy_mlp whose routing splits batches of 3: some expert gets no row
# of some batch but rows of others, so the group runs it on a sublist.
@example(arch="toy_mlp", variant="hard", table="trunc4", batch_size=3, n=40)
@example(arch="toy_mlp", variant="hard", table="full_rank", batch_size=3, n=40)
# Batches of 8 toy_mlp images each gather (N = 8 rows against codes 0..127),
# while the group's 139 stacked rows go through the code table.
@example(arch="toy_mlp", variant="dense", table="full_rank", batch_size=8, n=139)
@example(arch="toy_cnn", variant="cluster", table="full_rank", batch_size=1, n=7)
@example(arch="toy_cnn", variant="soft", table="exact", batch_size=64, n=300)
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(arch=st.sampled_from(sorted(GROUP_ARCHS)), variant=st.sampled_from(VARIANTS),
       table=st.sampled_from(sorted(GROUP_TABLES)), batch_size=st.sampled_from([1, 3, 8, 64]),
       n=st.integers(1, 300))
def test_grouped_evaluation_equals_each_batch_run_alone(arch, variant, table, batch_size, n):
    model = _group_model(arch, variant)
    x, y = _group_set(arch, n)
    mul = GROUP_TABLES[table]
    with mock.patch.object(engine, "_lut_code_table", wraps=engine._lut_code_table) as code_table:
        want, counters, routed, each = _alone(model, x, mul, batch_size)
        alone_code_table = code_table.call_count
        top1, got, ctx, lists = _grouped(model, x, y, mul, batch_size)
    assert got.tobytes() == want.tobytes()
    assert ctx.counters == counters and ctx.routed == routed
    assert top1 == float(np.mean(np.argmax(want, axis=1) == y))
    # consecutive batches of batch_size, the last one ragged, in lists of
    # as many batches as fit in EVAL_GROUP samples, and at least one
    per_list = max(1, train.EVAL_GROUP // batch_size)
    sizes = [min(batch_size, n - start) for start in range(0, n, batch_size)]
    assert lists == [sizes[i : i + per_list] for i in range(0, len(sizes), per_list)]
    if (arch, variant, batch_size, n) == ("toy_mlp", "hard", 3, 40):
        # an expert that runs in the group gets no row of some batch
        ran = [key for key, rows in routed.items() if rows]
        assert any(own[key] == 0 for own in each for key in ran), each
    if (arch, variant, table, batch_size, n) == ("toy_mlp", "dense", "full_rank", 8, 139):
        grouped_rows = [len(call.args[0]) for call in code_table.call_args_list]
        assert alone_code_table == 0 and grouped_rows == [n, n]  # fc1 and fc2


def _three_batches(arch, variant):
    model = _group_model(arch, variant)
    x, _ = _group_set(arch, 24)
    return model, [x[:8], x[8:16], x[16:]]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("arch", sorted(GROUP_ARCHS))
def test_a_bad_batch_anywhere_in_a_group_fails_typed_before_any_layer_runs(arch, variant):
    model, xs = _three_batches(arch, variant)
    name = GROUP_ARCHS[arch].name
    bad = {"non-finite": (NumericError, f"^{name}: input contains non-finite values"),
           "empty": (ParameterError, f"^{name}: empty batch"),
           "misshapen": (ParameterError, rf"^{name}: input \(8, 64\) is not \(N, "),
           "integer": (ParameterError, f"^{name}: input must be floating point")}
    for what, (error, message) in bad.items():
        group = list(xs)
        if what == "non-finite":
            group[2] = group[2].copy()
            group[2].flat[5] = np.nan
        elif what == "empty":
            group[2] = group[2][:0]
        elif what == "misshapen":
            group[2] = group[2].reshape(8, 64)
        else:
            group[2] = group[2].astype(np.int64)
        for mul in (None, FULL_RANK):
            with mock.patch.object(engine, "quantize", wraps=engine.quantize) as quantize, \
                    pytest.raises(error, match=message):
                model.forward_batches(group, RunContext(multiplier=mul))
            assert not quantize.called, what


def test_a_non_finite_sample_in_a_later_batch_of_a_group_fails_evaluate():
    model = _group_model("toy_cnn", "soft")
    x, y = _group_set("toy_cnn", 40)
    x[19, 0, 3, 3] = np.inf  # the third batch of 8, in the first group
    with pytest.raises(NumericError, match="non-finite"):
        evaluate(model, x, y, FULL_RANK, batch_size=8)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_training_context_takes_one_batch(variant):
    model, xs = _three_batches("toy_cnn", variant)
    for mul in (None, FULL_RANK):
        with pytest.raises(ParameterError, match="a training pass takes one batch, got 3"):
            model.forward_batches(xs, RunContext(multiplier=mul, train=True))
        # one batch is a training step
        assert len(model.forward_batches(xs[:1], RunContext(multiplier=mul, train=True))) == 1
