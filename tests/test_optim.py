from types import SimpleNamespace

import numpy as np
import pytest

from helpers import same_bits
from seqbench import corpus as C
from seqbench.autograd import Graph, NonFiniteError, Parameter
from seqbench.loglinear import LogLinearLM
from seqbench.nnet import RNNLM, train_lm
from seqbench.optim import (BLOCK, SGD, Adam, AdaGrad, EpochTracker, Momentum,
                            TrainingDivergence, global_norm, make_optimizer)
from seqbench.seq2seq import EncDecModel, train_encdec


def param_with_grad(value, grad):
    p = Parameter("p", value)
    p.grad[...] = np.asarray(grad, dtype=float).reshape(p.grad.shape)
    return p


def test_sgd_step():
    p = param_with_grad([1.0], [2.0])
    SGD([p], lr=0.1).step()
    assert p.value[0, 0] == pytest.approx(0.8)


def test_adam_first_step_magnitude():
    # bias correction makes the very first update approximately lr * sign(g)
    p = param_with_grad([0.0], [0.5])
    Adam([p], lr=0.001).step()
    assert p.value[0, 0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_bias_corrected_trajectory():
    # two steps with a constant gradient, checked against the closed form
    g = 0.5
    p = param_with_grad([0.0], [g])
    opt = Adam([p], lr=0.01)
    opt.step()
    m = 0.1 * g
    v = 0.001 * g * g
    expected = -0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert p.value[0, 0] == pytest.approx(expected, rel=1e-12)
    p.grad[...] = g
    opt.step()
    m = 0.9 * m + 0.1 * g
    v = 0.999 * v + 0.001 * g * g
    expected += -0.01 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
    assert p.value[0, 0] == pytest.approx(expected, rel=1e-12)


# one parameter straddles the first block boundary and one the second
SHAPES = [(5, 3), (181, 200), (7, 1), (1, 4), (150, 210), (2, 2)]
LR = 0.05


def clip(grads, max_norm):
    """Global-norm clipping of each array in place, one array at a time."""
    norm = global_norm(grads)
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor


def sgd_rule(x, g, state, t):
    x -= LR * g


def momentum_rule(x, g, state, t):
    v, = state
    v *= 0.9
    v += g
    x -= LR * v


def adagrad_rule(x, g, state, t):
    acc, = state
    acc += g ** 2
    x -= LR * g / (np.sqrt(acc) + 1e-8)


def adam_rule(x, g, state, t):
    m, v = state
    m *= 0.9
    m += (1 - 0.9) * g
    v *= 0.999
    v += (1 - 0.999) * g ** 2
    m_hat = m / (1 - 0.9 ** t)
    v_hat = v / (1 - 0.999 ** t)
    x -= LR * m_hat / (np.sqrt(v_hat) + 1e-8)


# optimizer -> (per-parameter reference rule, its state arrays per parameter)
REFERENCE_RULES = {SGD: (sgd_rule, 0), Momentum: (momentum_rule, 1),
                   AdaGrad: (adagrad_rule, 1), Adam: (adam_rule, 2)}


@pytest.mark.parametrize("clip_norm", [None, 2.0])
@pytest.mark.parametrize("make", [SGD, Momentum, AdaGrad, Adam])
def test_every_rule_equals_a_per_parameter_reference_bitwise(make, clip_norm):
    # several steps over tensors of mixed shapes spanning three blocks: the
    # blocked pass must round exactly as each rule applied parameter by parameter
    assert BLOCK < sum(r * c for r, c in SHAPES) <= 3 * BLOCK
    rule, n_state = REFERENCE_RULES[make]
    rng = np.random.default_rng(21)
    values = [rng.normal(size=shape) for shape in SHAPES]
    params = [Parameter(f"p{i}", v) for i, v in enumerate(values)]
    opt = make(params, lr=LR, clip_norm=clip_norm)
    ref = [v.copy() for v in values]
    state = [[np.zeros(shape) for _ in range(n_state)] for shape in SHAPES]
    clipped_steps = 0
    for t in range(1, 7):
        grads = [rng.normal(scale=3.0 if t % 2 else 0.001, size=shape) for shape in SHAPES]
        for p, g in zip(params, grads):
            p.grad[...] = g
        opt.step()
        if clip_norm is not None:
            clipped_steps += global_norm(grads) > clip_norm
            clip(grads, clip_norm)
        for x, g, s in zip(ref, grads, state):
            rule(x, g, s, t)
        for p, x, g in zip(params, ref, grads):
            assert np.array_equal(p.value, x) and np.array_equal(p.grad, g)
        opt.zero_grad()
        assert not any(p.grad.any() for p in params)
    assert clip_norm is None or 0 < clipped_steps < 6


def test_parameters_become_views_of_the_optimizer_buffers():
    rng = np.random.default_rng(4)
    params = [param_with_grad(rng.normal(size=shape), rng.normal(size=shape))
              for shape in SHAPES]
    before = [(p.value, p.grad) for p in params]
    opt = Adam(params, lr=0.01)
    assert opt.values.size == opt.grads.size == sum(r * c for r, c in SHAPES)
    for p, (value, grad) in zip(params, before):
        assert np.shares_memory(p.value, opt.values) and np.shares_memory(p.grad, opt.grads)
        assert p.value.flags.c_contiguous and p.grad.flags.c_contiguous
        assert p.value is not value and np.array_equal(p.value, value)
        assert p.grad is not grad and np.array_equal(p.grad, grad)
    opt.step()
    assert not np.array_equal(params[0].value, before[0][0])   # the old array is left behind
    opt.zero_grad()
    assert not opt.grads.any()


def test_zero_gradient_leaves_parameters_unchanged():
    for cls in (SGD, Momentum, AdaGrad):
        p = param_with_grad([3.0, -1.0], [0.0, 0.0])
        cls([p], lr=0.5).step()
        assert p.value[:, 0].tolist() == [3.0, -1.0]


def test_momentum_accumulates_velocity():
    p = param_with_grad([0.0], [1.0])
    opt = Momentum([p], lr=0.1, momentum=0.5)
    opt.step()           # v=1, theta=-0.1
    p.grad[...] = 1.0
    opt.step()           # v=1.5, theta=-0.25
    assert p.value[0, 0] == pytest.approx(-0.25)


def test_adagrad_shrinks_frequent_updates():
    p = param_with_grad([0.0, 0.0], [1.0, 1.0])
    opt = AdaGrad([p], lr=1.0)
    opt.step()
    first = -p.value[0, 0]
    p.grad[...] = np.array([[1.0], [0.0]])
    opt.step()
    second = -(p.value[0, 0] + first)
    assert second < first    # accumulated squared grads damp the step


def test_clipping_scales_the_gradients_to_the_norm_in_place():
    a = param_with_grad([0.0, 0.0], [3.0, 4.0])         # norm 5
    b = param_with_grad([0.0], [np.sqrt(75.0)])         # total norm 10
    SGD([a, b], lr=0.1, clip_norm=5.0).step()
    assert global_norm([a.grad, b.grad]) == pytest.approx(5.0)
    assert a.grad[0, 0] == pytest.approx(1.5) and a.value[0, 0] == pytest.approx(-0.15)

    c = param_with_grad([0.0], [3.0])
    SGD([c], lr=0.1, clip_norm=5.0).step()
    assert c.grad[0, 0] == 3.0                          # norm below threshold: unchanged

    z = param_with_grad([1.0, 2.0], [0.0, 0.0])
    SGD([z], lr=0.1, clip_norm=5.0).step()
    assert not z.grad.any() and z.value[:, 0].tolist() == [1.0, 2.0]


def test_non_finite_gradient_norm_stops_before_scaling():
    params = [param_with_grad([1.0], [3.0]), param_with_grad([1.0], [np.inf])]
    with pytest.raises(TrainingDivergence):
        SGD(params, lr=0.1, clip_norm=1.0).step()
    assert params[0].grad[0, 0] == 3.0 and params[0].value[0, 0] == 1.0


def test_learning_rate_and_clip_norm_must_be_positive():
    with pytest.raises(ValueError, match="learning rate"):
        SGD([Parameter("p", [1.0])], lr=0.0)
    for clip_norm in (0.0, -1.0):
        with pytest.raises(ValueError, match="clip_norm"):
            SGD([Parameter("p", [1.0])], lr=0.1, clip_norm=clip_norm)


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ValueError):
        make_optimizer("sgdm", [], lr=0.1)


def test_epoch_tracker_decay_and_restore():
    p = Parameter("p", [1.0])
    opt = SGD([p], lr=0.4)
    tracker = EpochTracker(opt)
    assert tracker.report(-10.0)
    p.value[...] = 99.0
    assert not tracker.report(-12.0)    # worse epoch: lr halves
    assert opt.lr == pytest.approx(0.2)
    tracker.restore_best()
    assert p.value[0, 0] == 1.0


def assert_named_at_parameter_node(p):
    """The next graph over ``p`` reports its non-finite value at its node."""
    g = Graph()
    with pytest.raises(NonFiniteError, match=r"node 0 \(parameter\)"):
        g.tanh(g.param(p))  # tanh(-inf) is finite: only the parameter check can fire
    assert not g.nodes


@pytest.mark.parametrize("make", [SGD, Momentum, AdaGrad, Adam])
def test_step_that_overflows_a_weight_is_caught_by_the_next_graph(make):
    p = Parameter("w", [-1e308, 1.0])
    g = Graph()
    g.tanh(g.param(p))
    g.forward()                              # p is now known to be finite
    p.grad[...] = [[1.0], [0.0]]
    with np.errstate(over="ignore"):
        make([p], lr=1e308).step()           # every rule's first update is ~ -1e308
    assert p.value[0, 0] == -np.inf and p.value[1, 0] == 1.0
    assert_named_at_parameter_node(p)


def test_an_overflow_in_a_later_block_leaves_every_parameter_to_be_rescanned():
    params = [Parameter(f"p{i}", np.ones(shape)) for i, shape in enumerate(SHAPES)]
    g = Graph()
    for p in params:
        g.tanh(g.param(p))                   # every parameter is known to be finite
    params[4].value[-1, -1] = 1e308
    params[4].changed()
    params[4].grad[-1, -1] = -1.0            # the last block's update overflows
    with np.errstate(over="ignore"):
        SGD(params, lr=1e308).step()
    assert params[4].value[-1, -1] == np.inf
    assert all(np.isfinite(p.value).all() for i, p in enumerate(params) if i != 4)
    assert_named_at_parameter_node(params[4])
    params[0].value[0, 0] = np.nan           # written without changed(): still rescanned
    assert_named_at_parameter_node(params[0])


def test_a_finite_step_records_its_verdict_on_every_parameter():
    params = [param_with_grad(np.ones(shape), np.ones(shape)) for shape in SHAPES]
    SGD(params, lr=0.1).step()
    for p in params:
        p.value[0, 0] = np.nan               # written without changed(): not rescanned
        g = Graph()
        g.tanh(g.param(p))
        p.changed()
        assert_named_at_parameter_node(p)


def test_restore_best_of_a_non_finite_snapshot_is_caught_by_the_next_graph():
    p = Parameter("p", [np.nan])
    tracker = EpochTracker(SGD([p], lr=0.1))
    tracker.report(-1.0)                     # the snapshot holds the NaN
    p.value[...] = 0.0
    p.changed()
    g = Graph()
    g.tanh(g.param(p))
    g.forward()
    tracker.restore_best()
    assert_named_at_parameter_node(p)


def test_epoch_tracker_over_bare_arrays_and_a_rate_of_zero():
    w = np.array([[1.0, 2.0]])
    sgd = SimpleNamespace(lr=0.0, params=[w])
    tracker = EpochTracker(sgd)
    assert tracker.report(-3.0)
    w[...] = 7.0
    assert not tracker.report(-4.0)
    assert sgd.lr == 0.0
    tracker.restore_best()
    assert w.tolist() == [[1.0, 2.0]]


LINES = ["the cat sat", "a dog ran", "the bird sang", "a bird flew", "the cat slept",
         "a dog slept"]
DEV = ["the cat ran", "a bird sat"]
# (trainer, with a dev set) -> learning rate and seed whose best epoch is not the last
BEST_BEFORE_LAST = {
    ("train_sgd", True): (0.5, 1), ("train_sgd", False): (3.0, 2),
    ("train_lm", True): (2.0, 1), ("train_lm", False): (4.0, 0),
    ("train_encdec", True): (2.0, 0), ("train_encdec", False): (4.0, 0),
}


def loglinear_trainer(lr, seed, with_dev):
    vocab = C.build_vocab(LINES)
    model = LogLinearLM(vocab, "prev2_words")
    dev = [C.encode(vocab, line, append_eos=True) for line in DEV]
    train = lambda log: model.train_sgd(LINES, dev_lines=DEV if with_dev else None, lr=lr,
                                        epochs=6, rng=np.random.default_rng(seed), log=log)
    return lambda: [model.W, model.b], train, lambda: -model.corpus_nll(dev)


def rnnlm_trainer(lr, seed, with_dev):
    vocab = C.build_vocab(LINES)
    model = RNNLM(vocab, embed_size=4, hidden_size=4, rng=np.random.default_rng(seed))
    sents, dev = ([C.encode(vocab, line, append_eos=True) for line in lines]
                  for lines in (LINES, DEV))
    opt = make_optimizer("sgd", model.parameters(), lr=lr, clip_norm=5.0)
    train = lambda log: train_lm(model, sents, opt, epochs=6,
                                 dev_sentences=dev if with_dev else None, batch_size=2,
                                 rng=np.random.default_rng(seed), log=log)
    return (lambda: [p.value for p in model.parameters()], train,
            lambda: -model.corpus_nll(dev))


def encdec_trainer(lr, seed, with_dev):
    vocab = C.build_vocab(LINES)
    model = EncDecModel(vocab, vocab, embed_size=4, hidden_size=4, attention="dot",
                        encoder="forward", rng=np.random.default_rng(seed))
    pairs, dev = ([(C.encode(vocab, line), C.encode(vocab, line, append_eos=True))
                   for line in lines] for lines in (LINES, DEV))
    opt = make_optimizer("sgd", model.parameters(), lr=lr, clip_norm=5.0)
    train = lambda log: train_encdec(model, pairs, opt, epochs=6,
                                     dev_pairs=dev if with_dev else None,
                                     rng=np.random.default_rng(seed), log=log)
    return (lambda: [p.value for p in model.parameters()], train,
            lambda: -model.corpus_nll(dev))


TRAINERS = {"train_sgd": loglinear_trainer, "train_lm": rnnlm_trainer,
            "train_encdec": encdec_trainer}


def train_with_epoch_snapshots(trainer, with_dev):
    """Train six epochs; returns the history, each epoch's training loss and
    parameter values as ``fit`` logged them, the final values and the model's
    dev log-likelihood."""
    arrays, train, dev_ll = TRAINERS[trainer](*BEST_BEFORE_LAST[trainer, with_dev], with_dev)
    losses, snapshots = [], []

    def log(epoch, train_loss, score):
        losses.append(train_loss)
        snapshots.append([a.copy() for a in arrays()])

    history = train(log)
    return history, losses, snapshots, arrays(), dev_ll()


def assert_kept_epoch(best, snapshots, final):
    assert best < len(snapshots) - 1        # the rule is exercised: a later epoch was worse
    for value, snap in zip(final, snapshots[best], strict=True):
        assert np.array_equal(value, snap)


@pytest.mark.parametrize("trainer", TRAINERS)
def test_early_stopping_returns_best_dev_snapshot(trainer):
    history, _, snapshots, final, dev_ll = train_with_epoch_snapshots(trainer, True)
    assert dev_ll == max(history)
    assert_kept_epoch(int(np.argmax(history)), snapshots, final)


@pytest.mark.parametrize("trainer", TRAINERS)
def test_without_dev_set_the_lowest_training_loss_epoch_is_kept(trainer):
    history, losses, snapshots, final, _ = train_with_epoch_snapshots(trainer, False)
    assert history == [-loss for loss in losses]
    assert_kept_epoch(int(np.argmin(losses)), snapshots, final)


@pytest.mark.parametrize("epochs", [1, 2])
def test_a_best_last_epoch_is_neither_copied_nor_written_back(epochs):
    # the values training ends on stay as the last step left them, and so
    # does every parameter's finite verdict: the next graph scans none
    vocab = C.build_vocab(LINES)
    model = RNNLM(vocab, embed_size=4, hidden_size=4, rng=np.random.default_rng(0))
    sents, dev = ([C.encode(vocab, line, append_eos=True) for line in lines]
                  for lines in (LINES, DEV))
    last = []
    history = train_lm(model, sents, Adam(model.parameters(), lr=0.01), epochs=epochs,
                       dev_sentences=dev, batch_size=2, rng=np.random.default_rng(0),
                       log=lambda *_: last.__setitem__(
                           slice(None), [p.value.copy() for p in model.parameters()]))
    assert history == sorted(history)       # the last epoch is the best
    for p, value in zip(model.parameters(), last, strict=True):
        assert same_bits(p.value, value)
        assert p._known_finite


def test_a_last_improving_epoch_takes_no_snapshot():
    params = [Parameter(f"p{i}", np.full(shape, float(i))) for i, shape in
              enumerate([(2, 3), (4, 1)])]
    tracker = EpochTracker(SGD(params, lr=0.1))
    assert tracker.report(-1.0)
    assert [snap.tolist() for snap in tracker.best_snapshot] == [[[0.0] * 3] * 2,
                                                                 [[1.0]] * 4]
    for p in params:
        p.value[...] = 9.0
    assert tracker.report(0.0, last=True) and tracker.best_snapshot is None
    tracker.restore_best()
    assert all((p.value == 9.0).all() for p in params)
