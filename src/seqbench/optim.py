"""Gradient-based parameter update rules (SGD, momentum, AdaGrad, Adam) and the
epoch loop every trainer shares."""

from __future__ import annotations

import numpy as np

from .autograd import NonFiniteError, Parameter

BLOCK = 32_768      # entries per pass: a block of every array a rule touches fits in L2


class TrainingDivergence(Exception):
    """Loss became NaN/Inf during training (maps to CLI exit code 3)."""


def global_norm(grads) -> float:
    with np.errstate(over="ignore"):
        return float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))


class Optimizer:
    """Base update rule over a fixed list of parameters, kept in one arena.

    Building an optimizer moves its parameters' ``value`` and ``grad`` into
    views of two flat buffers, ``values`` and ``grads``: an array taken from
    a parameter earlier is no longer the parameter's. ``step`` scales the
    gradients to a global norm of at most ``clip_norm`` (None disables it)
    and, block by block of ``BLOCK`` entries, runs the subclass's rule
    ``_update(block, value, grad, a, b)`` on the entries ``block`` (``a`` and
    ``b`` are scratch), rounded as its textbook form, and checks the updated
    values for finiteness.
    """

    def __init__(self, params, lr: float, clip_norm: float | None = None):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if clip_norm is not None and clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0                          # updates made
        size = sum(p.value.size for p in self.params)
        self.values, self.grads = np.empty(size), np.zeros(size)
        self._scratch = np.empty((2, min(size, BLOCK)))
        end = 0
        for p in self.params:
            start, end = end, end + p.value.size
            value = self.values[start:end].reshape(p.value.shape)
            grad = self.grads[start:end].reshape(p.value.shape)
            value[...] = p.value
            if p.grad.any():            # else the gradients stay calloc's unwritten pages
                grad[...] = p.grad
            p.value, p.grad = value, grad   # the old arrays are released here

    def step(self):
        factor = None
        if self.clip_norm is not None:
            norm = global_norm([p.grad for p in self.params])  # per-tensor sums, bitwise
            if not np.isfinite(norm):
                raise TrainingDivergence("gradient norm is not finite")
            if norm > self.clip_norm:
                factor = self.clip_norm / norm
        self.t += 1
        finite = True
        for start in range(0, self.values.size, BLOCK):
            block = slice(start, start + BLOCK)
            value, grad = self.values[block], self.grads[block]
            if factor is not None:
                grad *= factor
            self._update(block, value, grad, *self._scratch[:, :value.size])
            finite = finite and bool(np.isfinite(value).all())
        for p in self.params:           # a finite model needs no scan by the next graph
            p.changed(known_finite=finite)

    def zero_grad(self):
        self.grads.fill(0.0)


class SGD(Optimizer):
    def _update(self, block, value, grad, a, b):
        value -= np.multiply(self.lr, grad, out=a)


class Momentum(Optimizer):
    """Keeps an exponentially decaying average of past gradients."""

    def __init__(self, params, lr: float, momentum: float = 0.9, clip_norm=None):
        super().__init__(params, lr, clip_norm)
        self.momentum = momentum
        self.velocity = np.zeros(self.values.size)

    def _update(self, block, value, grad, a, b):
        v = self.velocity[block]
        v *= self.momentum
        v += grad
        value -= np.multiply(self.lr, v, out=a)


class AdaGrad(Optimizer):
    """Per-parameter rates: frequently updated entries get smaller steps."""

    def __init__(self, params, lr: float, eps: float = 1e-8, clip_norm=None):
        super().__init__(params, lr, clip_norm)
        self.eps = eps
        self.accum = np.zeros(self.values.size)

    def _update(self, block, value, grad, a, b):
        acc = self.accum[block]
        acc += np.square(grad, out=a)
        np.sqrt(acc, out=b)
        b += self.eps
        value -= np.divide(np.multiply(self.lr, grad, out=a), b, out=a)


class Adam(Optimizer):
    """Decaying averages of gradient mean and variance with bias correction."""

    def __init__(self, params, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, clip_norm=None):
        super().__init__(params, lr, clip_norm)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(self.values.size)
        self.v = np.zeros(self.values.size)

    def _update(self, block, value, grad, a, b):
        m, v = self.m[block], self.v[block]
        m *= self.beta1
        m += np.multiply(1 - self.beta1, grad, out=a)
        v *= self.beta2
        v += np.multiply(1 - self.beta2, np.square(grad, out=a), out=a)
        np.divide(m, 1 - self.beta1 ** self.t, out=a)     # m_hat
        np.divide(v, 1 - self.beta2 ** self.t, out=b)     # v_hat
        a *= self.lr
        np.sqrt(b, out=b)
        b += self.eps
        value -= np.divide(a, b, out=a)


OPTIMIZERS = {"sgd": SGD, "momentum": Momentum, "adagrad": AdaGrad, "adam": Adam}


def make_optimizer(kind: str, params, lr: float, clip_norm=None) -> Optimizer:
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}; choose from {sorted(OPTIMIZERS)}")
    return OPTIMIZERS[kind](params, lr=lr, clip_norm=clip_norm)


class EpochTracker:
    """Best-epoch snapshot and halve-on-plateau learning-rate decay.

    ``optimizer`` is any object with an ``lr``, halved (with ``decay``) after
    an epoch no better than the best, and ``params``, Parameters or bare
    arrays snapshotted at the best epoch and written back by ``restore_best``.
    """

    def __init__(self, optimizer, decay: bool = True):
        self.optimizer = optimizer
        self.decay = decay
        self.best_ll = -np.inf
        self.best_snapshot = None       # None: the current values are the best

    def report(self, dev_ll: float, last: bool = False) -> bool:
        """Record an epoch's dev log-likelihood; returns True if it improved.

        An improved epoch's values are copied, unless ``last`` says that no
        epoch follows it: training then ends on them, and nothing is copied
        or, by ``restore_best``, written back.
        """
        if not np.isfinite(dev_ll):
            raise TrainingDivergence(f"dev log-likelihood is {dev_ll}")
        if dev_ll > self.best_ll:
            self.best_ll = dev_ll
            self.best_snapshot = None if last else [
                _array(p).copy() for p in self.optimizer.params]
            return True
        if self.decay:
            self.optimizer.lr /= 2.0
        return False

    def restore_best(self):
        if self.best_snapshot is not None:
            for p, snap in zip(self.optimizer.params, self.best_snapshot):
                _array(p)[...] = snap
                if isinstance(p, Parameter):
                    p.changed()


def _array(p) -> np.ndarray:
    return p.value if isinstance(p, Parameter) else p


def fit(items, train_epoch, tracker: EpochTracker, epochs: int, dev_ll=None,
        rng=None, shuffle: bool = True, log=None) -> list[float]:
    """The epoch loop of every trainer; returns the per-epoch scores.

    ``train_epoch`` trains on the ``items``, shuffled by ``rng`` unless
    ``shuffle`` is off, and returns their summed loss. An epoch scores
    ``dev_ll()``, or its negated training loss when ``dev_ll`` is None; it is
    passed to ``log(epoch, train_loss, score)`` and to ``tracker``, which halves
    the rate after a worse epoch. Training ends on the best-scoring epoch's
    parameters: the best on dev, or the lowest training loss without a dev
    set. When that is the last epoch, its values are neither copied nor
    written back. A NaN or Inf in a graph, or a non-finite score, raises
    TrainingDivergence.
    """
    rng = rng or np.random.default_rng(0)
    history = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(items)) if shuffle else range(len(items))
        try:
            train_loss = train_epoch([items[i] for i in order])
            score = -train_loss if dev_ll is None else dev_ll()
        except NonFiniteError as exc:
            raise TrainingDivergence(str(exc)) from exc
        history.append(score)
        if log is not None:
            log(epoch, train_loss, score)
        tracker.report(score, last=epoch == epochs)
    tracker.restore_best()
    return history
