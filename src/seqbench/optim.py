"""Gradient-based parameter update rules (SGD, momentum, AdaGrad, Adam) and the
epoch loop every trainer shares."""

from __future__ import annotations

import numpy as np

from .autograd import NonFiniteError, Parameter


class TrainingDivergence(Exception):
    """Loss became NaN/Inf during training (maps to CLI exit code 3)."""


def global_norm(grads) -> float:
    with np.errstate(over="ignore"):
        return float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))


def clip_gradients(grads, max_norm: float, norm: float | None = None):
    """Scale all gradients in place so their global L2 norm is at most max_norm.

    ``norm`` is the gradients' global norm when the caller already has it.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    if norm is None:
        norm = global_norm(grads)
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return grads


class Optimizer:
    """Base update rule over a fixed list of parameters.

    ``clip_norm`` applies global-norm clipping to the accumulated gradients
    before every update; pass None to disable.
    """

    def __init__(self, params, lr: float, clip_norm: float | None = None):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.clip_norm = clip_norm

    def step(self):
        if self.clip_norm is not None:
            grads = [p.grad for p in self.params]
            norm = global_norm(grads)
            if not np.isfinite(norm):
                raise TrainingDivergence("gradient norm is not finite")
            clip_gradients(grads, self.clip_norm, norm)
        self._update()
        for p in self.params:
            p.changed()

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def _update(self):
        raise NotImplementedError


class SGD(Optimizer):
    def _update(self):
        for p in self.params:
            p.value -= self.lr * p.grad


class Momentum(Optimizer):
    """Keeps an exponentially decaying average of past gradients."""

    def __init__(self, params, lr: float, momentum: float = 0.9, clip_norm=None):
        super().__init__(params, lr, clip_norm)
        self.momentum = momentum
        self.velocity = [np.zeros(p.value.shape) for p in self.params]

    def _update(self):
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad
            p.value -= self.lr * v


class AdaGrad(Optimizer):
    """Per-parameter rates: frequently updated entries get smaller steps."""

    def __init__(self, params, lr: float, eps: float = 1e-8, clip_norm=None):
        super().__init__(params, lr, clip_norm)
        self.eps = eps
        self.accum = [np.zeros(p.value.shape) for p in self.params]

    def _update(self):
        for p, acc in zip(self.params, self.accum):
            acc += p.grad ** 2
            p.value -= self.lr * p.grad / (np.sqrt(acc) + self.eps)


class Adam(Optimizer):
    """Decaying averages of gradient mean and variance with bias correction."""

    def __init__(self, params, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, clip_norm=None):
        super().__init__(params, lr, clip_norm)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(p.value.shape) for p in self.params]
        self.v = [np.zeros(p.value.shape) for p in self.params]

    def _update(self):
        """``value -= lr * m_hat / (sqrt(v_hat) + eps)``, rounded exactly as
        that expression, but through two scratch buffers sized for the
        largest parameter instead of full-size temporaries. The buffers live
        for one call: an optimizer outlives its training run."""
        self.t += 1
        c1, c2 = 1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t
        size = max((p.value.size for p in self.params), default=0)
        buf_a, buf_b = np.empty(size), np.empty(size)
        for p, m, v in zip(self.params, self.m, self.v):
            a = buf_a[:m.size].reshape(m.shape)
            b = buf_b[:m.size].reshape(m.shape)
            m *= self.beta1
            m += np.multiply(1 - self.beta1, p.grad, out=a)
            v *= self.beta2
            np.square(p.grad, out=a)
            v += np.multiply(1 - self.beta2, a, out=a)
            np.divide(m, c1, out=a)             # m_hat
            np.divide(v, c2, out=b)             # v_hat
            a *= self.lr
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.value -= a


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
        self.best_snapshot = None

    def report(self, dev_ll: float) -> bool:
        """Record an epoch's dev log-likelihood; returns True if it improved."""
        if not np.isfinite(dev_ll):
            raise TrainingDivergence(f"dev log-likelihood is {dev_ll}")
        if dev_ll > self.best_ll:
            self.best_ll = dev_ll
            self.best_snapshot = [_array(p).copy() for p in self.optimizer.params]
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
    set. A NaN or Inf in a graph, or a non-finite score, raises
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
        tracker.report(score)
    tracker.restore_best()
    return history
