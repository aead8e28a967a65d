"""The computation-graph engine: forward, backward, and the optimizers.

Builds a small graph by hand, checks its gradients against central finite
differences, then races the four update rules on a quadratic bowl.
"""

import numpy as np

from seqbench import Graph, Parameter
from seqbench.optim import SGD, Adam, AdaGrad, Momentum

# --- a tiny network, differentiated two ways --------------------------------

W = Parameter("W", np.array([[0.4, -0.3], [0.1, 0.8]]))
b = Parameter("b", np.array([0.05, -0.1]))
x_value = np.array([0.7, -1.2])


def loss_graph():
    # each op's value is computed as its node is recorded; forward() returns
    # the last one
    with Graph() as g:
        h = g.tanh(g.add(g.matmul(g.param(W), g.input(x_value)), g.param(b)))
        g.squared_distance(h, g.input([1.0, -1.0]))
    return g


g = loss_graph()
print("loss =", g.forward()[0, 0])
g.backward()
analytic = b.grad.copy()

h = 1e-5
numeric = np.zeros_like(analytic)
for i in range(2):
    b.value[i, 0] += h
    up = loss_graph().forward()[0, 0]
    b.value[i, 0] -= 2 * h
    down = loss_graph().forward()[0, 0]
    b.value[i, 0] += h
    numeric[i, 0] = (up - down) / (2 * h)

print("bias gradient, analytic :", analytic[:, 0])
print("bias gradient, numeric  :", numeric[:, 0])
print("max abs difference      :", np.abs(analytic - numeric).max())
print()

# --- optimizer shoot-out on f(theta) = sum(theta^2) --------------------------

print("minimizing |theta|^2 from theta = (3, -2), 40 steps each:")
for name, make in [("sgd", lambda p: SGD([p], lr=0.1)),
                   ("momentum", lambda p: Momentum([p], lr=0.05)),
                   ("adagrad", lambda p: AdaGrad([p], lr=1.0)),
                   ("adam", lambda p: Adam([p], lr=0.3))]:
    theta = Parameter("theta", [3.0, -2.0])
    opt = make(theta)
    for _ in range(40):
        theta.grad[...] = 2 * theta.value      # d/dtheta of sum(theta^2)
        opt.step()
        opt.zero_grad()
    print(f"  {name:9s} -> |theta| = {np.linalg.norm(theta.value):.2e}")
