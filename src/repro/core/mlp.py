"""Three-layer perceptron with feed-forward back-propagation (Sec. 3).

The paper's machine-learning engine is deliberately classical: *"The neural
network topology we have used is a three-layer perceptron, and it is
trained with the Feed-Forward Back-Propagation Network (BPN) algorithm."*
This module implements exactly that, from scratch in numpy:

- input layer → tanh hidden layer → sigmoid output layer (outputs are
  certainties/opacities in [0, 1]);
- mini-batch gradient descent on mean-squared error with momentum — the
  standard BPN-with-momentum of Rumelhart & McClelland;
- **incremental training** (:meth:`NeuralNetwork.train_increment`): the
  paper trains *"iteratively in the system's idle loop"* while the user
  keeps painting, so training must be resumable a few epochs at a time;
- **network resizing with weight transfer**
  (:meth:`NeuralNetwork.with_input_subset`): Sec. 6 lets the user drop data
  properties from the input vector, and *"the input data for the previous
  network would be transferred to the new network"*;
- input standardization, fitted once from the training set and kept fixed
  so incremental batches are consistent.

Everything is vectorized over sample batches; no per-sample Python loops.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator, spawn_generators


class TrainingSet:
    """Accumulating supervised training set (inputs → target certainties).

    The interface adds samples as the user paints (Sec. 6), so the set
    grows incrementally; the network snapshots standardization statistics
    from it the first time training runs.
    """

    def __init__(self, n_inputs: int) -> None:
        if n_inputs < 1:
            raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
        self.n_inputs = int(n_inputs)
        self._x_chunks: list[np.ndarray] = []
        self._y_chunks: list[np.ndarray] = []
        self._n = 0

    def add(self, inputs, targets) -> None:
        """Append a batch of samples.

        ``inputs`` is ``(n, n_inputs)``; ``targets`` is ``(n,)`` or
        ``(n, 1)`` with values in [0, 1].
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        targets = np.asarray(targets, dtype=np.float64).reshape(len(inputs), -1)
        if inputs.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input features, got {inputs.shape[1]}"
            )
        if targets.shape[1] != 1:
            raise ValueError("targets must be scalar per sample")
        if targets.min() < 0.0 or targets.max() > 1.0:
            raise ValueError("targets must lie in [0, 1]")
        self._x_chunks.append(inputs)
        self._y_chunks.append(targets[:, 0])
        self._n += len(inputs)

    def __len__(self) -> int:
        return self._n

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize ``(X, y)``; consolidates chunks lazily."""
        if self._n == 0:
            raise ValueError("training set is empty")
        if len(self._x_chunks) > 1:
            self._x_chunks = [np.concatenate(self._x_chunks, axis=0)]
            self._y_chunks = [np.concatenate(self._y_chunks, axis=0)]
        return self._x_chunks[0], self._y_chunks[0]

    def subset_features(self, keep) -> "TrainingSet":
        """Project the stored inputs onto a feature subset (Sec. 6 transfer)."""
        keep = list(keep)
        out = TrainingSet(len(keep))
        if self._n:
            X, y = self.arrays()
            out.add(X[:, keep], y)
        return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clip to keep exp() finite; gradients there are ~0 anyway.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))


class NeuralNetwork:
    """Three-layer perceptron: ``n_inputs`` → ``n_hidden`` (tanh) → 1 (sigmoid).

    Parameters
    ----------
    n_inputs:
        Input feature count (e.g. 3 for the IATF's ⟨data, cumhist, t⟩).
    n_hidden:
        Hidden-layer width.  The paper resizes the net as the user changes
        the property set; width scales classification throughput linearly.
    learning_rate, momentum:
        BPN hyper-parameters.
    seed:
        Weight-init / shuffling RNG seed (deterministic training).
    """

    def __init__(self, n_inputs: int, n_hidden: int = 16,
                 learning_rate: float = 0.2, momentum: float = 0.9, seed=0) -> None:
        if n_inputs < 1 or n_hidden < 1:
            raise ValueError("n_inputs and n_hidden must be >= 1")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.n_inputs = int(n_inputs)
        self.n_hidden = int(n_hidden)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self._rng = as_generator(seed)
        # Xavier-style init keeps tanh units out of saturation at start.
        limit1 = np.sqrt(6.0 / (n_inputs + n_hidden))
        self.w1 = self._rng.uniform(-limit1, limit1, size=(n_hidden, n_inputs))
        self.b1 = np.zeros(n_hidden)
        limit2 = np.sqrt(6.0 / (n_hidden + 1))
        self.w2 = self._rng.uniform(-limit2, limit2, size=(1, n_hidden))
        self.b2 = np.zeros(1)
        self._vw1 = np.zeros_like(self.w1)
        self._vb1 = np.zeros_like(self.b1)
        self._vw2 = np.zeros_like(self.w2)
        self._vb2 = np.zeros_like(self.b2)
        # Standardization statistics; fitted on first training call.
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self.epochs_trained = 0

    # ------------------------------------------------------------------ #
    # Standardization
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether standardization statistics exist (any training ran)."""
        return self._mean is not None

    def fit_scaler(self, X: np.ndarray) -> None:
        """Set input standardization from a data matrix.

        Called automatically by the first training pass.
        """
        X = np.asarray(X, dtype=np.float64)
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._std = np.where(std > 1e-9, std, 1.0)

    def refit_scaler(self, X: np.ndarray) -> None:
        """Update standardization to track the (growing) training set.

        The interactive workflow grows the training set over time — e.g.
        the first strokes all come from one time step, so the ``time``
        column is degenerate; freezing statistics then would push later
        steps' inputs hundreds of standard deviations out and saturate the
        hidden layer permanently (a function-preserving reparametrization
        would *preserve that saturation*, leaving the network stuck with
        vanished gradients).  Instead the statistics simply follow the
        current training set: existing weights are reinterpreted in the
        re-conditioned input space — a small perturbation when statistics
        barely moved, a fresh start for a previously-degenerate column —
        and the retained training data pulls the function back within a
        few idle-loop epochs.  Momentum is reset when statistics change
        materially so stale velocities don't act in the new space.
        """
        if self._mean is None:
            self.fit_scaler(X)
            return
        X = np.asarray(X, dtype=np.float64)
        new_mean = X.mean(axis=0)
        std = X.std(axis=0)
        new_std = np.where(std > 1e-9, std, 1.0)
        changed = not (
            np.allclose(new_mean, self._mean, rtol=0.05, atol=1e-12)
            and np.allclose(new_std, self._std, rtol=0.05)
        )
        self._mean, self._std = new_mean, new_std
        if changed:
            self._vw1[:] = 0.0
            self._vb1[:] = 0.0
            self._vw2[:] = 0.0
            self._vb2[:] = 0.0

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        if self._mean is None:
            raise RuntimeError("network has no scaler yet; train first")
        return (np.asarray(X, dtype=np.float64) - self._mean) / self._std

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def _forward(self, Xs: np.ndarray):
        z1 = Xs @ self.w1.T + self.b1
        a1 = np.tanh(z1)
        z2 = a1 @ self.w2.T + self.b2
        out = _sigmoid(z2)
        return a1, out

    def _backward_step(self, Xs: np.ndarray, y: np.ndarray) -> float:
        n = len(Xs)
        a1, out = self._forward(Xs)
        err = out[:, 0] - y  # (n,)
        loss = float(np.mean(err**2))
        # dL/dz2 through sigmoid
        dz2 = (2.0 / n) * err * out[:, 0] * (1.0 - out[:, 0])  # (n,)
        gw2 = dz2[None, :] @ a1  # (1, h)
        gb2 = np.array([dz2.sum()])
        da1 = dz2[:, None] * self.w2  # (n, h)
        dz1 = da1 * (1.0 - a1**2)
        gw1 = dz1.T @ Xs  # (h, d)
        gb1 = dz1.sum(axis=0)
        lr, mu = self.learning_rate, self.momentum
        self._vw2 = mu * self._vw2 - lr * gw2
        self._vb2 = mu * self._vb2 - lr * gb2
        self._vw1 = mu * self._vw1 - lr * gw1
        self._vb1 = mu * self._vb1 - lr * gb1
        self.w2 += self._vw2
        self.b2 += self._vb2
        self.w1 += self._vw1
        self.b1 += self._vb1
        return loss

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train(self, X, y, epochs: int = 200, batch_size: int = 64,
              tol: float = 1e-5, input_dropout: float = 0.0) -> list[float]:
        """Full training run; returns the per-epoch loss history.

        Stops early when the epoch loss drops below ``tol``.  See
        :meth:`train_increment` for ``input_dropout``.
        """
        losses: list[float] = []
        for _ in range(int(epochs)):
            loss = self.train_increment(X, y, epochs=1, batch_size=batch_size,
                                        input_dropout=input_dropout)
            losses.append(loss)
            if loss < tol:
                break
        return losses

    def train_increment(self, X, y, epochs: int = 1, batch_size: int = 64,
                        input_dropout: float = 0.0) -> float:
        """Run a few epochs and return the last epoch's mean batch loss.

        This is the idle-loop entry point: the interface calls it between
        user interactions, keeping the UI responsive while training
        converges (Sec. 4.2.2).

        ``input_dropout`` zeroes each *standardized* input feature with the
        given probability per sample per batch (zero = the feature's mean,
        i.e. "uninformative").  When several inputs are redundant encodings
        of the target — the IATF's value and cumulative-histogram inputs at
        a key frame are exactly that — plain training may hang the output
        on whichever encoding the initialization favors; dropout forces
        every redundant pathway to carry the signal on its own, so the
        trained net degrades gracefully when one encoding shifts at unseen
        time steps.
        """
        if not 0.0 <= input_dropout < 1.0:
            raise ValueError(f"input_dropout must be in [0, 1), got {input_dropout}")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}")
        if X.shape[1] != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} features, got {X.shape[1]}")
        self.refit_scaler(X)
        Xs = self._standardize(X)
        n = len(Xs)
        batch_size = max(1, min(int(batch_size), n))
        last = float("inf")
        for _ in range(int(epochs)):
            order = self._rng.permutation(n)
            batch_losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb = Xs[idx]
                if input_dropout > 0.0:
                    keep = self._rng.random(xb.shape) >= input_dropout
                    xb = np.where(keep, xb, 0.0)
                batch_losses.append(self._backward_step(xb, y[idx]))
            last = float(np.mean(batch_losses))
            self.epochs_trained += 1
        return last

    def train_set(self, training_set: TrainingSet, epochs: int = 200,
                  batch_size: int = 64, tol: float = 1e-5) -> list[float]:
        """Train from a :class:`TrainingSet` (convenience)."""
        X, y = training_set.arrays()
        return self.train(X, y, epochs=epochs, batch_size=batch_size, tol=tol)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def fused_layers(self, dtype=np.float32):
        """Layer weights with input standardization folded into layer 1.

        ``(x - mean) / std @ w1.T + b1`` is affine in ``x``, so the scaler
        can be absorbed once — ``w1' = w1 / std``, ``b1' = b1 - w1' @ mean``
        — and whole-volume inference becomes one GEMM per layer over raw
        features with no per-chunk standardization temporaries.  Returns
        ``(w1, b1, w2, b2)`` as fresh arrays of ``dtype`` (float32 by
        default: half the memory traffic of the float64 reference path).
        """
        if self._mean is None:
            raise RuntimeError("network has no scaler yet; train first")
        w1 = self.w1 / self._std
        b1 = self.b1 - w1 @ self._mean
        return (w1.astype(dtype), b1.astype(dtype),
                self.w2.astype(dtype), self.b2.astype(dtype))

    def predict(self, X, chunk: int = 262144) -> np.ndarray:
        """Certainty in [0, 1] for each input row; ``(n,)`` output.

        Chunked so whole-volume classification (tens of millions of rows)
        never materializes more than ``chunk`` hidden activations at once.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} features, got {X.shape[1]}")
        out = np.empty(len(X), dtype=np.float64)
        for start in range(0, len(X), int(chunk)):
            stop = start + int(chunk)
            Xs = self._standardize(X[start:stop])
            _, o = self._forward(Xs)
            out[start:stop] = o[:, 0]
        return out

    def loss(self, X, y) -> float:
        """Mean-squared error on a labelled set."""
        pred = self.predict(X)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        return float(np.mean((pred - y) ** 2))

    # ------------------------------------------------------------------ #
    # Resizing (Sec. 6) and serialization
    # ------------------------------------------------------------------ #
    def with_input_subset(self, keep) -> "NeuralNetwork":
        """New network using only the input features in ``keep``.

        First-layer weight columns (and scaler statistics) for kept
        features transfer; hidden→output weights transfer unchanged.  The
        paper's interface uses this when the user drops data properties
        they consider unimportant — the transferred weights give the new,
        smaller network a warm start before retraining on the projected
        training data.
        """
        keep = list(keep)
        if not keep:
            raise ValueError("must keep at least one input feature")
        if any(not 0 <= k < self.n_inputs for k in keep):
            raise ValueError(f"keep indices must be in [0, {self.n_inputs}), got {keep}")
        if len(set(keep)) != len(keep):
            raise ValueError(f"duplicate indices in keep: {keep}")
        # The child gets an *independent* generator spawned off the parent's
        # seed sequence: passing self._rng itself would share the stream, so
        # training the child would silently advance the parent's shuffle
        # order and break determinism of any further parent training.
        net = NeuralNetwork(
            len(keep),
            n_hidden=self.n_hidden,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            seed=spawn_generators(self._rng, 1)[0],
        )
        net.w1 = self.w1[:, keep].copy()
        net.b1 = self.b1.copy()
        net.w2 = self.w2.copy()
        net.b2 = self.b2.copy()
        net._vw1 = np.zeros_like(net.w1)
        if self._mean is not None:
            net._mean = self._mean[keep].copy()
            net._std = self._std[keep].copy()
        return net

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of weights and scaler."""
        return {
            "n_inputs": self.n_inputs,
            "n_hidden": self.n_hidden,
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2.tolist(),
            "mean": None if self._mean is None else self._mean.tolist(),
            "std": None if self._std is None else self._std.tolist(),
            "epochs_trained": self.epochs_trained,
            "rng_state": self._rng.bit_generator.state,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NeuralNetwork":
        """Inverse of :meth:`to_dict` (momentum state not preserved).

        The bit-generator state round-trips, so a save/load cycle does not
        change subsequent shuffle order — incremental training resumes
        exactly where the saved network would have continued.  (Payloads
        from before ``rng_state`` existed still load, with a fresh
        ``seed=0`` stream.)
        """
        net = cls(
            payload["n_inputs"],
            n_hidden=payload["n_hidden"],
            learning_rate=payload["learning_rate"],
            momentum=payload["momentum"],
        )
        rng_state = payload.get("rng_state")
        if rng_state is not None:
            net._rng.bit_generator.state = rng_state
        net.w1 = np.asarray(payload["w1"], dtype=np.float64)
        net.b1 = np.asarray(payload["b1"], dtype=np.float64)
        net.w2 = np.asarray(payload["w2"], dtype=np.float64)
        net.b2 = np.asarray(payload["b2"], dtype=np.float64)
        if payload["mean"] is not None:
            net._mean = np.asarray(payload["mean"], dtype=np.float64)
            net._std = np.asarray(payload["std"], dtype=np.float64)
        net.epochs_trained = int(payload.get("epochs_trained", 0))
        return net
