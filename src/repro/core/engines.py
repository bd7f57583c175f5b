"""Learning-engine abstraction for the data-space classifier.

The paper deliberately keeps the learning engine pluggable (Sec. 3: MLPs,
SVMs, Bayesian networks, HMMs "usable for our purpose"; Sec. 8: their
trade-offs "remain to be evaluated").  :class:`LearningEngine` is the
protocol every engine satisfies inside
:class:`~repro.core.dataspace.DataSpaceClassifier`:

- ``train_full(X, y)`` — (re)train from scratch on the whole set;
- ``train_more(X, y, epochs)`` — idle-loop increment; engines without an
  incremental mode (SVM, naive Bayes) retrain from scratch, which is what
  the paper's idle loop degenerates to for batch learners;
- ``predict(X)`` — certainty in [0, 1].

:func:`make_engine` builds one by name (``"mlp"``, ``"svm"``, ``"bayes"``)
so experiment configs stay declarative.
"""

from __future__ import annotations

import numpy as np

from repro.core.bayes import GaussianNaiveBayes
from repro.core.mlp import NeuralNetwork
from repro.core.svm import SupportVectorMachine


class MLPEngine:
    """Adapter exposing :class:`NeuralNetwork` through the engine protocol."""

    name = "mlp"
    incremental = True
    # The perceptron is the one engine whose inference is two affine layers
    # plus elementwise activations, which is what the fused float32
    # kernel of :mod:`repro.core.fastclassify` requires.
    supports_fast = True

    def __init__(self, n_inputs: int, hidden: int = 16, learning_rate: float = 0.3,
                 momentum: float = 0.9, seed=0) -> None:
        self.net = NeuralNetwork(
            n_inputs, n_hidden=hidden, learning_rate=learning_rate,
            momentum=momentum, seed=seed,
        )

    def train_full(self, X, y, epochs: int = 300, batch_size: int = 64,
                   tol: float = 1e-4) -> float:
        """Run a full training pass; returns the final epoch loss."""
        losses = self.net.train(X, y, epochs=epochs, batch_size=batch_size, tol=tol)
        return losses[-1]

    def train_more(self, X, y, epochs: int = 10, batch_size: int = 64) -> float:
        """Idle-loop increment: a few more epochs on the current weights."""
        return self.net.train_increment(X, y, epochs=epochs, batch_size=batch_size)

    def predict(self, X) -> np.ndarray:
        """Certainty in [0, 1] per input row."""
        return self.net.predict(X)

    @property
    def n_inputs(self) -> int:
        """Input feature count the engine expects."""
        return self.net.n_inputs

    def with_input_subset(self, keep) -> "MLPEngine":
        """Engine on a feature subset with transferred weights (Sec. 6)."""
        clone = MLPEngine.__new__(MLPEngine)
        clone.net = self.net.with_input_subset(keep)
        return clone


class SVMEngine:
    """Adapter for :class:`SupportVectorMachine` (batch-only)."""

    name = "svm"
    incremental = False
    supports_fast = False  # kernel expansion has no fused two-GEMM form

    def __init__(self, n_inputs: int, C: float = 5.0, kernel: str = "rbf",
                 gamma: float | None = None, seed=0) -> None:
        self._n_inputs = int(n_inputs)
        self._kwargs = dict(C=C, kernel=kernel, gamma=gamma)
        self._seed = seed
        self.model = SupportVectorMachine(seed=seed, **self._kwargs)

    def train_full(self, X, y, **_ignored) -> float:
        """Refit the SVM from scratch; returns the training MSE."""
        self.model = SupportVectorMachine(seed=self._seed, **self._kwargs)
        self.model.fit(X, y)
        pred = self.model.predict(X)
        return float(np.mean((pred - np.asarray(y, dtype=np.float64).reshape(-1)) ** 2))

    def train_more(self, X, y, **_ignored) -> float:
        """No warm start in SMO: the idle loop retrains from scratch."""
        return self.train_full(X, y)

    def predict(self, X) -> np.ndarray:
        """Platt-scaled certainty in [0, 1] per input row."""
        return self.model.predict(X)

    @property
    def n_inputs(self) -> int:
        """Input feature count the engine expects."""
        return self._n_inputs

    def with_input_subset(self, keep) -> "SVMEngine":
        """Fresh engine on a feature subset (kernel machines keep no
        transferable per-feature weights; retrain after subsetting)."""
        clone = SVMEngine(len(list(keep)), seed=self._seed, **self._kwargs)
        return clone


class BayesEngine:
    """Adapter for :class:`GaussianNaiveBayes` (batch-only)."""

    name = "bayes"
    incremental = False
    supports_fast = False  # per-class Gaussians, not an affine stack

    def __init__(self, n_inputs: int, var_floor: float = 1e-3,
                 use_priors: bool = False, **_ignored) -> None:
        self._n_inputs = int(n_inputs)
        self._kwargs = dict(var_floor=var_floor, use_priors=use_priors)
        self.model = GaussianNaiveBayes(**self._kwargs)

    def train_full(self, X, y, **_ignored) -> float:
        """Refit the Gaussians (O(n·d), effectively free); returns MSE."""
        self.model = GaussianNaiveBayes(**self._kwargs)
        self.model.fit(X, y)
        pred = self.model.predict(X)
        return float(np.mean((pred - np.asarray(y, dtype=np.float64).reshape(-1)) ** 2))

    def train_more(self, X, y, **_ignored) -> float:
        """Refit from scratch (training is cheaper than one MLP epoch)."""
        return self.train_full(X, y)

    def predict(self, X) -> np.ndarray:
        """Posterior certainty in [0, 1] per input row."""
        return self.model.predict(X)

    @property
    def n_inputs(self) -> int:
        """Input feature count the engine expects."""
        return self._n_inputs

    def with_input_subset(self, keep) -> "BayesEngine":
        """Fresh engine on a feature subset (per-class Gaussians refit)."""
        return BayesEngine(len(list(keep)), **self._kwargs)


_ENGINES = {"mlp": MLPEngine, "svm": SVMEngine, "bayes": BayesEngine}


def make_engine(name: str, n_inputs: int, seed=0, **kwargs):
    """Build a learning engine by name (``"mlp"``, ``"svm"``, ``"bayes"``)."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}; options: {sorted(_ENGINES)}") from None
    if name == "bayes":
        return cls(n_inputs, **kwargs)
    return cls(n_inputs, seed=seed, **kwargs)
