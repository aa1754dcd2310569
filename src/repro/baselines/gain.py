"""GAIN: Generative Adversarial Imputation Nets [46].

Faithful numpy re-implementation of Yoon-Jordon-van der Schaar:

- the **generator** G receives the observed data (noise at missing
  cells) concatenated with the mask and outputs a full imputation;
- the **discriminator** D receives the imputed matrix and a *hint*
  vector and predicts, per cell, whether it was observed;
- D minimises cell-wise BCE against the true mask; G minimises the
  adversarial loss on missing cells plus ``alpha`` times the
  reconstruction error on observed cells.

The paper's point - that GAN imputers ignore spatial structure - holds
by construction: neither network sees neighbourhood information.
"""

from __future__ import annotations

import numpy as np

from ..engine import IterativeEngine, Solver, Telemetry
from ..exceptions import ValidationError
from ..masking.mask import ObservationMask
from ..validation import check_positive_int, resolve_rng
from .base import Imputer
from .neural import MLP, Adam, binary_cross_entropy

__all__ = ["GAINImputer"]


class _GAINSolver(Solver):
    """One adversarial training epoch (one minibatch for D and G).

    The networks and optimisers live on the solver; the engine state is
    unused (``None``).  Training runs for a fixed epoch budget — the
    ``converged`` rule always says "keep going" — while telemetry
    captures the per-epoch discriminator BCE.
    """

    name = "gain"

    def __init__(
        self,
        imputer: "GAINImputer",
        x_observed: np.ndarray,
        observed: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        n, m = x_observed.shape
        hidden = imputer.hidden_size or m
        self.imputer = imputer
        self.x_observed = x_observed
        self.observed = observed
        self.rng = rng
        self.n_rows = n
        self.n_cols = m
        self.generator = MLP(
            [2 * m, hidden, hidden, m],
            hidden_activation="relu",
            output_activation="sigmoid",
            random_state=rng,
        )
        self.discriminator = MLP(
            [2 * m, hidden, hidden, m],
            hidden_activation="relu",
            output_activation="sigmoid",
            random_state=rng,
        )
        self.g_opt = Adam(imputer.learning_rate)
        self.d_opt = Adam(imputer.learning_rate)
        self.batch = min(imputer.batch_size, n)
        self.d_loss = float("nan")

    def step(self, state):
        imputer = self.imputer
        rng = self.rng
        m = self.n_cols
        eps = 1e-7
        idx = rng.choice(self.n_rows, size=self.batch, replace=False)
        x_b = self.x_observed[idx]
        m_b = self.observed[idx]
        noise = rng.uniform(0.0, 0.01, size=x_b.shape)
        x_tilde = m_b * x_b + (1.0 - m_b) * noise
        hint_bits = (rng.random(x_b.shape) < imputer.hint_rate).astype(np.float64)
        hint = hint_bits * m_b + 0.5 * (1.0 - hint_bits)

        # ---------------------------- discriminator step
        g_out = self.generator.forward(np.hstack([x_tilde, m_b]))
        x_hat = m_b * x_b + (1.0 - m_b) * g_out
        d_prob = self.discriminator.forward(np.hstack([x_hat, hint]))
        d_prob_c = np.clip(d_prob, eps, 1.0 - eps)
        self.d_loss = binary_cross_entropy(d_prob, m_b)
        # BCE gradient wrt D output, averaged over cells.
        grad_d = (d_prob_c - m_b) / (d_prob_c * (1.0 - d_prob_c)) / d_prob.size
        d_grads, _ = self.discriminator.backward(grad_d)
        self.discriminator.apply_updates(
            self.d_opt.step(self.discriminator.parameters, d_grads)
        )

        # ---------------------------- generator step
        g_out = self.generator.forward(np.hstack([x_tilde, m_b]))
        x_hat = m_b * x_b + (1.0 - m_b) * g_out
        d_prob = self.discriminator.forward(np.hstack([x_hat, hint]))
        d_prob_c = np.clip(d_prob, eps, 1.0 - eps)
        # Adversarial: G wants D to believe missing cells are observed,
        # loss = -mean((1-m) log D); gradient flows through x_hat.
        n_missing = max(float((1.0 - m_b).sum()), 1.0)
        grad_adv_out = -(1.0 - m_b) / d_prob_c / n_missing
        _, grad_d_input = self.discriminator.backward(grad_adv_out)
        grad_xhat = grad_d_input[:, :m]
        # Reconstruction on observed cells.
        n_obs = max(float(m_b.sum()), 1.0)
        grad_rec = 2.0 * imputer.alpha * m_b * (g_out - x_b) / n_obs
        grad_g_out = grad_xhat * (1.0 - m_b) + grad_rec
        g_grads, _ = self.generator.backward(grad_g_out)
        self.generator.apply_updates(self.g_opt.step(self.generator.parameters, g_grads))
        return state

    def objective(self, state) -> float:
        return self.d_loss

    def converged(self, state, monitor) -> bool:
        return False

    def impute(self) -> np.ndarray:
        """Final imputation pass with the trained generator."""
        observed = self.observed
        noise = self.rng.uniform(0.0, 0.01, size=self.x_observed.shape)
        x_tilde = observed * self.x_observed + (1.0 - observed) * noise
        g_out = self.generator.forward(np.hstack([x_tilde, observed]))
        return observed * self.x_observed + (1.0 - observed) * g_out


class GAINImputer(Imputer):
    """GAN-based imputer (GAIN).

    Parameters
    ----------
    n_epochs:
        Training iterations (each draws one minibatch).
    batch_size:
        Minibatch size (capped at the row count).
    hint_rate:
        Probability a cell's true mask bit is revealed to D.
    alpha:
        Weight of the generator's reconstruction loss.
    hidden_size:
        Hidden width of both networks; ``None`` uses the column count.
    learning_rate:
        Adam step size for both networks.
    random_state:
        Seed or Generator.
    """

    name = "gain"

    def __init__(
        self,
        *,
        n_epochs: int = 600,
        batch_size: int = 64,
        hint_rate: float = 0.9,
        alpha: float = 100.0,
        hidden_size: int | None = None,
        learning_rate: float = 1e-3,
        random_state: object = None,
    ) -> None:
        self.n_epochs = check_positive_int(n_epochs, name="n_epochs")
        self.batch_size = check_positive_int(batch_size, name="batch_size")
        if not 0.0 < hint_rate <= 1.0:
            raise ValidationError("hint_rate must be in (0, 1]")
        self.hint_rate = float(hint_rate)
        if alpha < 0:
            raise ValidationError("alpha must be non-negative")
        self.alpha = float(alpha)
        self.hidden_size = hidden_size
        self.learning_rate = float(learning_rate)
        self.random_state = random_state

    def _impute_missing(
        self, x_observed: np.ndarray, mask: ObservationMask
    ) -> np.ndarray:
        rng = resolve_rng(self.random_state)
        observed = mask.observed.astype(np.float64)
        solver = _GAINSolver(self, x_observed, observed, rng)
        telemetry = Telemetry(method=self.name)
        engine = IterativeEngine(
            max_iter=self.n_epochs, tol=0.0, callbacks=(telemetry,)
        )
        engine.run(solver, None)
        self.fit_report_ = telemetry.report()
        return solver.impute()
