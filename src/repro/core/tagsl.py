"""Time-aware Graph Structure Learning (TagSL, §III-A, Eq. 6–9).

The adjacency at time *t* blends three signals:

* ``A_v = ⟨E_v, E_v^T⟩`` — static self-learning correlations (Eq. 6);
* ``η_t = ⟨E_τ^t, E_τ^{t-1}⟩`` — the scalar *trend factor* measuring how
  the time representation evolves between consecutive steps (Eq. 7);
* ``A_p = tanh(⟨X, X^T⟩)`` — the *periodic discriminant* that tells
  periods apart from the current node state (Eq. 8);

combined as ``A^t = (1 + α·σ(A_p)) ⊙ (A_v + η_t)`` (Eq. 9).

Ablation flags reproduce the Table VII variants: ``use_trend=False`` drops
Eq. 7, ``use_pdf=False`` drops the periodic factor, and
``static_only=True`` degenerates to AGCRN's self-learning graph
(the *w/o tagsl* row).

Any optimization of this path must keep
``repro.verify.crosscheck.check_tagsl`` green — the forward is diffed
elementwise against a naive loop-based rendition of Eq. 6–9.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..graph.adjacency import normalize
from ..nn import Module, Parameter, init
from .time_encoding import TimeEncoder


class TagSL(Module):
    """Generate a batch of time-aware adjacency matrices.

    Parameters
    ----------
    num_nodes:
        N, the number of time series.
    node_dim:
        d_ν, node-embedding dimensionality.
    time_encoder:
        Shared Φ(·); also used by the GCGRU's node-adaptive weights.
    alpha:
        Saturation factor of the periodic discriminant (paper: 0.3).
    use_trend / use_pdf / static_only:
        Ablation switches (see module docstring).
    trend_mode:
        ``"scalar"`` — the paper's ⟨E_τ^t, E_τ^{t-1}⟩ scalar; ``"vector"``
        — an extension where the trend contributes a rank-1 per-edge term
        ⟨E_τ^t ⊙ E_v, E_τ^{t-1} ⊙ E_v⟩-style outer product (ablated in
        the ``ablation_extras`` experiment).
    top_k:
        Optional per-row sparsification: keep only each node's ``top_k``
        strongest correlations before normalization (Graph WaveNet-style
        pruning; an extension the self-learning-graph literature uses to
        control over-smoothing).  ``None`` keeps the dense graph (paper).
    """

    def __init__(
        self,
        num_nodes: int,
        node_dim: int,
        time_encoder: TimeEncoder,
        alpha: float = 0.3,
        use_trend: bool = True,
        use_pdf: bool = True,
        static_only: bool = False,
        trend_mode: str = "scalar",
        top_k: int | None = None,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        if trend_mode not in ("scalar", "vector"):
            raise ValueError(f"unknown trend_mode {trend_mode!r}")
        if top_k is not None and not 1 <= top_k <= num_nodes:
            raise ValueError(f"top_k must be in [1, {num_nodes}], got {top_k}")
        self.top_k = top_k
        self.num_nodes = num_nodes
        self.node_dim = node_dim
        self.alpha = alpha
        self.use_trend = use_trend and not static_only
        self.use_pdf = use_pdf and not static_only
        self.static_only = static_only
        self.trend_mode = trend_mode
        self.time_encoder = time_encoder
        self.node_embedding = Parameter(init.normal((num_nodes, node_dim), rng, std=1.0 / np.sqrt(node_dim)))
        if trend_mode == "vector":
            # Projects the time embedding onto per-node coefficients.
            self.trend_proj = Parameter(
                init.xavier_uniform((time_encoder.dim, num_nodes), rng)
            )

    # ------------------------------------------------------------------ #

    def static_adjacency(self) -> Tensor:
        """A_v = ⟨E_v, E_v^T⟩ (Eq. 6), shape (N, N)."""
        return self.node_embedding @ self.node_embedding.T

    def trend_factor(self, time_indices: np.ndarray) -> Tensor:
        """η_t = ⟨E_τ^t, E_τ^{t-1}⟩ (Eq. 7), shape (B, 1, 1) or (B, N, N)."""
        t = np.asarray(time_indices, dtype=np.int64)
        current = self.time_encoder(t)
        previous = self.time_encoder(t - 1)
        if self.trend_mode == "scalar":
            eta = (current * previous).sum(axis=-1)  # (B,)
            return eta.reshape(-1, 1, 1)
        # vector mode: rank-1 per-edge modulation from the two embeddings
        cur_nodes = current @ self.trend_proj  # (B, N)
        prev_nodes = previous @ self.trend_proj  # (B, N)
        return cur_nodes.unsqueeze(-1) * prev_nodes.unsqueeze(-2)  # (B, N, N)

    def periodic_discriminant(self, node_state: Tensor) -> Tensor:
        """A_p = tanh(⟨X, X^T⟩) (Eq. 8), shape (B, N, N)."""
        return (node_state @ node_state.swapaxes(-1, -2)).tanh()

    def forward(self, node_state: Tensor | None, time_indices: np.ndarray) -> Tensor:
        """Compute A^t (Eq. 9) for a batch.

        Parameters
        ----------
        node_state:
            (B, N, C) current node features / hidden state; only needed
            when the periodic discriminant is enabled.
        time_indices:
            (B,) absolute time-step indices of the current step.

        Returns
        -------
        Tensor
            (B, N, N) *unnormalized* adjacency batch; pass through
            :func:`normalized` (or ``graph.adjacency.normalize``) before
            convolution (Eq. 11).
        """
        time_indices = np.asarray(time_indices)
        batch = int(time_indices.shape[0]) if time_indices.ndim else 1
        base = self.static_adjacency()  # (N, N)
        base = base.unsqueeze(0).broadcast_to((batch, self.num_nodes, self.num_nodes))
        if self.static_only:
            return base
        adjacency = base
        if self.use_trend:
            adjacency = adjacency + self.trend_factor(time_indices)
        if self.use_pdf:
            if node_state is None:
                raise ValueError("periodic discriminant requires the current node state")
            gate = 1.0 + self.alpha * self.periodic_discriminant(node_state).sigmoid()
            adjacency = gate * adjacency
        if self.top_k is not None and self.top_k < self.num_nodes:
            adjacency = self._sparsify(adjacency)
        return adjacency

    def _sparsify(self, adjacency: Tensor) -> Tensor:
        """Keep each row's top-k entries; mask the rest to -inf-like values
        so they vanish under softmax normalization (and to 0 under
        relu-based norms).  The mask is data-dependent but constant w.r.t.
        gradients, as in Graph WaveNet's pruning."""
        k = self.top_k
        threshold = np.partition(adjacency.data, -k, axis=-1)[..., -k : -k + 1]
        keep = adjacency.data >= threshold
        penalty = Tensor(np.where(keep, 0.0, -1e9))
        return adjacency + penalty

    def normalized(self, node_state: Tensor | None, time_indices: np.ndarray, mode: str = "softmax") -> Tensor:
        """Â^t = Norm(A^t) (Eq. 11)."""
        return normalize(self.forward(node_state, time_indices), mode=mode)
