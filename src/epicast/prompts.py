"""Prompted spatio-temporal graph: learnable cross-slice edges and time gates.

The token window's w per-day mobility graphs form one block graph over w*N
nodes.  Two learnable scalars add direction-aware edges between the same
region at consecutive time slices (forward: past -> present, backward:
present -> past), shared across all regions and slice pairs.  The graph is
never built: ``build_prompted_graph`` returns its symmetric normalization, the
one array message passing needs besides the slices and the two scalars.  A
length-w gate vector weights the per-slice embeddings when they are blended
into the final token.  The dense block graph is built only in the tests
(``tests/composed_reference.py``), as the oracle the propagation and the
closed-form degree are held to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, _sigmoid

FORWARD_INIT = 1.0
BACKWARD_INIT = 0.5
GATE_INIT = 1.0


@dataclass
class PromptParams:
    """Learnable forward/backward edge weights and per-slice gating weights."""

    w_forward: Parameter  # scalar
    w_backward: Parameter  # scalar
    gamma: Parameter  # (w,)

    @property
    def window(self) -> int:
        return self.gamma.data.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.w_forward, self.w_backward, self.gamma]

    def summary(self) -> dict:
        """Final weights for the explainability report: raw gates, and squashed
        by the logistic function the gated blend multiplies by."""
        gates = _sigmoid(self.gamma.data)
        return {
            "forward_edge": float(self.w_forward.data),
            "backward_edge": float(self.w_backward.data),
            "gamma": [float(g) for g in self.gamma.data],
            "gate": [float(g) for g in gates],
        }


def init_prompts(w: int) -> PromptParams:
    """Fresh prompt parameters: forward 1.0, backward 0.5, gates all 1.0."""
    if w < 1:
        raise ValueError(f"window length must be >= 1, got {w}")
    return PromptParams(
        w_forward=Parameter(FORWARD_INIT, name="prompts.forward"),
        w_backward=Parameter(BACKWARD_INIT, name="prompts.backward"),
        gamma=Parameter(np.full(w, GATE_INIT), name="prompts.gamma"),
    )


class PromptGraphError(RuntimeError):
    """Learned prompt edge weights left a block-graph node without a positive degree."""


def build_prompted_graph(A_window: np.ndarray, prompts: PromptParams) -> np.ndarray:
    """The normalization of a token window's prompted block graph: ``deg^-1/2``
    of every (slice, region) node, as a (w, N, 1) array.

    The (w*N)^2 block adjacency has only three non-zero block diagonals: the
    per-day adjacencies ``A_window[k]`` on the diagonal, ``w_forward`` times
    the identity from slice k-1 to slice k, and ``w_backward`` times the
    identity from slice k to slice k-1.  Message passing
    (``branches.epi_tokenize``) works on the slices and the two scalars
    directly; the dense matrix is never built.

    With a self-loop on every node, the in-degree follows in closed form
    (Kipf & Welling symmetric normalization, applied blockwise):
    ``deg_k = 1 + colsum(A_k) + w_forward [k > 0] + w_backward [k < w-1]``.
    It is >= 1 while the edge weights are nonnegative.  Negative learned edge
    weights can break that; the degree is then rejected with PromptGraphError,
    never clipped, so a valid state's numbers are those of the plain
    normalization.
    """
    A_window = np.asarray(A_window, dtype=np.float64)
    if A_window.ndim != 3 or A_window.shape[1] != A_window.shape[2]:
        raise ValueError(f"expected (w, N, N) adjacency stack, got {A_window.shape}")
    w = A_window.shape[0]
    if w != prompts.window:
        raise ValueError(f"adjacency stack has {w} slices but prompts cover {prompts.window}")
    deg = 1.0 + A_window.sum(axis=1)  # (w, N): in-strength of every node
    deg[1:] += prompts.w_forward.data
    deg[:-1] += prompts.w_backward.data
    if np.any(deg <= 0):
        raise PromptGraphError(
            f"the prompt edge weights (prompts.forward, prompts.backward) leave a block-graph "
            f"node with degree {deg.min():.6g}; degrees must stay positive"
        )
    return (1.0 / np.sqrt(deg))[:, :, None]
