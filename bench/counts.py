"""Work counts computed from shapes, not measured.

``gemm_flops`` lists every matrix product that ``model.a2v_forward``,
``model.v2a_forward`` and ``model.backward`` evaluate for one image, in
the order the code evaluates them (``a @ b @ c`` is ``(a @ b) @ c``),
at 2·m·n·k flops each.  Elementwise work, reductions and the outer
product in ``backward`` are left out.  If the model code changes its
products, this table must change with it.
"""

from __future__ import annotations


def gemm_flops(K: int, R: int, d_v: int, d_a: int) -> dict[str, dict[str, int]]:
    """Flops per product, grouped by the function that evaluates it.

    K attributes, R regions, d_v region-feature width, d_a attribute
    vector width.  ``A`` is the (K, d_a) attribute matrix, ``V`` the
    (R, d_v) region matrix of one image.
    """
    return {
        "a2v_forward": {
            "A@W1": 2 * K * d_a * d_v,
            "(A@W1)@V.T": 2 * K * d_v * R,
            "beta@V": 2 * K * R * d_v,
            "A@W2": 2 * K * d_a * d_v,
        },
        "v2a_forward": {
            "V@W3": 2 * R * d_v * d_a,
            "(V@W3)@A.T": 2 * R * d_a * K,
            "tau@A": 2 * R * K * d_a,
            "V@W4": 2 * R * d_v * d_a,
            "V@W_att": 2 * R * d_v * d_a,
            "(V@W_att)@A.T": 2 * R * d_a * K,
            "psi_bar@att": 2 * R * K,
        },
        "backward": {
            "A@W2": 2 * K * d_a * d_v,
            "A.T@d_m": 2 * d_a * K * d_v,
            "d_F@V.T": 2 * K * d_v * R,
            "A.T@d_logits1": 2 * d_a * K * R,
            "(A.T@d_logits1)@V": 2 * d_a * R * d_v,
            "V@W_att": 2 * R * d_v * d_a,
            "(V@W_att)@A.T": 2 * R * d_a * K,
            "att@d_Psi": 2 * R * K,
            "V.T@d_att": 2 * d_v * R * K,
            "(V.T@d_att)@A": 2 * d_v * K * d_a,
            "V@W4": 2 * R * d_v * d_a,
            "V.T@d_n": 2 * d_v * R * d_a,
            "d_S@A.T": 2 * R * d_a * K,
            "V.T@d_logits2": 2 * d_v * R * K,
            "(V.T@d_logits2)@A": 2 * d_v * K * d_a,
        },
    }


# Products whose operands do not depend on the image; a batched forward
# can evaluate them once per batch instead of once per image.
IMAGE_INDEPENDENT = {"a2v_forward": ("A@W1", "A@W2")}
