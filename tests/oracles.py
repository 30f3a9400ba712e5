"""Independent scalar-loop oracles.

Everything here is written with explicit Python loops and math-module
scalar arithmetic so the vectorized library implementations are checked
against a genuinely separate computation path.  The two exceptions,
``distill_loss_two_call`` and ``report_two_splits``, are earlier
vectorized forms of library functions, kept to pin the bits of their
one-pass successors.
"""

from __future__ import annotations

import math

import numpy as np


_U64 = (1 << 64) - 1


class ScalarRng:
    """The xorshift64* stream of ``ndmath.Rng``, one 64-bit word per call.

    Seeding, the zero-state guard, the step and the output scramble are
    written out here apart from the library, whose only draw is the bulk
    ``Rng.uniform``, so that draw is checked against a path that shares
    no code with it.  ``uniform`` makes this a stand-in for ``Rng`` in
    library code that only calls that.
    """

    def __init__(self, seed):
        x = (int(seed) + 0x9E3779B97F4A7C15) & _U64  # splitmix64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
        self.state = (x ^ (x >> 31)) or 0x9E3779B97F4A7C15  # 0 is xorshift's fixed point

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _U64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _U64

    def next_f64(self):
        """Uniform double in [0, 1): the top 53 bits of a word."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, n):
        """Uniform integer in [0, n)."""
        return int(self.next_f64() * n)

    def uniform(self, lo, hi, rows, cols):
        return uniform(self, lo, hi, rows, cols)


def uniform(rng, lo, hi, rows, cols):
    """rows x cols uniforms drawn one ``rng.next_f64()`` call at a time, row-major."""
    span = hi - lo
    out = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = lo + span * rng.next_f64()
    return out


def normal(rng, n):
    """n Box-Muller normals, one (u1, u2) pair of ``next_f64`` calls at a time.

    The spare deviate of an odd n is dropped, so consumption depends only on n.
    """
    out = np.empty(n, dtype=np.float64)
    for i in range(0, n, 2):
        u1 = 1.0 - rng.next_f64()  # (0, 1]: keeps log(u1) finite
        u2 = rng.next_f64()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out[i] = radius * math.cos(theta)
        if i + 1 < n:
            out[i + 1] = radius * math.sin(theta)
    return out


def shuffle(rng, items):
    """In-place Fisher-Yates shuffle, one ``next_below`` call per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


def choice_weighted(rng, weights):
    """Index drawn with probability proportional to non-negative weights."""
    total = float(np.sum(weights))
    if total <= 0.0 or not math.isfinite(total):
        raise ValueError("choice_weighted requires a positive finite weight sum")
    target = rng.next_f64() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += float(w)
        if target < acc:
            return i
    return len(weights) - 1  # target landed on accumulated rounding slack


def synthetic(spec):
    """Scalar-loop ``generate_synthetic``: (class_semantics, features, picks, splits, rng).

    Regions are drawn one at a time, a ``choice_weighted`` pick and then a
    ``normal(d_v)`` draw each; ``rng`` is left where the whole draw ends.
    Float tensors are float64, before the generator's rounding through f32.
    The prototypes are the same ``@`` product the generator forms.
    ``splits`` holds the int32 train, test-seen and test-unseen indices.
    """
    rng = ScalarRng(spec.seed)
    num_classes = spec.num_seen + spec.num_unseen
    attributes = uniform(rng, -1.0, 1.0, spec.num_attributes, spec.attr_dim)
    semantics = uniform(rng, 0.0, 1.0, num_classes, spec.num_attributes)
    # A seen class keeps its active_attributes strongest draws; 0 means a quarter
    # of the attributes, and at least one.
    active = spec.active_attributes
    if active == 0:
        active = max(1, spec.num_attributes // 4)
    for c in range(spec.num_seen):
        cutoff = sorted(semantics[c])[-active]
        for k in range(spec.num_attributes):
            if semantics[c, k] < cutoff:
                semantics[c, k] = 0.0
    for j in range(spec.num_seen, num_classes):
        first = second = rng.next_below(spec.num_seen)
        if spec.num_seen > 1:
            second = rng.next_below(spec.num_seen - 1)
            second += second >= first
        weight = 0.3 + 0.4 * rng.next_f64()
        for k in range(spec.num_attributes):
            semantics[j, k] = weight * semantics[first, k] + (1.0 - weight) * semantics[second, k]
    prototypes = attributes @ uniform(rng, -1.0, 1.0, spec.visual_dim, spec.attr_dim).T

    n = num_classes * spec.samples_per_class
    features = np.empty((n, spec.num_regions, spec.visual_dim))
    picks = np.empty((n, spec.num_regions), dtype=np.int32)
    for i in range(n):
        for r in range(spec.num_regions):
            k = choice_weighted(rng, semantics[i // spec.samples_per_class])
            picks[i, r] = k
            noise = normal(rng, spec.visual_dim)
            for q in range(spec.visual_dim):
                features[i, r, q] = prototypes[k, q] + spec.noise_std * noise[q]
    spc = spec.samples_per_class
    holdout = spc // 5 if spc >= 5 else (1 if spc >= 2 else 0)
    train, test_seen, test_unseen = [], [], []
    for c in range(num_classes):
        block = range(c * spc, (c + 1) * spc)
        if c < spec.num_seen:
            train.extend(block[: spc - holdout])
            test_seen.extend(block[spc - holdout:])
        else:
            test_unseen.extend(block)
    splits = tuple(np.asarray(s, dtype=np.int32) for s in (train, test_seen, test_unseen))
    return semantics, features, picks, splits, rng


def matmul(a, b):
    n, k = len(a), len(a[0])
    k2, m = len(b), len(b[0])
    assert k == k2
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i][t] * b[t][j]
            out[i][j] = acc
    return np.asarray(out)


def softmax_vec(values):
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def a2v_forward(regions, attrs, w1, w2):
    """Scalar-loop attribute->visual pass: (beta, F, psi)."""
    num_regions, d_v = regions.shape
    num_attrs, d_a = attrs.shape
    logits = [[0.0] * num_regions for _ in range(num_attrs)]
    for k in range(num_attrs):
        for r in range(num_regions):
            acc = 0.0
            for p in range(d_a):
                for q in range(d_v):
                    acc += attrs[k][p] * w1[p][q] * regions[r][q]
            logits[k][r] = acc
    beta = [[0.0] * num_regions for _ in range(num_attrs)]
    for r in range(num_regions):
        col = softmax_vec([logits[k][r] for k in range(num_attrs)])
        for k in range(num_attrs):
            beta[k][r] = col[k]
    feats = [[0.0] * d_v for _ in range(num_attrs)]
    for k in range(num_attrs):
        for q in range(d_v):
            acc = 0.0
            for r in range(num_regions):
                acc += beta[k][r] * regions[r][q]
            feats[k][q] = acc
    psi = [0.0] * num_attrs
    for k in range(num_attrs):
        acc = 0.0
        for p in range(d_a):
            for q in range(d_v):
                acc += attrs[k][p] * w2[p][q] * feats[k][q]
        psi[k] = acc
    return np.asarray(beta), np.asarray(feats), np.asarray(psi)


def v2a_forward(regions, attrs, w3, w4, w_att):
    """Scalar-loop visual->attribute pass: (tau, S, M, psi_bar, Psi).

    S pools the attribute vectors under tau, one row per region, and
    psi_bar matches each region with its row through W4; M holds the
    region-attribute matches v_r^T W4 a_k themselves.
    """
    num_regions, d_v = regions.shape
    num_attrs, d_a = attrs.shape
    logits = [[0.0] * num_attrs for _ in range(num_regions)]
    for r in range(num_regions):
        for k in range(num_attrs):
            acc = 0.0
            for q in range(d_v):
                for p in range(d_a):
                    acc += regions[r][q] * w3[q][p] * attrs[k][p]
            logits[r][k] = acc
    tau = [[0.0] * num_attrs for _ in range(num_regions)]
    for k in range(num_attrs):
        col = softmax_vec([logits[r][k] for r in range(num_regions)])
        for r in range(num_regions):
            tau[r][k] = col[r]
    sem = [[0.0] * d_a for _ in range(num_regions)]
    for r in range(num_regions):
        for p in range(d_a):
            acc = 0.0
            for k in range(num_attrs):
                acc += tau[r][k] * attrs[k][p]
            sem[r][p] = acc
    psi_bar = [0.0] * num_regions
    for r in range(num_regions):
        acc = 0.0
        for q in range(d_v):
            for p in range(d_a):
                acc += regions[r][q] * w4[q][p] * sem[r][p]
        psi_bar[r] = acc
    matches = [[0.0] * num_attrs for _ in range(num_regions)]
    for r in range(num_regions):
        for k in range(num_attrs):
            acc = 0.0
            for q in range(d_v):
                for p in range(d_a):
                    acc += regions[r][q] * w4[q][p] * attrs[k][p]
            matches[r][k] = acc
    big_psi = [0.0] * num_attrs
    for k in range(num_attrs):
        acc = 0.0
        for r in range(num_regions):
            att_rk = 0.0
            for q in range(d_v):
                for p in range(d_a):
                    att_rk += regions[r][q] * w_att[q][p] * attrs[k][p]
            acc += psi_bar[r] * att_rk
        big_psi[k] = acc
    return (np.asarray(tau), np.asarray(sem), np.asarray(matches), np.asarray(psi_bar),
            np.asarray(big_psi))


def class_scores(embedding, class_semantics):
    num_classes, k = class_semantics.shape
    out = [0.0] * num_classes
    for c in range(num_classes):
        acc = 0.0
        for j in range(k):
            acc += embedding[j] * class_semantics[c][j]
        out[c] = acc
    return np.asarray(out)


def acec_loss(scores, labels, seen, unseen, lambda_cal):
    """Scalar-loop calibrated cross-entropy; returns the loss only."""
    batch, num_classes = scores.shape
    seen = sorted(int(c) for c in seen)
    unseen = sorted(int(c) for c in unseen)
    total = 0.0
    for i in range(batch):
        seen_scores = [scores[i][c] for c in seen]
        probs = softmax_vec(seen_scores)
        total += -math.log(probs[seen.index(int(labels[i]))])
        if lambda_cal > 0 and unseen:
            shifted = [
                scores[i][c] + (1.0 if c in unseen else -1.0)
                for c in range(num_classes)
            ]
            q = softmax_vec(shifted)
            cal = 0.0
            for c in unseen:
                cal += -math.log(q[c])
            total += lambda_cal * cal
    return total / batch


def distill_loss(scores1, scores2, eps, use_jsd=True, use_l2=True):
    """Scalar-loop symmetric-KL + squared-L2 distance; returns the loss only."""
    batch, width = scores1.shape
    total = 0.0
    for i in range(batch):
        def clamped(row):
            probs = softmax_vec(list(row))
            probs = [min(max(v, eps), 1.0) for v in probs]
            norm = sum(probs)
            return [v / norm for v in probs]

        p = clamped(scores1[i])
        q = clamped(scores2[i])
        row_loss = 0.0
        if use_jsd:
            kl_pq = sum(p[c] * (math.log(p[c]) - math.log(q[c])) for c in range(width))
            kl_qp = sum(q[c] * (math.log(q[c]) - math.log(p[c])) for c in range(width))
            row_loss += 0.5 * (kl_pq + kl_qp)
        if use_l2:
            row_loss += sum((p[c] - q[c]) ** 2 for c in range(width))
        total += row_loss
    return total / batch


def distill_loss_two_call(p_seen1, p_seen2, terms):
    """The distillation loss with one clamp and jacobian chain per posterior.

    The two (classes, *models, batch) posteriors are passed apart and
    each is clamped, renormalized and differentiated on its own, with
    ``terms`` a ``losses.LossTerms``.  Returns each model's loss and the
    two score gradients.
    """
    batch = p_seen1.shape[-1]
    epsilon_kl = terms.cfg.epsilon_kl
    half_jsd, l2, two_l2 = terms.half_jsd[..., 0], terms.l2[..., 0], terms.two_l2[..., 0]

    def clamped(raw):
        out = np.minimum(np.maximum(raw, epsilon_kl), 1.0)
        total = out.sum(axis=0, keepdims=True)
        return out / total, total

    p, total1 = clamped(p_seen1)
    q, total2 = clamped(p_seen2)
    log_ratio = np.log(p) - np.log(q)
    diff = p - q
    per_row = (half_jsd * ((p * log_ratio).sum(axis=0) + (q * -log_ratio).sum(axis=0))
               + l2 * (diff * diff).sum(axis=0))
    d_p = half_jsd * (log_ratio + 1.0 - q / p) + two_l2 * diff
    d_q = half_jsd * (-log_ratio + 1.0 - p / q) - two_l2 * diff

    def to_scores(d_prob, prob, raw, total):
        d_clamped = (d_prob - (d_prob * prob).sum(axis=0, keepdims=True)) / total
        d_raw = d_clamped * ((raw >= epsilon_kl) & (raw <= 1.0))
        return raw * (d_raw - (d_raw * raw).sum(axis=0, keepdims=True)) / batch

    return (per_row.sum(axis=-1) / batch, to_scores(d_p, p, p_seen1, total1),
            to_scores(d_q, q, p_seen2, total2))


def predict(psi, big_psi, class_semantics, seen, unseen, alpha1, alpha2, mode):
    """Exhaustive-argmax calibrated prediction of one image's (K,) embeddings."""
    num_classes, k = class_semantics.shape
    if len(psi) != k or len(big_psi) != k:
        raise ValueError(f"embeddings of length {len(psi)} and {len(big_psi)}, "
                         f"class semantics of width {k}")
    unseen = set(int(c) for c in unseen)
    fused = [alpha1 * psi[k] + alpha2 * big_psi[k] for k in range(len(psi))]
    candidates = sorted(unseen) if mode == "czsl" else list(range(num_classes))
    best_class, best_score = None, None
    for c in candidates:
        score = sum(fused[k] * class_semantics[c][k] for k in range(len(fused)))
        score += 1.0 if c in unseen else -1.0
        if best_score is None or score > best_score:
            best_class, best_score = c, score
    return best_class


def per_class_accuracy(labels, predictions, classes):
    """Macro top-1 from one boolean mask per class, classes in ascending order."""
    labels, predictions = np.asarray(labels), np.asarray(predictions)
    table = {}
    for c in sorted(int(v) for v in classes):
        mask = labels == c
        if mask.any():
            table[c] = float(np.mean(predictions[mask] == c))
    if not table:
        raise ValueError("no evaluated class has any samples")
    return float(np.mean(list(table.values()))), table


def report_two_splits(ds, unseen_embedding, seen_embedding):
    """The metric suite with each test split's fused (K, n) embedding scored apart.

    Columns follow ``ds.test_unseen_idx`` and ``ds.test_seen_idx``.  CZSL
    and GZSL rank the unseen split's one score matrix; GZSL ranks the
    seen split's.  Returns a ``zsl_eval.EvalReport``.
    """
    from msdn.zsl_eval import (EvalReport, calibrated_scores, harmonic_mean,
                               per_class_accuracy, predict)

    split = ds.split
    unseen_scores, seen_scores = (calibrated_scores(e, ds.class_semantics, split)
                                  for e in (unseen_embedding, seen_embedding))
    unseen_labels = ds.labels[ds.test_unseen_idx]
    acc, _ = per_class_accuracy(unseen_labels, predict(unseen_scores, split, "czsl"),
                                ds.unseen_classes)
    u, unseen_table = per_class_accuracy(unseen_labels, predict(unseen_scores, split, "gzsl"),
                                         ds.unseen_classes)
    s, seen_table = per_class_accuracy(ds.labels[ds.test_seen_idx],
                                       predict(seen_scores, split, "gzsl"), ds.seen_classes)
    per_class = [(c, "seen", a) for c, a in seen_table.items()]
    per_class += [(c, "unseen", a) for c, a in unseen_table.items()]
    return EvalReport(acc=acc, U=u, S=s, H=harmonic_mean(s, u), per_class=per_class)


def harmonic_mean(s, u):
    if s + u == 0:
        return 0.0
    return 2.0 * s * u / (s + u)


def rmsprop_step(params, grads, square_avg, momentum_buf, cfg):
    """The RMSProp update on fresh arrays, one element at a time.

    Every operation rounds to the parameters' dtype, as numpy's would.
    Returns new (params, square_avg, momentum_buf) dicts; the inputs are
    left untouched.
    """
    new_params, new_sq, new_buf = {}, {}, {}
    for name, param in params.items():
        f = param.dtype.type
        wd, rho, one_minus_rho, mu, eps, lr = (f(c) for c in (
            cfg.weight_decay, cfg.rms_decay, 1.0 - cfg.rms_decay, cfg.momentum,
            cfg.epsilon_opt, cfg.learning_rate))
        p, sq, buf = param.copy(), square_avg[name].copy(), momentum_buf[name].copy()
        for idx in np.ndindex(param.shape):
            g = f(grads[name][idx]) + wd * f(param[idx])
            s = rho * f(sq[idx]) + one_minus_rho * g * g
            b = mu * f(buf[idx]) + g / (np.sqrt(s) + eps)
            p[idx] = f(param[idx]) - lr * b
            sq[idx] = s
            buf[idx] = b
        new_params[name], new_sq[name], new_buf[name] = p, sq, buf
    return new_params, new_sq, new_buf
