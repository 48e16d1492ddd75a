"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately naive (buffers all data, python loops,
direct formula transcriptions) and shares no code with the package paths
it checks.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

GROUP_ORDER = {"0-4": 0, "5-12": 1, "13-22": 2}

NUMERIC = {
    "index", "elapsed_time", "level", "page", "room_coor_x", "room_coor_y",
    "screen_coor_x", "screen_coor_y", "hover_duration", "fullscreen", "hq", "music",
}


def _signed(v):
    return (v, math.copysign(1.0, v))


def brute_force_aggregate(events, specs):
    """Buffer everything, then reduce: returns {(sid, group): {name: value}}
    plus the canonical code tables for first/last columns."""
    groups = defaultdict(list)
    for ev in events:
        groups[(ev.session_id, ev.level_group)].append(ev)

    keys = sorted(groups, key=lambda k: (k[0], GROUP_ORDER[k[1]]))
    code_tables = {s.column: {} for s in specs if s.kind in ("first", "last")}
    out = {}
    for key in keys:
        evs = groups[key]
        row = {}
        for s in specs:
            vals = [getattr(e, s.column) for e in evs]
            present = [v for v in vals if v is not None]
            if s.column in NUMERIC:
                if not present:
                    row[s.output_name] = None
                elif s.kind == "mean":
                    row[s.output_name] = math.fsum(present) / len(present)
                elif s.kind == "sum":
                    row[s.output_name] = float(math.fsum(present))
                elif s.kind == "min":  # -0.0 counts as below 0.0
                    row[s.output_name] = float(min(present, key=_signed))
                else:
                    row[s.output_name] = float(max(present, key=_signed))
            else:
                if s.kind == "count":
                    row[s.output_name] = float(len(present))
                elif s.kind == "nunique":
                    row[s.output_name] = float(len(set(present)))
                else:
                    pairs = [(e.index, getattr(e, s.column)) for e in evs
                             if getattr(e, s.column) is not None]
                    if not pairs:
                        row[s.output_name] = None
                        continue
                    if s.kind == "first":
                        idx = min(p[0] for p in pairs)
                        val = min(v for i, v in pairs if i == idx)
                    else:
                        idx = max(p[0] for p in pairs)
                        val = max(v for i, v in pairs if i == idx)
                    table = code_tables[s.column]
                    if val not in table:
                        table[val] = len(table)
                    row[s.output_name] = float(table[val])
        out[key] = row
    return out, code_tables


def nested_loop_join(rows, labels, q_map):
    """Row-by-row join count: (session, q_map[question]) must match a row."""
    matched = []
    for lab in labels:
        for row in rows:
            if row.session_id == lab.session_id and row.level_group == q_map[lab.question]:
                matched.append((lab.session_id, lab.question))
                break
    return matched


def naive_impute(x):
    x = np.array(x, dtype=float)
    out = x.copy()
    for j in range(x.shape[1]):
        present = [v for v in x[:, j] if not math.isnan(v)]
        mean = sum(present) / len(present)
        for i in range(x.shape[0]):
            if math.isnan(out[i, j]):
                out[i, j] = mean
    return out


def naive_standardize(x, mean=None, std=None):
    x = np.array(x, dtype=float)
    if mean is None:
        mean = [sum(x[:, j]) / x.shape[0] for j in range(x.shape[1])]
        std = [
            math.sqrt(sum((v - mean[j]) ** 2 for v in x[:, j]) / x.shape[0])
            for j in range(x.shape[1])
        ]
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            out[i, j] = 0.0 if std[j] == 0 else (x[i, j] - mean[j]) / std[j]
    return out, mean, std


def pearson_formula(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((xs[i] - mx) * (ys[i] - my) for i in range(n))
    dx = math.sqrt(sum((v - mx) ** 2 for v in xs))
    dy = math.sqrt(sum((v - my) ** 2 for v in ys))
    if dx == 0 or dy == 0:
        return float("nan")
    return num / (dx * dy)


def mi_from_counts(pairs, base=math.e):
    """Plug-in MI from raw (x_code, y) pairs via exhaustive joint counting."""
    n = len(pairs)
    joint = defaultdict(int)
    px = defaultdict(int)
    py = defaultdict(int)
    for x, y in pairs:
        joint[(x, y)] += 1
        px[x] += 1
        py[y] += 1
    total = 0.0
    for (x, y), c in joint.items():
        pxy = c / n
        total += pxy * math.log(pxy / ((px[x] / n) * (py[y] / n)))
    return total / math.log(base)


def knn_oracle(train_x, train_y, queries, k, metric):
    """Full O(n^2) scan with the documented tie rules."""

    def dist(a, b):
        if metric == "euclidean":
            return math.sqrt(sum((a[i] - b[i]) ** 2 for i in range(len(a))))
        if metric == "manhattan":
            return sum(abs(a[i] - b[i]) for i in range(len(a)))
        dot = sum(a[i] * b[i] for i in range(len(a)))
        na = math.sqrt(sum(v * v for v in a))
        nb = math.sqrt(sum(v * v for v in b))
        return 1.0 - dot / (na * nb)

    preds = []
    for q in queries:
        scored = sorted((dist(q, train_x[i]), i) for i in range(len(train_x)))
        nbrs = scored[:k]
        counts = defaultdict(int)
        for _, i in nbrs:
            counts[train_y[i]] += 1
        top = max(counts.values())
        tied = sorted(lab for lab, c in counts.items() if c == top)
        if len(tied) == 1:
            preds.append(tied[0])
            continue
        totals = {lab: sum(d for d, i in nbrs if train_y[i] == lab) for lab in tied}
        best = min(totals.values())
        preds.append(min(lab for lab, t in totals.items() if t == best))
    return preds


def entropy_formula(counts):
    total = sum(counts)
    out = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            out -= p * math.log2(p)
    return out


def gini_formula(counts):
    total = sum(counts)
    return 1.0 - sum((c / total) ** 2 for c in counts)


def gain_formula(parent, children, criterion):
    imp = entropy_formula if criterion == "entropy" else gini_formula
    total = sum(parent)
    weighted = sum(sum(ch) / total * imp(ch) for ch in children if sum(ch) > 0)
    return imp(parent) - weighted


def best_split_oracle(x, y, criterion, candidates=None):
    """Scan every feature and every midpoint threshold exhaustively; where
    the midpoint of lo < hi is not below hi, the threshold is lo."""
    n, d = x.shape
    n1 = int(sum(y))
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        return None
    if criterion == "gini":
        parent = 1.0 - ((n0 / n) ** 2 + (n1 / n) ** 2)
    else:
        parent = entropy_formula((n0, n1))
    best = None
    for f in (range(d) if candidates is None else candidates):
        vals = sorted(set(float(v) for v in x[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2.0
            if not lo <= thr < hi:
                thr = lo
            nl = nl1 = 0
            for i in range(n):
                if x[i, f] <= thr:
                    nl += 1
                    nl1 += int(y[i])
            nl0 = nl - nl1
            nr = n - nl
            nr1 = n1 - nl1
            nr0 = nr - nr1
            if criterion == "gini":
                il = 1.0 - ((nl0 / nl) ** 2 + (nl1 / nl) ** 2)
                ir = 1.0 - ((nr0 / nr) ** 2 + (nr1 / nr) ** 2)
            else:
                il = entropy_formula((nl0, nl1))
                ir = entropy_formula((nr0, nr1))
            gain = parent - ((nl / n) * il + (nr / n) * ir)
            if best is None or gain > best[2]:
                best = (f, thr, gain)
    if best is None or best[2] <= 0.0:
        return None
    return best


def adam_scalar_reference(theta, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Published update equations applied coordinate-by-coordinate."""
    m = 0.0
    v = 0.0
    history = []
    for t, g in enumerate(grads_per_step, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        history.append(theta)
    return history


def reference_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update into fresh arrays: (new params, new m, new v).

    The functional step the training loop once used, kept with its float
    operations in their order, so an update written over its arguments can
    be checked for byte-equal parameters.
    """
    new_params, new_m, new_v = [], [], []
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m_prev, v_prev in zip(params, grads, m, v):
        m2 = beta1 * m_prev + (1.0 - beta1) * g
        v2 = beta2 * v_prev + (1.0 - beta2) * (g * g)
        m_hat = m2 / c1
        v_hat = v2 / c2
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m2)
        new_v.append(v2)
    return new_params, new_m, new_v


# --- bitwise references for the vectorized model kernels --------------------
# Earlier straightforward versions of three hot kernels, kept verbatim
# (apart from local names, and the split threshold's rule for a midpoint
# that is not below its upper value) so the rewritten kernels can be
# checked for byte-equal results, not only for equal answers.


def reference_logistic(z):
    """Two masked branches, one exp each."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_plog2(p):
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def reference_scan_split(cols, y, config, features):
    """One stable argsort and one cumsum per candidate feature: row i of the
    (c, n) block ``cols`` holds feature ``features[i]`` of the n rows."""
    n = cols.shape[1]
    n1 = int(y.sum())
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        return None
    if config.criterion == "gini":
        parent = 1.0 - ((n0 / n) ** 2 + (n1 / n) ** 2)
    else:
        parent = entropy_formula((n0, n1))

    best = None
    for col, f in zip(cols, features):
        order = np.argsort(col, kind="stable")
        sv = col[order]
        cuts = np.nonzero(sv[1:] != sv[:-1])[0]  # split after position i
        if cuts.shape[0] == 0:
            continue
        c1 = np.cumsum(y[order])
        nl = cuts + 1
        nl1 = c1[cuts]
        nl0 = nl - nl1
        nr = n - nl
        nr1 = n1 - nl1
        nr0 = nr - nr1
        if config.criterion == "gini":
            il = 1.0 - ((nl0 / nl) ** 2 + (nl1 / nl) ** 2)
            ir = 1.0 - ((nr0 / nr) ** 2 + (nr1 / nr) ** 2)
        else:
            il = -(_reference_plog2(nl0 / nl) + _reference_plog2(nl1 / nl))
            ir = -(_reference_plog2(nr0 / nr) + _reference_plog2(nr1 / nr))
        gains = parent - ((nl / n) * il + (nr / n) * ir)
        j = int(np.argmax(gains))  # first max: lowest threshold wins in-feature
        gain = float(gains[j])
        if best is None or gain > best[2]:
            lo, hi = float(sv[cuts[j]]), float(sv[cuts[j] + 1])
            thr = (lo + hi) / 2.0
            best = (int(f), thr if lo <= thr < hi else lo, gain)
    return best


def _reference_distance_block(queries, stored, metric):
    if metric == "euclidean":
        diff = queries[:, None, :] - stored[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    if metric == "manhattan":
        diff = queries[:, None, :] - stored[None, :, :]
        return np.abs(diff).sum(axis=-1)
    nq = np.sqrt((queries * queries).sum(axis=1))
    ns = np.sqrt((stored * stored).sum(axis=1))
    if (nq == 0.0).any() or (ns == 0.0).any():
        raise ZeroDivisionError("zero vector under cosine")
    return 1.0 - (queries @ stored.T) / np.outer(nq, ns)


def reference_knn_predict(model, queries, block_size=256):
    """Blocks of 256 queries, a full stable argsort per query row."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    k = model.k
    y = model.y
    out = np.empty(q.shape[0], dtype=np.int64)
    for start in range(0, q.shape[0], block_size):
        dists = _reference_distance_block(q[start : start + block_size], model.x, model.metric)
        for r in range(dists.shape[0]):
            row = dists[r]
            nbr = np.argsort(row, kind="stable")[:k]  # stable: distance ties -> lower index
            labs = y[nbr]
            nd = row[nbr]
            counts = {}
            for lab in labs:
                counts[int(lab)] = counts.get(int(lab), 0) + 1
            top = max(counts.values())
            tied = [lab for lab, c in counts.items() if c == top]
            if len(tied) == 1:
                out[start + r] = tied[0]
            else:
                totals = {lab: float(nd[labs == lab].sum()) for lab in tied}
                best = min(totals.values())
                out[start + r] = min(lab for lab, t in totals.items() if t == best)
    return out
