"""Seeded request frames for the serve-mixed workload.

One frame in 20 is a `ping`. The rest are scoring requests at `prec`
128, with formats rotating through binary64, Log, posit and hdr. Four in
five scoring requests repeat an input sent earlier, which the server's
oracle cache answers; the rest are fresh inputs that need the oracle
and a cache write. Fresh inputs are split evenly between the two
scoring verbs.

The request shapes follow the registry's own inputs:

- `pbd/call_columns` carries two columns drawn as
  `compstat_pbd::accuracy_corpus` draws the columns of its two
  binary64-range tiers (crates/pbd/src/datasets.rs). A column aims at a
  p-value of 2^t, with t in [-200, 0) or [-1022, -200). It has K in
  [8, 120) successes and N in [1.5K, 3K + 4) trials, so a few hundred
  probabilities at most.
- `hmm/forward_batch` carries one model of the quick-scale geometry of
  `fig10` and `hdr` (4 states, 16 symbols, rows drawn from a
  Dirichlet(0.8)) and three sequences of uniform symbols. Their total
  length is 1,200, `hdr`'s quick sequence length.

The even split between the verbs and the two columns per request are
choices of this benchmark; nothing in the repository weights them.

The shares are exact, and the draws that set a column's size (its
tier, K and N) are stratified: each seed places one draw in each of
equal slices of [0, 1), in its own order. So seeds change the inputs
and their order, but hardly the work a script holds, and results from
different seeds can be compared.
"""

import json
import math
import random

SCHEMA = "compstat-serve/v1"
FORMATS = ("binary64", "Log", "posit(64,18)", "hdr(53)")
PREC = 128
PING_SHARE = 0.05
REPEAT_SHARE = 0.8
PBD_SHARE = 0.5
# fig10/hdr quick-scale model geometry (fig10_vicar.rs, hdr_format.rs).
STATES, SYMBOLS, ALPHA = 4, 16, 0.8
SEQUENCES, SEQUENCE_LEN = 3, 400


def _strata(rng, m):
    """`m` uniforms in [0, 1), one in each of `m` equal slices, in a seeded order."""
    u = [(i + rng.random()) / m for i in range(m)]
    rng.shuffle(u)
    return u


def _column(rng, u_tier, u_k, u_n):
    """One column as `accuracy_corpus` draws it in its binary64-range
    tiers, with the tier, K and N set by the uniforms given."""
    # The two tiers hold 50 and 43 of every 100 corpus columns.
    upper = 50 / 93
    if u_tier < upper:
        t = -200.0 * u_tier / upper
    else:
        t = -200.0 - 822.0 * (u_tier - upper) / (1 - upper)
    if t >= -2.0:
        n = 20 + int(40 * u_n)
        return {"probs": [rng.uniform(0.05, 0.3) for _ in range(n)], "k": max(1, n // 20)}
    k_max = max(2.0, math.floor(-t / 3.0))
    k = int(8.0 + u_k * (max(9.0, min(120.0, k_max)) - 8.0))
    per_trial = min(-1.0, max(-380.0, t / k))
    n = k + k // 2 + int(u_n * (2 * k + 4 - k // 2))
    return {"probs": [2.0 ** (per_trial + rng.uniform(-0.5, 0.5)) for _ in range(n)], "k": k}


def _dirichlet_row(rng, width):
    raw = [rng.gammavariate(ALPHA, 1.0) for _ in range(width)]
    total = sum(raw)
    return [x / total for x in raw]


def _hmm_input(rng):
    model = {
        "states": STATES,
        "symbols": SYMBOLS,
        "a": [p for _ in range(STATES) for p in _dirichlet_row(rng, STATES)],
        "b": [p for _ in range(STATES) for p in _dirichlet_row(rng, SYMBOLS)],
        "pi": _dirichlet_row(rng, STATES),
    }
    sequences = [[rng.randrange(SYMBOLS) for _ in range(SEQUENCE_LEN)] for _ in range(SEQUENCES)]
    return {"verb": "hmm/forward_batch", "model": model, "sequences": sequences}


def _shuffled(rng, counts):
    out = [name for name, n in counts for _ in range(n)]
    rng.shuffle(out)
    return out


def generate(seed, count):
    """`count` request lines, the same for the same seed.

    Returns `(frames, classes)`: the frames, and for each its class,
    `ping`, `fresh` (an input not sent before) or `repeat`.
    """
    rng = random.Random(seed)
    pings = round(count * PING_SHARE)
    fresh = max(1, round((count - pings) * (1 - REPEAT_SHARE)))
    classes = _shuffled(rng, [("ping", pings), ("fresh", fresh), ("repeat", count - pings - fresh)])
    # A repeat needs an earlier input, so the first scoring request is fresh.
    first = next(i for i, c in enumerate(classes) if c != "ping")
    j = classes.index("fresh")
    classes[first], classes[j] = classes[j], classes[first]
    pbd = round(fresh * PBD_SHARE)
    verbs = iter(_shuffled(rng, [("pbd", pbd), ("hmm", fresh - pbd)]))
    columns = zip(*(_strata(rng, 2 * pbd) for _ in range(3)))
    sent = []
    frames = []
    for i, c in enumerate(classes):
        head = {"schema": SCHEMA, "id": "r%d" % i}
        if c == "ping":
            frames.append(json.dumps({**head, "verb": "ping"}, separators=(",", ":")))
            continue
        if c == "repeat":
            body = rng.choice(sent)
        elif next(verbs) == "pbd":
            body = {"verb": "pbd/call_columns", "columns": [_column(rng, *next(columns)) for _ in range(2)]}
            sent.append(body)
        else:
            body = _hmm_input(rng)
            sent.append(body)
        frame = {**head, "format": FORMATS[i % len(FORMATS)], "prec": PREC, **body}
        frames.append(json.dumps(frame, separators=(",", ":")))
    return frames, classes
