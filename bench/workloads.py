"""Seeded command lists for the four benchmark workloads.

A workload is a fixed-shape list of commands: the number of commands,
the word lengths, the magnitude bins and the mix of small exponents
are the same for every seed.  The seed draws the values inside each
bin, how the mix is arranged over the commands, all signs, and each
command's own `--seed`.  Holding the shape fixed keeps the cost of
every command, and so the median and tail latency, nearly equal across
seeds, so the spread between seeds measures the program rather than
the draw.

Each CLI command is a dict with `kind`, the `argv` the program
receives, and the `params` the output checker derives its independent
reference values from; a jacobian-check command carries its call
arguments in `call`, which serve both.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-small", "verify-highpower", "census-exact", "jacobian-check")


def _log_bins(rng: random.Random, lo: float, hi: float, count: int, jitter: float = 0.05) -> list[int]:
    """One value per log-spaced bin between lo and hi, each jittered by
    a factor within exp(+-jitter), so the total cost barely varies."""
    ratio = hi / lo
    return [
        round(lo * ratio ** ((i + 0.5) / count) * math.exp(rng.uniform(-jitter, jitter)))
        for i in range(count)
    ]


def _balanced(rng: random.Random, values, count: int) -> list:
    """count items cycling through values, shuffled: each value appears
    equally often (to within one) on every seed."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _signed(rng: random.Random, magnitude: int) -> int:
    return rng.choice((-1, 1)) * magnitude


def _cmd_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _verify_dim(rng: random.Random, exps: list[int], sign: int, samples: int) -> dict:
    argv = ["verify", "dim", ",".join(map(str, exps)), "--sign", "+" if sign == 1 else "-",
            "--samples", str(samples), "--seed", _cmd_seed(rng), "--output", "json"]
    return {"kind": "verify-dim", "argv": argv, "params": {"exponents": exps, "sign": sign}}


def _verify_omega(rng: random.Random, p: int, sign: int) -> dict:
    argv = ["verify", "omega", "--p", str(p), "--sign", "+" if sign == 1 else "-",
            "--samples", "4", "--seed", _cmd_seed(rng), "--output", "json"]
    return {"kind": "verify-omega", "argv": argv, "params": {"p": p, "sign": sign}}


def _even_words(rng: random.Random, n: int, count: int) -> list[list[int]]:
    """count words of n magnitudes in 2..9 whose sums are equal to
    within one: complementary pairs (2,9), (3,8), (4,7), (5,6) plus, for
    odd n, a 5 or a 6, in random order."""
    pairs = iter(_balanced(rng, ((2, 9), (3, 8), (4, 7), (5, 6)), count * (n // 2)))
    middles = iter(_balanced(rng, (5, 6), count))
    words = []
    for _ in range(count):
        word = [m for _ in range(n // 2) for m in next(pairs)]
        if n % 2:
            word.append(next(middles))
        rng.shuffle(word)
        words.append(word)
    return words


def verify_small(rng: random.Random) -> list[dict]:
    # two-letter words take the stratum sampler, longer ones the generic
    # prefix-and-root sampler; the median command falls inside the
    # four-letter group and the tail command inside the five-letter one
    cmds = []
    for n, count in ((2, 10), (3, 8), (4, 32), (5, 22)):
        signs = _balanced(rng, (1, -1), count)
        for word, sign in zip(_even_words(rng, n, count), signs):
            cmds.append(_verify_dim(rng, [_signed(rng, m) for m in word], sign, samples=12))
    rng.shuffle(cmds)
    return cmds


def verify_highpower(rng: random.Random) -> list[dict]:
    # a two-letter word with s samples gets |p| near 2000/s, so each does
    # the same O(|p|) work; they are the largest group, so the median and
    # the tail command are both among them.  The high power sits last in
    # three-letter words, where the sampler solves it by roots and
    # polish (see README.md for why not first).
    cmds = []
    small = iter(_balanced(rng, range(2, 10), 40))
    signs = iter(_balanced(rng, (1, -1), 38))
    first = iter(_balanced(rng, (True, False), 24))
    for samples in _balanced(rng, range(1, 9), 24):
        big = round(2000 / samples * math.exp(rng.uniform(-0.05, 0.05)))
        pair = [_signed(rng, next(small)), _signed(rng, big)]
        if next(first):
            pair.reverse()
        cmds.append(_verify_dim(rng, pair, next(signs), samples=samples))
    for big in _log_bins(rng, 100, 600, 8):
        exps = [_signed(rng, next(small)), _signed(rng, next(small)), _signed(rng, big)]
        cmds.append(_verify_dim(rng, exps, next(signs), samples=1))
    for p in _log_bins(rng, 40, 80, 6):
        cmds.append(_verify_omega(rng, p, next(signs)))
    rng.shuffle(cmds)
    return cmds


def _census(spec: str, params: dict) -> dict:
    return {"kind": "census", "argv": ["census", spec, "--output", "json"], "params": params}


def _triple_spec(exps: list[int]) -> str:
    return f"<a,b,c; a^{exps[0]} b^{exps[1]} c^{exps[2]}>"


def census_exact(rng: random.Random) -> list[dict]:
    cmds = []
    # single cyclic groups: the order range makes materialised classes,
    # and their memory, visible at the top end
    for order in _log_bins(rng, 1000, 300000, 8):
        cmds.append(_census(f"Z{order}", {"cyclic": [order]}))
    # eight three-factor products share one cost and hold the tail command
    for factors in (2, 2, 2, 2) + (3,) * 8:
        orders = _log_bins(rng, 1000, 10000, factors)
        rng.shuffle(orders)
        cmds.append(_census(" * ".join(f"Z{q}" for q in orders), {"cyclic": orders}))
    # the short lower-bound commands are the largest group, so the
    # median command is one of them and measures per-command overhead
    for rank in (0,) * 32 + (1, 1, 2, 2, 3, 3, 4, 4):
        exps = [_signed(rng, p) for p in _log_bins(rng, 3, 300, 3)]
        rng.shuffle(exps)
        spec = _triple_spec(exps) if rank == 0 else f"F{rank} * {_triple_spec(exps)}"
        cmds.append(_census(spec, {"free_rank": rank, "exponents": exps}))
    for dim, count in zip(_balanced(rng, (6, 9, 12), 6), _log_bins(rng, 10, 40, 6)):
        cmds.append({"kind": "sequence",
                     "argv": ["sequence", "--dim", str(dim), "--count", str(count), "--output", "json"],
                     "params": {"dim": dim, "count": count}})
    for rank, mirc in zip(_balanced(rng, (2, 3), 6), _log_bins(rng, 100, 10**8, 6)):
        cmds.append({"kind": "witness",
                     "argv": ["witness", "--rank", str(rank), "--mirc", str(mirc), "--output", "json"],
                     "params": {"rank": rank, "mirc": mirc}})
    rng.shuffle(cmds)
    return cmds


def jacobian_check(rng: random.Random) -> list[dict]:
    # the acceptance corpus shape: lengths 3..10, exponents 2..9,
    # relator signs alternating.  Lengths 7 and 9 get three times the
    # tuples of the others, so the median and the tail tuple each fall
    # inside one length group rather than between two.
    cmds = []
    for n, count in ((3, 4), (4, 4), (5, 4), (6, 4), (7, 12), (8, 4), (9, 12), (10, 4)):
        magnitudes = _balanced(rng, range(2, 10), count * n)
        for i in range(count):
            cmds.append({"kind": "jacobian",
                         "call": {"exponents": magnitudes[i * n:(i + 1) * n],
                                  "sign": 1 if len(cmds) % 2 == 0 else -1,
                                  "points": 4, "seed": rng.randrange(2**31)}})
    rng.shuffle(cmds)
    return cmds


_GENERATORS = {
    "verify-small": verify_small,
    "verify-highpower": verify_highpower,
    "census-exact": census_exact,
    "jacobian-check": jacobian_check,
}


def generate(workload: str, seed: int) -> list[dict]:
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
