"""Seeded request generators for the three benchmark workloads.

A workload is an endless stream of rounds.  A round is a fixed template of
request kinds (the "request list" whose wall time is `wall_s`); only the
parameters inside each request are drawn from the workload seed.  Keeping the
template fixed keeps the mix, and so the run-to-run spread, the same for every
seed, while the drawn parameters keep every request distinct:

* every request draws its own H, and no H value repeats anywhere in a stream,
  so no work can be shared across requests, only inside one;
* every `sde` request draws its own sampler seed, also never repeated;
* H values that drive a steeply H-dependent cost are drawn one per stratum of
  [0.55, 0.95], so each round sees the same spread of H.

Each request is a README CLI argv list (without `--no-timestamp`, which the
worker appends).  The generators depend on nothing but the standard library,
so the program under test receives only the generated argv lists.
"""
from __future__ import annotations

import itertools
import random

WORKLOADS = ("exact", "grid", "sde")
H_LO, H_HI = 0.55, 0.95

GRID_WORDS = ("1,1", "1,1,1,1", "1,1,2,2", "1,2,1,2", "1,2,2,1")


def _even_counts(word) -> bool:
    return all(word.count(c) % 2 == 0 for c in set(word) if c != 0)


def canonical_words(length: int) -> list[tuple[int, ...]]:
    """Words over {0,1,2,3} whose nonzero letters first appear in the order
    1, 2, 3 (one representative per relabeling of the nonzero alphabet)."""
    out = []
    for word in itertools.product(range(4), repeat=length):
        seen = [x for i, x in enumerate(word) if x != 0 and x not in word[:i]]
        if seen == list(range(1, len(seen) + 1)):
            out.append(word)
    return out


def _join(words) -> str:
    return ";".join(",".join(map(str, w)) for w in words)


# Level tables (every word of one length), each asked at a fresh H.
_BIG_TABLE = _join(canonical_words(6))
_SMALL_TABLES = [_join(itertools.product((1, 2), repeat=4)),
                 _join(canonical_words(4)), _join(canonical_words(5))]
# Spot queries draw from the canonical words with a nonzero expectation.
_SPOT = {n: [w for w in canonical_words(n) if _even_counts(w)] for n in (4, 5, 6)}


class Draws:
    """The random source of one workload stream.

    It never returns the same H, or the same sde seed, twice.
    """

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"fbmsig-bench:{workload}:{seed}")
        self._hs: set[str] = set()
        self._seeds: set[int] = set()

    def uniform(self, lo: float, hi: float, digits: int) -> str:
        return f"{self.rng.uniform(lo, hi):.{digits}f}"

    def strata(self, k: int, lo: float, hi: float) -> list[float]:
        """One uniform draw from each of k equal strata of [lo, hi), shuffled."""
        order = list(range(k))
        self.rng.shuffle(order)
        return [lo + (hi - lo) * (s + self.rng.random()) / k for s in order]

    def hs(self, k: int) -> list[str]:
        """k fresh H values, one per stratum of [H_LO, H_HI)."""
        width = (H_HI - H_LO) / k
        out = []
        for x in self.strata(k, H_LO, H_HI):
            lo = H_LO + width * int((x - H_LO) / width)
            text = f"{x:.6f}"
            while text in self._hs:
                text = f"{lo + width * self.rng.random():.6f}"
            self._hs.add(text)
            out.append(text)
        return out

    def seed(self) -> str:
        s = self.rng.randrange(1, 2**31)
        while s in self._seeds:
            s = self.rng.randrange(1, 2**31)
        self._seeds.add(s)
        return str(s)


def _exact_round(d: Draws) -> list[list[str]]:
    """One length-6 level table (all canonical words over {0..3}), one level
    table of length 4 or 5, one spot query, three `cubature verify` and two
    `cubature solve --branch both`.

    Sorted by latency the solves come first, then the verifies (where the
    median falls), the small tables and spot queries, and last the big
    tables, which hold the 90th percentile (1 request in 8).
    """
    spot = _join(d.rng.choice(_SPOT[n]) for n in (6, 5, 4))
    h_table, h_small, h_spot = d.hs(3)
    reqs = [["expected-sig", "--H", h_table, "--words", _BIG_TABLE],
            ["expected-sig", "--H", h_small, "--words", d.rng.choice(_SMALL_TABLES)],
            ["expected-sig", "--H", h_spot, "--words", spot]]
    reqs += [["cubature", "verify", "--H", h] for h in d.hs(3)]
    reqs += [["cubature", "solve", "--H", h, "--branch", "both"] for h in d.hs(2)]
    d.rng.shuffle(reqs)
    return reqs


def _ladder(d: Draws, top: int) -> str:
    """Four or five grid sizes in [4, top], always ending at top."""
    rungs = d.rng.sample(range(4, top // 2 + 1), d.rng.choice((3, 4)))
    return ",".join(str(m) for m in sorted(rungs) + [top])


def _grid_round(d: Draws) -> list[list[str]]:
    """Five `convergence` requests (the four-letter words, each on a ladder
    topping at 64, and `1,1`), one `bounds` over four H values, ten
    `approx-sig` at m = 32 and five cheap `approx-sig` with m <= 16.

    The nine H values that evaluate the bound constants come from nine
    strata.  Their cost jumps about tenfold at H = 0.861, where the series in
    `constant_Atilde` grows to 32M terms; that is a stratum edge, so every
    round pays the jump exactly twice: once in the `1,1` convergence and
    once in `bounds`.  The four ladders get H values from the seven strata
    below the jump, so their cost barely moves with the draw.  Sorted by
    latency the cheap approx-sig come first, the m = 32 ones (where the
    median falls) next, then `1,1`, and last `bounds` and the four ladders
    to 64: a cluster of near-equal cost holding 5 of 21 requests, so p90
    falls inside it rather than between kinds of request.
    """
    four = list(GRID_WORDS[1:])
    d.rng.shuffle(four)
    by_stratum = sorted(d.hs(9), key=float)
    low, high = by_stratum[:7], by_stratum[7:]
    d.rng.shuffle(low)
    d.rng.shuffle(high)
    tops = (64, 64, 64, 64, d.rng.randint(16, 64))
    reqs = [["convergence", "--H", h, "--words", word, "--m", _ladder(d, top)]
            for word, top, h in zip(four + ["1,1"], tops, low[:4] + high[:1])]
    ts = sorted(d.uniform(0.5, 2.0, 4) for _ in range(d.rng.randint(1, 3)))
    h_bounds = low[4:] + high[1:]
    d.rng.shuffle(h_bounds)
    reqs.append(["bounds", "--H", ",".join(h_bounds), "--T", ",".join(ts)])
    for h in d.hs(10):
        ms = f"{d.rng.randint(4, 8)},32"
        reqs.append(["approx-sig", "--H", h, "--words", d.rng.choice(four), "--m", ms])
    for h in d.hs(5):
        ms = sorted(d.rng.sample(range(4, 17), d.rng.choice((1, 2))))
        reqs.append(["approx-sig", "--H", h, "--words", d.rng.choice(GRID_WORDS),
                     "--m", ",".join(map(str, ms))])
    d.rng.shuffle(reqs)
    return reqs


def _sde_request(d: Draws, h: str, paths: int, steps: int) -> list[str]:
    return ["sde", "compare", "--H", h, "--T", d.uniform(0.5, 2.0, 4),
            "--paths", str(paths), "--steps", str(steps), "--seed", d.seed(),
            "--x0", d.uniform(-1.0, 1.0, 6),
            "--problem", d.rng.choice(("quadratic", "zero"))]


# Many-path requests of the median cluster keep paths x steps near this.
PATH_STEPS = 2**18


def _sde_round(d: Draws) -> list[list[str]]:
    """Nine many-path requests (2k-8k paths, 32-128 steps: three small, six
    with paths x steps near 2^18) and four long-grid requests (4-50 paths;
    steps in [512, 896), in [896, 1280), and twice 1536).

    Sorted by latency the small many-path requests come first, the 2^18 ones
    (where the median falls) next, and the 1536-step ones (where p90 falls)
    last.  The dense Cholesky costs m^3, so the 1280-step ones stay at most
    0.6 times below the 1536-step cluster.  Grids of 2048 steps would double
    the time a run needs for its 100 requests.
    """
    h = d.hs(13)
    reqs = [_sde_request(d, h[i], d.rng.randint(2000, 3000), d.rng.randint(32, 40))
            for i in range(3)]
    for i, paths in enumerate(d.strata(6, 2048, 8193), start=3):
        reqs.append(_sde_request(d, h[i], int(paths), round(PATH_STEPS / int(paths))))
    long_steps = [int(s) for s in d.strata(2, 512, 1280)] + [1536, 1536]
    for i, steps in enumerate(long_steps, start=9):
        reqs.append(_sde_request(d, h[i], d.rng.randint(4, 50), steps))
    d.rng.shuffle(reqs)
    return reqs


_ROUNDS = {"exact": _exact_round, "grid": _grid_round, "sde": _sde_round}


def generate(workload: str, seed: int, rounds: int) -> list[list[list[str]]]:
    """The first `rounds` rounds of the workload's request stream."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    d = Draws(workload, seed)
    return [_ROUNDS[workload](d) for _ in range(rounds)]
