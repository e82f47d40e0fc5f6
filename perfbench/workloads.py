"""The benchmark's workloads: inputs from a seed, the timed batch, the gate.

Each workload has four steps, run in this order by ``run.py``:

``setup(rc)``
    one-time work a user pays before the first answer (timed as set-up);
``inputs(rc, seed)``
    everything the batch will hand the engine, made before timing;
``batch(rc, inputs)``
    the timed work; returns the outputs and the (start, end) clock
    readings of each operation, taken around each call into the engine;
``check(rc, inputs, outputs, gate)``
    the output gate, run outside the timed region.

Engine functions are always looked up on the package at call time
(``rc.run_chain``), never bound at import, so that the tracer's wrappers
are seen.  Only public functions are called, with their default tuning
arguments.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter


def import_engine(root: Path = ROOT):
    """Import ``rigidcomm`` from ``<root>/src`` and nowhere else."""
    src = root / "src"
    if not (src / "rigidcomm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no engine source at {src / 'rigidcomm'}")
    sys.path.insert(0, str(src))
    rc = importlib.import_module("rigidcomm")
    if Path(rc.__file__).resolve().parent != (src / "rigidcomm").resolve():
        raise ImportError(f"rigidcomm was imported from {rc.__file__}, not {src}")
    return rc


class Gate:
    """Counts output checks and keeps the labels of the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, label: str, check) -> None:
        """Run ``check()``; a false result or an exception is a failure."""
        self.attempted += 1
        try:
            ok = bool(check())
        except Exception as exc:  # a broken output must count, not end the run
            ok = False
            label = f"{label}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(label)

    def same(self, label: str, first, again) -> None:
        """Check that a repeated batch gave the first batch's outputs."""
        self.expect(f"{label}: repeat differs from first batch", lambda: first == again)


# ── chain workloads ──────────────────────────────────────────────────────────

class ChainFull:
    """``run_chain(9)`` to the full group: 176 steps, each rescanning all
    511 candidates against every member, so ``normalizing_step`` does
    nearly all the work.  The chain has no input but its rank, so the
    seed changes nothing here."""

    name = "chain-full"

    def __init__(self, rank: int = 9) -> None:
        self.rank = rank

    def setup(self, rc) -> None:
        pass

    def inputs(self, rc, seed: int) -> int:
        return self.rank

    def batch(self, rc, rank: int):
        t0 = clock()
        report = rc.run_chain(rank)
        return report, [(t0, clock())]

    def check(self, rc, rank: int, report, gate: Gate) -> None:
        full = (1 << rank) - 1
        gate.expect("step count", lambda: report.terminated_at == reference.FULL_CHAIN_STEPS[rank]
                    and len(report.steps) == reference.FULL_CHAIN_STEPS[rank] + 1)
        gate.expect("reached the full group", lambda: report.reached_full)
        gate.expect("final log2 order", lambda: report.steps[-1].log2_order == full)
        gate.expect("index row", lambda: report.index_sequence(14) == reference.INDEX_MATRIX[rank])
        verdict = rc.verify_theoretical(report)
        gate.expect("closed form covers steps 0..n-2", lambda: [i for i, _ in verdict] == list(range(rank - 1)))
        for i, ok in verdict:
            gate.expect(f"closed form at step {i}", lambda: ok)

    @staticmethod
    def step_seconds(report) -> list[float]:
        return [s.seconds for s in report.steps[1:]]


class ChainPrefix:
    """``run_chain(n, 14)`` then ``verify_theoretical`` for n = 3..16: a
    wide candidate pool and short chains, with the closed-form sets and
    the ``SaturatedSet`` closure check doing real work.  Deterministic,
    so the seed changes nothing here."""

    name = "chain-prefix"

    def __init__(self, ranks: range = range(3, 17), steps: int = 14) -> None:
        self.ranks = ranks
        self.steps = steps

    def setup(self, rc) -> None:
        pass

    def inputs(self, rc, seed: int) -> list[int]:
        return list(self.ranks)

    def batch(self, rc, ranks: list[int]):
        # one operation: the whole sweep, as one ``chain --n-range`` request
        t0 = clock()
        outputs = []
        for n in ranks:
            report = rc.run_chain(n, self.steps)
            outputs.append((n, report, rc.verify_theoretical(report)))
        return outputs, [(t0, clock())]

    def check(self, rc, ranks: list[int], outputs, gate: Gate) -> None:
        gate.expect("one result per rank", lambda: [n for n, _, _ in outputs] == ranks)
        for n, report, verdict in outputs:
            gate.expect(f"rank {n} index row",
                        lambda: report.index_sequence(self.steps) == reference.INDEX_MATRIX[n])
            gate.expect(f"rank {n} closed form",
                        lambda: [i for i, _ in verdict] == list(range(n - 1))
                        and all(ok for _, ok in verdict))

    @staticmethod
    def step_seconds(outputs) -> list[float]:
        return [s.seconds for _, report, _ in outputs for s in report.steps[1:]]


# ── subgroup queries ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class EvalQuery:
    text: str
    tree: tuple


def _word_text(node) -> str:
    kind = node[0]
    if kind == "gen":
        return str(node[1])
    if kind == "punct":
        return f"{node[1]}^{{{','.join(str(h) for h in node[2])}}}"
    return "[" + ",".join(_word_text(it) for it in node[1]) + "]"


def _random_word(rng: random.Random, n: int, depth: int = 2) -> tuple:
    """A nested commutator word: generators, punctured literals, sub-words."""
    items = []
    for _ in range(rng.randint(2, 3)):
        r = rng.random()
        if depth > 1 and r < 0.4:
            items.append(_random_word(rng, n, depth - 1))
        elif r < 0.7:
            items.append(("gen", rng.randint(1, n)))
        else:
            base = rng.randint(2, n)
            holes = rng.sample(range(1, base), rng.randint(0, min(2, base - 1)))
            items.append(("punct", base, tuple(sorted(holes, reverse=True))))
    return ("word", tuple(items))


def _fold(rc, node, n: int):
    """The word as a permutation, from generators and permutation commutators only."""
    kind = node[0]
    if kind == "gen":
        return rc.generator(node[1], n)
    if kind == "punct":
        parts = [("gen", k) for k in range(node[1], 0, -1) if k not in node[2]]
    else:
        parts = list(node[1])
    if not parts:
        return rc.identity(n)
    p = _fold(rc, parts[0], n)
    for part in parts[1:]:
        p = rc.perm_commutator(p, _fold(rc, part, n))
    return p


def _tree_element(rc, n: int, flips_at):
    """Product over levels 1..n of the level flip pattern ``flips_at(level)``."""
    g = rc.identity(n)
    for level in range(1, n + 1):
        flips = frozenset(flips_at(level))
        if flips:
            pattern = rc.LevelFlipPattern(level, flips)
            g = rc.compose(g, rc.flip_pattern_permutation(pattern, n))
    return g


def _latin_hypercube(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` draws from lo..hi-1, one from each of ``count`` equal strata, shuffled."""
    edges = [lo + (hi - lo) * i // count for i in range(count + 1)]
    draws = [rng.randrange(edges[i], max(edges[i] + 1, edges[i + 1])) for i in range(count)]
    rng.shuffle(draws)
    return draws


def normalized_by_all(masks, n: int) -> bool:
    """Whether every rigid commutator maps the set into itself under the
    commutator, computed with numpy from the closed form rather than
    through the engine."""
    import numpy as np  # imported here so that timing engine import covers numpy

    members = np.fromiter(masks, dtype=np.int64)
    inside = np.zeros(1 << n, dtype=bool)
    inside[0] = True
    inside[members] = True
    bits = np.array([v.bit_length() for v in range(1 << n)], dtype=np.int64)
    x = np.arange(1, 1 << n, dtype=np.int64)[:, None]
    y = members[None, :]
    a, b = bits[x], bits[y]
    high = np.where(a > b, x, y)
    low_base = np.minimum(a, b)
    low_bit = np.left_shift(1, low_base - 1)
    prod = low_bit | (x & y) | (high & ~(np.left_shift(1, low_base) - 1))
    prod = np.where((a == b) | ((high & low_bit) != 0), 0, prod)
    return bool(inside[prod].all())


class Queries:
    """A closed loop, one client, at rank 10: equal shares of expression
    evaluation (``eval --perm``), saturate-then-normal-closure
    (``closure``) and membership factorization (``factorize --set``), in a
    seeded order.  Never calls ``run_chain``.

    Closure seeds have two or three members, half of each.  Their masks
    are Latin-hypercube draws over 1..2^n-1, so each run covers the
    mask range evenly: closure cost grows with closure size, which varies
    widely with the seed's members.  Over 40 seeds with 50 closures each,
    independent draws moved the summed closure size by about 7 %
    (interquartile range) and this design by about 3.5 %; with 60
    closures the 70th percentile of closure size, where ``query_p90_ms``
    falls, moved by about 5 %.
    """

    name = "queries"

    def __init__(self, rank: int = 10, per_kind: int = 60) -> None:
        self.rank = rank
        self.per_kind = per_kind
        self.full = None

    def setup(self, rc) -> None:
        n = self.rank
        self.full = rc.full_rigid_set(n)
        # fills the per-level basis cache that every factorization uses
        rc.factorize(_tree_element(rc, n, lambda level: range(1 << (level - 1))))

    def inputs(self, rc, seed: int) -> list[tuple[str, object]]:
        rng = random.Random(seed)
        n, k = self.rank, self.per_kind
        evals = []
        for _ in range(k):
            tree = _random_word(rng, n)
            evals.append(EvalQuery(_word_text(tree), tree))
        columns = [_latin_hypercube(rng, k, 1, 1 << n) for _ in range(3)]
        sizes = [2] * (k // 2) + [3] * (k - k // 2)
        rng.shuffle(sizes)
        closures = [
            tuple(rc.RigidCommutator(columns[j][q], n) for j in range(sizes[q]))
            for q in range(k)
        ]
        elements = [
            _tree_element(rc, n, lambda level: (p for p in range(1 << (level - 1)) if rng.getrandbits(1)))
            for _ in range(k)
        ]
        queries = ([("eval", q) for q in evals] + [("closure", q) for q in closures]
                   + [("factorize", q) for q in elements])
        rng.shuffle(queries)
        return queries

    def batch(self, rc, queries):
        n, full = self.rank, self.full
        within = full  # factorize asks about the most recent closure
        outputs, intervals = [], []
        for kind, q in queries:
            t0 = clock()
            if kind == "eval":
                c = rc.evaluate_expression(q.text, n)
                out = (c, rc.expand(c))
            elif kind == "closure":
                out = rc.normal_closure(rc.saturate(q, n), full)
            else:
                out = rc.factorize(q, within=within)
            intervals.append((t0, clock()))
            if kind == "closure":
                within = out
            outputs.append(out)
        return outputs, intervals

    def check(self, rc, queries, outputs, gate: Gate) -> None:
        n = self.rank
        within = self.full
        gate.expect("one result per query", lambda: len(outputs) == len(queries))
        for i, ((kind, q), out) in enumerate(zip(queries, outputs)):
            if kind == "eval":
                gate.expect(f"query {i} eval {q.text}", lambda: out[1] == _fold(rc, q.tree, n))
            elif kind == "closure":
                within = out
                seed = {c.mask for c in q}
                gate.expect(f"query {i} closure contains its seed", lambda: seed <= out.masks)
                gate.expect(f"query {i} closure is saturated",
                            lambda: rc.SaturatedSet(n, out.masks) is not None)
                gate.expect(f"query {i} closure is normal", lambda: normalized_by_all(out.masks, n))
            else:
                gate.expect(f"query {i} factorization round-trips", lambda: out.to_permutation() == q)
                gate.expect(f"query {i} membership verdict",
                            lambda: out.member == all(c.mask in within.masks for c in out.factors))

    @staticmethod
    def step_seconds(outputs) -> list[float]:
        return []


WORKLOADS = {w.name: w for w in (ChainFull, ChainPrefix, Queries)}
