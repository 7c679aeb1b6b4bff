"""Seeded inputs for the two workloads.

Every input is a word built here: random left normal forms from the
successor table of oracle.py, the beta_k word of the bkl4 README, and words
for conjugates (w^-1 . x . w), reversals and swaps of factors.  bkl4 is
asked only for properties of a class: rigidity of its sliding-circuit
representative, that representative's (inf, sup, k1, k2), and the normal
form of beta_k, which is confirmed here to be the braid and a left normal
form by the table of oracle.py, so it is the unique one.  None of these
depends on how bkl4 stores or orders its tables, so every correct commit gets
the same inputs for a seed.

The classes come from a fixed catalogue (drawn with CATALOGUE_SEED), chosen
by those properties and the Burau traces.  `--seed` picks the conjugate of
each class that is handed to the CLI, the conjugators of the `conj` pairs
and which factors are swapped in the beta pairs.  The ops keep the order
they are built in (beta_k by k; in `conj` the beta swaps last), so the heap
a pass has built up when it reaches its largest op does not depend on the
seed: a shuffled order spread the pass's peak memory by 0.1.  A fixed
catalogue keeps the cost of a pass the same from seed to seed; the per-class
cost spread is too wide for 100 freshly drawn classes to give steady
percentiles.  No class occurs twice in one workload, and warm-up inputs come
from other classes.

    python3 perfbench/inputs.py --workload conj --seed 7 [--ops]

prints the ops, their digest and a summary of the inputs.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import random
import sys

if __name__ == "__main__":  # as a script, import bkl4 from the checkout's src/
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from bkl4.engine import invariants
from bkl4.sliding import is_rigid, slide_to_circuit
from bkl4.words import format_braid, parse_braid

from oracle import artin, burau_traces, is_normal_form, random_normal_form, same_braid

CATALOGUE_SEED = 20120430
BETA_KS = range(1, 9)
# beta_1 has no two-factor swap with its circuit type and other Burau traces.
SWAP_KS = range(2, 9)
CONJ_RIGID_HITS = 34
CONJ_NONRIGID_HITS = 33
# Non-rigid conjugate pairs use classes whose circuit representative has at
# most 4 factors, so that an early hit (its cost depends on where the seeded
# conjugate lands in the search) stays below the full enumerations and
# op_p90_ms falls among those, whose cost does not depend on the seed.
HIT_NONRIGID_LONGEST = 4
CONJ_REVERSED = 26
CAPPED = ((9, 100), (10, 100), (11, 100))  # (k, cap): beta_k against a swap


def _word(terms: list[str]) -> str:
    return " . ".join(terms)


def _beta(k: int) -> list[str]:
    """The normal form of beta_k = a34.a23.a12.a13.a14.c124^3k.a12^-3k, as terms."""
    word = f"a34.a23.a12.a13.a14.c124^{3 * k}.a12^{-3 * k}"
    terms = format_braid(parse_braid(word)).split(" . ")
    if not (is_normal_form(terms) and same_braid(artin(_word(terms)), artin(word))):
        raise RuntimeError(f"bkl4 gave {_word(terms)!r}, not the normal form of beta_{k}")
    return terms


def _key(terms: list[str]) -> tuple[int, ...]:
    return burau_traces(_word(terms))


def _circuit_type(terms: list[str]):
    rep = slide_to_circuit(parse_braid(_word(terms))).representative
    inv = invariants(rep)
    return is_rigid(rep), (inv.inf, inv.sup, inv.k1, inv.k2)


def _candidate(rng, rigid: bool, longest: int = 11) -> list[str]:
    """A random class (normal form of length 4..11) with the given circuit
    rigidity and a circuit representative of canonical length at most `longest`."""
    while True:
        x = random_normal_form(rng, rng.randint(4, 11))
        rep_rigid, (inf, sup, _, _) = _circuit_type(x)
        if rep_rigid == rigid and 0 < sup - inf <= longest:
            return x


def _draw(rng, rigid: bool, seen: set, longest: int = 11) -> list[str]:
    """A candidate class new to `seen`."""
    while True:
        x = _candidate(rng, rigid, longest)
        key = _key(x)
        if key not in seen:
            seen.add(key)
            return x


def _present(rng, x: list[str]) -> list[str]:
    """A seeded conjugate x^w = w^-1 . x . w, w a random normal form of three
    factors.

    A fixed length for w keeps the cost of a pass from varying with the
    seed: every SC conjugator carries w along.
    """
    w = random_normal_form(rng, 3)
    return [f"{f}^-1" for f in reversed(w)] + x + w


def _separated(x: list[str], y: list[str], seen: set) -> bool:
    """The solver's prefilters pass (same circuit (inf, sup, k1, k2)), the
    Burau traces prove y is not conjugate to x, and both classes are new."""
    if _circuit_type(x)[1] != _circuit_type(y)[1]:
        return False
    kx, ky = _key(x), _key(y)
    if kx == ky or kx in seen or ky in seen:
        return False
    seen.update((kx, ky))
    return True


def _beta_swap(k: int, rng, seen: set) -> tuple[list[str], list[str]]:
    """beta_k with two factors swapped, separated from beta_k by Burau."""
    x = _beta(k)
    n = len(x)
    order = [(i, j) for i in range(1, n) for j in range(i + 1, n)]  # x[0] is d^p
    if rng is not None:
        rng.shuffle(order)
    for i, j in order:
        y = list(x)
        y[i], y[j] = y[j], y[i]
        if _separated(x, y, seen):
            return x, y
    raise RuntimeError(f"no separated swap of beta_{k}")


def build(workload: str, seed: int) -> dict:
    """The ops (CLI argv), per-op facts for the checks, capped and warm-up ops."""
    cat = random.Random(CATALOGUE_SEED)
    rng = random.Random(seed)
    other = random.Random(seed + 1)  # warm-up presentations
    seen: set = set()
    ops, meta, capped, warmup = [], [], [], []
    if workload == "beta-sc":
        for k in BETA_KS:
            word = _word(_present(rng, _beta(k)))
            ops.append(["sc", "--quotient", "json", word])
            meta.append({"k": k, "input": word})
        warmup.append(["sc", "--quotient", "json", _word(_present(other, _beta(0)))])
    elif workload == "conj":
        # Seed-independent choices first, so that the seed cannot change them.
        pairs = []  # (kind, x, y, conjugate?)
        for rigid, count in ((True, CONJ_RIGID_HITS), (False, CONJ_NONRIGID_HITS)):
            for _ in range(count):
                x = _draw(cat, rigid, seen, 11 if rigid else HIT_NONRIGID_LONGEST)
                pairs.append(("hit-rigid" if rigid else "hit-nonrigid", x, x, True))
        while sum(p[0] == "reversed" for p in pairs) < CONJ_REVERSED:
            x = _candidate(cat, False)
            y = x[::-1]
            if _separated(x, y, seen):
                pairs.append(("reversed", x, y, False))
        for k, cap in CAPPED:
            x, y = _beta_swap(k, None, seen)
            capped.append(["conj", "--json", "--cap", str(cap), _word(x), _word(y)])
        x = _draw(cat, True, seen)
        warmup.append(["conj", "--json", _word(_present(other, x)), _word(_present(other, x))])
        for k in SWAP_KS:
            pairs.append(("beta-swap", *_beta_swap(k, rng, seen), False))
        for kind, x, y, conj in pairs:
            while True:
                px, py = _word(_present(rng, x)), _word(_present(rng, y))
                if not same_braid(artin(px), artin(py)):
                    break
            ops.append(["conj", "--json", px, py])
            meta.append({"kind": kind, "x": px, "y": py, "conjugate": conj})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    digest = hashlib.sha256(json.dumps([ops, capped]).encode()).hexdigest()[:16]
    return {"ops": ops, "meta": meta, "capped": capped, "warmup": warmup, "digest": digest}


def describe(workload: str, inputs: dict) -> dict:
    """Counts, canonical-length histogram, |SC| distribution and rigidity split."""
    from bkl4.circuits import compute_sc

    words = [m.get("input") or m["x"] for m in inputs["meta"]]
    braids = [parse_braid(w) for w in words]
    sizes = [compute_sc(b).size for b in braids]
    return {
        "ops": len(inputs["ops"]),
        "capped": len(inputs["capped"]),
        "kinds": dict(collections.Counter(m.get("kind", workload) for m in inputs["meta"])),
        "canonical_length": dict(sorted(collections.Counter(b.canonical_length for b in braids).items())),
        "circuit_rigid": sum(is_rigid(slide_to_circuit(b).representative) for b in braids),
        "sc_size": {
            "min": min(sizes),
            "median": sorted(sizes)[len(sizes) // 2],
            "max": max(sizes),
            "total": sum(sizes),
        },
        "digest": inputs["digest"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("beta-sc", "conj"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", action="store_true", help="also print every op")
    args = parser.parse_args()
    inputs = build(args.workload, args.seed)
    if args.ops:
        for argv in inputs["ops"] + inputs["capped"]:
            print(json.dumps(argv))
    print(json.dumps(describe(args.workload, inputs), indent=1))


if __name__ == "__main__":
    main()
