"""Output checks for each workload, and a self-test that they catch faults.

Each check takes an op's exit code and stdout plus the facts the input was
built with, and returns None when the output is right or a reason when it
is wrong.  Braid identities are decided by the classical oracle and
non-conjugacy by Burau traces (oracle.py); structure is checked against what
the method must give, never against stored output.
"""

from __future__ import annotations

import json

from oracle import artin, burau_traces, conjugates_to, same_braid

# Other spellings of the weight-2 simples, from the relation cells.
RELATIONS = {
    "c123": ("a23.a13", "a13.a12"),
    "c234": ("a34.a24", "a24.a23"),
    "c134": ("a14.a13", "a13.a34"),
    "c124": ("a12.a24", "a24.a14"),
    "p12-34": ("a12.a34",),
    "p14-23": ("a23.a14",),
}


def self_check_tables() -> None:
    """Confirm the Artin table of oracle.py with the classical engine."""
    for name, spellings in RELATIONS.items():
        for word in spellings:
            if not same_braid(artin(name), artin(word)):
                raise RuntimeError(f"spelling of {name} wrong")
    if not same_braid(artin("d"), artin("a12.a23.a34")):
        raise RuntimeError("delta spelling wrong")


def _json(code: int, stdout: str, want_code: int):
    if code != want_code:
        raise ValueError(f"exit code {code}, expected {want_code}")
    return json.loads(stdout)


def _is_path(n: int, edges: list) -> bool:
    if len(edges) != n - 1:
        return False
    adjacency = {i: set() for i in range(n)}
    for e in edges:
        i, j = e["source"], e["target"]
        if i not in adjacency or j not in adjacency or i == j:
            return False
        adjacency[i].add(j)
        adjacency[j].add(i)
    if any(len(a) > 2 for a in adjacency.values()):
        return False
    seen, todo = {0}, [0]
    while todo:
        for j in adjacency[todo.pop()] - seen:
            seen.add(j)
            todo.append(j)
    return len(seen) == n


def check_beta(meta: dict, code: int, stdout: str, certify) -> str | None:
    """`sc --quotient json` on a conjugate of beta_k.

    |SC| = 4(3k+2)(3k+5); the quotient is a path of 3k+2 orbits of size at
    most 4 len; every orbit representative has the input's Burau traces; and
    `certify(x, y)` (a solver certificate z with x = z^-1 y z) is confirmed
    classically for the middle orbit's representative.
    """
    try:
        doc = _json(code, stdout, 0)
        k, word = meta["k"], meta["input"]
        n, length = 3 * k + 2, 3 * k + 5
        orbits = doc["orbits"]
        if len(orbits) != n or doc["vertex_count"] != n:
            return f"{len(orbits)} orbits, expected {n}"
        size = sum(o["size"] for o in orbits)
        if size != 4 * n * length:
            return f"|SC| = {size}, expected {4 * n * length}"
        if any(not 1 <= o["size"] <= 4 * length for o in orbits):
            return "orbit size out of range"
        if not _is_path(n, doc["edges"]):
            return "quotient is not a path"
        reps = [o["representative"] for o in orbits]
        if len(set(reps)) != n or not same_braid(artin(doc["base"]), artin(word)):
            return "bad base or repeated representative"
        traces = burau_traces(word)
        if any(burau_traces(r) != traces for r in reps):
            return "representative with other Burau traces"
        rep = reps[n // 2]
        if not conjugates_to(rep, certify(word, rep), word):
            return f"conjugator to {rep} rejected"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    return None


def check_conj(meta: dict, code: int, stdout: str) -> str | None:
    """`conj --json x y`: a classically confirmed certificate for conjugate
    pairs; `not-conjugate` only where the Burau traces differ."""
    try:
        x, y = meta["x"], meta["y"]
        if meta["conjugate"]:
            doc = _json(code, stdout, 0)
            if doc["outcome"] != "conjugate":
                return f"verdict {doc['outcome']} on a conjugate pair"
            if not conjugates_to(y, doc["certificate"], x):
                return "certificate rejected"
        else:
            doc = _json(code, stdout, 1)
            if doc["outcome"] != "not-conjugate":
                return f"verdict {doc['outcome']} on a non-conjugate pair"
            if burau_traces(x) == burau_traces(y):
                return "not-conjugate without a Burau proof"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    return None


def check_capped(code: int, stdout: str) -> str | None:
    """A search over its cap: exit code 3 and exactly one JSON document."""
    if code != 3:
        return f"exit code {code}, expected 3"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not exactly one JSON document"
    if not isinstance(doc, dict) or doc.get("outcome", "inconclusive") != "inconclusive":
        return "capped search did not report inconclusive"
    return None


def _edit(stdout: str, change) -> str:
    doc = json.loads(stdout)
    change(doc)
    return json.dumps(doc)


def _drop_orbit(doc: dict) -> None:
    doc["orbits"].pop()
    doc["vertex_count"] -= 1
    doc["edges"] = [e for e in doc["edges"] if max(e["source"], e["target"]) < doc["vertex_count"]]


def corruptions(workload: str, metas: list, outputs: list) -> list:
    """(name, meta, exit code, stdout): copies of correct outputs, one fault each."""
    out = []
    if workload == "beta-sc":
        code, stdout = outputs[0]
        grow = _edit(stdout, lambda d: d["orbits"][0].update(size=d["orbits"][0]["size"] + 1))
        out.append(("wrong |SC|", metas[0], code, grow))
        out.append(("orbit count off by one", metas[0], code, _edit(stdout, _drop_orbit)))
    else:
        i = next(i for i, m in enumerate(metas) if m["conjugate"])
        j = next(j for j, m in enumerate(metas) if not m["conjugate"])
        code, stdout = outputs[i]
        # z.s is a wrong certificate unless s commutes with x; take an s that does not.
        x = artin(metas[i]["x"])
        s = next(s for s in ("a12", "a23", "a34", "a13") if not same_braid(x + artin(s), artin(s) + x))
        bad_cert = _edit(stdout, lambda d: d.update(certificate=f"{d['certificate']} . {s}"))
        out.append(("corrupted certificate", metas[i], code, bad_cert))
        swapped = _edit(stdout, lambda d: d.update(outcome="not-conjugate"))
        out.append(("swapped verdict", metas[i], code, swapped))
        code, stdout = outputs[j]
        swapped = _edit(stdout, lambda d: d.update(outcome="conjugate", certificate="d^0"))
        out.append(("swapped verdict", metas[j], code, swapped))
    return out
