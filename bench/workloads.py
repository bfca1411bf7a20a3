"""The four benchmark workloads: seeded inputs, one item each, and its checks.

Every item checks its own output with explicit comparisons (never `assert`,
so the checks survive `python -O`).  A failed check is recorded with a
witness; an item that raises counts as failed with the error as witness.
Reference values come from the paper (132 blocks, order 95040, ...) or from
the small GF(3) helpers below, which recompute the closed-form objects
without going through the library.

The importer must put the checkout's `src` directory on `sys.path` first.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from time import perf_counter

from wittcap import cap, cosets, golay, pg, veronese

# --- independent GF(3) helpers -------------------------------------------

MONOMIALS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def points(n: int) -> list[tuple[int, ...]]:
    """Canonical points of PG(n,3) in lexicographic order (first nonzero 1)."""
    return [
        v for v in itertools.product((0, 1, 2), repeat=n + 1)
        if next((x for x in v if x), 0) == 1
    ]


def canonical(v) -> tuple[int, ...]:
    v = tuple(x % 3 for x in v)
    lead = next((x for x in v if x), 0)
    if not lead:
        raise ValueError("zero vector")
    return v if lead == 1 else tuple((2 * x) % 3 for x in v)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v)) % 3


def rank3(rows) -> int:
    rows = [list(r) for r in rows]
    rk = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rk, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        rows[rk] = [(rows[rk][c] * x) % 3 for x in rows[rk]]   # 1 and 2 are self-inverse
        for r in range(len(rows)):
            if r != rk and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % 3 for a, b in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def veronese_point(x) -> tuple[int, ...]:
    return canonical(tuple(x[i] * x[j] for i, j in MONOMIALS))


def osculating_prime(a) -> tuple[int, ...]:
    return canonical(tuple(a[i] * a[j] * (1 if i == j else 2) for i, j in MONOMIALS))


def cap_point(x) -> tuple[int, ...]:
    """The paper's closed form for the default base: v(x) + (1,0,0,0,0,0)."""
    x0, x1, x2 = x
    return canonical((x0 * x0 + 1, x0 * x1, x0 * x2, x1 * x1, x1 * x2, x2 * x2))


def fmt(p) -> str:
    return ":".join(str(x) for x in p)


DEFAULT_BASE = (1, 0, 0, 0, 0, 0)
BASES = tuple(sorted({veronese_point(x) for x in points(2)}))   # the 13 surface points
GOLAY_WEIGHTS = {0: 1, 6: 264, 9: 440, 12: 24}
CLASSES = {0: "surface", 1: "cap", 2: "exotic"}
# |prime ∩ set| histograms over the 364 primes, one per class.
PROFILES = {
    "surface": {0: 3, 1: 36, 3: 76, 4: 171, 6: 42, 7: 36},
    "cap": {0: 12, 3: 220, 6: 132},
    "exotic": {0: 3, 2: 90, 3: 76, 5: 144, 6: 42, 8: 9},
}
TODD_LITERALS = {"0:0:0:1:0:1", "0:0:0:1:1:2", "0:0:0:1:2:2"}

# rigid-aut: set k of seed s is random.Random(1000 s + k).sample(points, 12),
# so for the default seed 0 the first 30 are the sets the ROADMAP baseline
# times.  RIGID_ORDERS holds their automorphism orders; it was built once,
# after each set and two random collineation relabellings of it had given
# equal orders.
RIGID_SETS = 3                  # sets per round
RIGID_ORDERS = (1, 1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 4, 1, 1, 1, 1,
                1, 1, 2, 1, 1, 2, 4, 1, 1, 2)
PG5 = tuple(points(5))


def random_collineation(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    while True:
        m = tuple(tuple(rng.randrange(3) for _ in range(6)) for _ in range(6))
        if rank3(m) == 6:
            return m


def relabel(pts, m) -> tuple[tuple[int, ...], ...]:
    """Image of each point under the collineation x -> x m."""
    return tuple(
        canonical(sum(x[i] * m[i][j] for i in range(6)) for j in range(6)) for x in pts
    )


# --- checks ----------------------------------------------------------------


def _plain(v):
    return v if isinstance(v, (bool, int, float, str, type(None))) else repr(v)[:300]


def expect(fails: list, check: str, ok: bool, **witness) -> None:
    if not ok:
        fails.append({"check": check, "witness": {k: _plain(v) for k, v in witness.items()}})


def run_checked(workload, item) -> list[dict]:
    try:
        return workload.run(item)
    except Exception as exc:  # the item failed; the loop must go on and count it
        return [{"check": "raised", "witness": {"error": f"{type(exc).__name__}: {exc}"[:300]}}]


def _shuffled_rounds(items, rng):
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def _in_process_setup():
    model = veronese.build_model()
    pg.hyperplane_point_masks(5)
    return model


# --- workloads ---------------------------------------------------------------


class WittVerify:
    """verify-design battery at one base point, then the golay --verify
    battery and weight-6 supports == blocks of the default cap."""

    def __init__(self, seed: int, root=None):
        self.rng = random.Random(seed)

    def setup(self):
        self.model = _in_process_setup()
        design = cap.blocks(cap.build_cap(self.model, DEFAULT_BASE))
        self.default_blocks = {b.points for b in design.blocks}

    def distinct(self):
        return list(BASES)

    traced = distinct

    def rounds(self):
        return _shuffled_rounds(BASES, self.rng)

    def label(self, base):
        return fmt(base)

    def run(self, base) -> list[dict]:
        f: list[dict] = []
        c = cap.build_cap(self.model, base)
        design = cap.blocks(c)
        witt = cap.verify_witt(design)
        dual = cap.build_dual_cap(self.model, base)
        missed = cap.missed_primes(c)
        disjoint = cap.disjointness_check(c, dual)
        aut = cap.automorphism_order(design)
        identities = cap.vector_identity_check()
        expect(f, "cap_points", len(c.points) == 12 and not set(c.points) & set(BASES),
               points=len(c.points))
        expect(f, "blocks", len(design.blocks) == 132
               and all(len(b.points) == 6 for b in design.blocks), blocks=len(design.blocks))
        expect(f, "witt_5_cover", witt.ok, first_violation=witt.first_violation)
        expect(f, "quad_cover", witt.quad_cover_value == 4, got=witt.quad_cover_value)
        expect(f, "missed_primes", len(missed) == 12 and set(missed) == set(dual.primes),
               missed=len(missed), mismatched=sorted(set(missed) ^ set(dual.primes)))
        expect(f, "disjointness", disjoint is True, got=disjoint)
        expect(f, "aut", aut == 95040, got=aut)
        expect(f, "identities", identities is True, got=identities)

        code = golay.generator_matrix(cap.build_cap_from_formula(self.model))
        dist = golay.weight_distribution(code)
        k = golay.code_rank(code)
        d = golay.minimum_distance(code)
        self_dual = golay.is_self_dual(code)
        words = len(golay.enumerate_codewords(code))
        supports = golay.weight6_supports(code)
        expect(f, "golay_k", k == 6, got=k)
        expect(f, "golay_d", d == 6, got=d)
        expect(f, "golay_self_dual", self_dual is True, got=self_dual)
        expect(f, "golay_words", words == 729, got=words)
        expect(f, "golay_weights", dist == GOLAY_WEIGHTS, got=dist)
        expect(f, "weight6_supports", len(supports) == 132 and supports == self.default_blocks,
               supports=len(supports), mismatched=len(supports ^ self.default_blocks))
        return f


class CosetScan:
    """The 81-row scan at one base point, the orbit check, and the analysis
    of all 27 exotic sets."""

    def __init__(self, seed: int, root=None):
        self.rng = random.Random(seed)

    def setup(self):
        self.model = _in_process_setup()

    def distinct(self):
        return list(BASES)

    traced = distinct

    def rounds(self):
        return _shuffled_rounds(BASES, self.rng)

    def label(self, base):
        return fmt(base)

    def run(self, base) -> list[dict]:
        f: list[dict] = []
        model = self.model
        classes: Counter = Counter()
        for q in cosets.all_quadruples():
            s = cosets.twelve_set(model, base, q)
            kind = cosets.classify(model, base, s)
            profile = cosets.hyperplane_profile(s)
            chordal = all(veronese.chordal_cubic_contains(p) for p in s.points)
            classes[kind] += 1
            expect(f, "class", kind == CLASSES[sum(q) % 3], quadruple=q, got=kind)
            expect(f, "profile", profile == PROFILES.get(kind), quadruple=q, got=profile)
            expect(f, "chordal", chordal, quadruple=q)
        expect(f, "split_27_27_27", classes == Counter({"surface": 27, "cap": 27, "exotic": 27}),
               got=dict(classes))
        orbit = cosets.verify_orbit_equivalence(model, base)
        expect(f, "orbit_group_order", orbit.group_order == 27, got=orbit.group_order)
        expect(f, "orbit_powers", orbit.powers_sum_zero and orbit.powers_bijective,
               sum_zero=orbit.powers_sum_zero, bijective=orbit.powers_bijective)
        expect(f, "orbit_classes_complete", orbit.surface_complete and orbit.cap_complete,
               surface=orbit.surface_complete, cap=orbit.cap_complete)
        expect(f, "no_joint_unit_extension", not orbit.joint_unit_extension)
        for q in cosets.all_quadruples():
            if sum(q) % 3 != 2:
                continue
            er = cosets.analyze_exotic(model, base, cosets.twelve_set(model, base, q))
            expect(f, "exotic_six_point_primes", len(er.six_point_primes) == 42,
                   quadruple=q, got=len(er.six_point_primes))
            expect(f, "exotic_common_point", er.common_point == base,
                   quadruple=q, got=er.common_point)
        return f


class RigidAut:
    """blocks + automorphism_order on a seeded random 12-set and on a copy
    relabelled by a seeded random collineation.  A round is the next
    RIGID_SETS sets.  Run on demand; not listed in BENCHMARK.json."""

    def __init__(self, seed: int, root=None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.next_set = 0

    def setup(self):
        _in_process_setup()

    def distinct(self):
        return []       # nothing is cached per set, so there is nothing to warm

    def traced(self):
        items = []
        for k in range(self.next_set, self.next_set + RIGID_SETS):
            pts = tuple(random.Random(1000 * self.seed + k).sample(PG5, 12))
            items.append((k, pts, relabel(pts, random_collineation(self.rng))))
        self.next_set += RIGID_SETS
        return items

    def rounds(self):
        while True:
            yield self.traced()

    def label(self, item):
        return f"set{item[0]}"

    def run(self, item) -> list[dict]:
        f: list[dict] = []
        i, pts, moved = item
        d1 = cap.blocks(pts)
        a1 = cap.automorphism_order(d1)
        d2 = cap.blocks(moved)
        a2 = cap.automorphism_order(d2)
        expect(f, "relabel_blocks", len(d1.blocks) == len(d2.blocks),
               set=i, blocks=len(d1.blocks), relabelled=len(d2.blocks))
        expect(f, "relabel_order", a1 == a2, set=i, order=a1, relabelled=a2)
        if self.seed == 0 and i < len(RIGID_ORDERS):
            expect(f, "reference_order", a1 == RIGID_ORDERS[i], set=i, got=a1,
                   expected=RIGID_ORDERS[i])
        return f


# Subcommands with the ROADMAP baseline arguments.
COMMANDS = (
    ("build-cap",),
    ("verify-design",),
    ("todd",),
    ("aut-order",),
    ("golay", "--verify"),
    ("classify", "--quadruple", "2,0,0,0"),
    ("scan-cosets",),
    ("analyze-r", "--quadruple", "2,0,0,0"),
    ("dump-veronese",),
)


def cli_env(root) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(root, "src")}


def cli_argv(argv) -> list[str]:
    return [sys.executable, "-m", "wittcap.cli", *argv, "--format", "json"]


def cli_references() -> dict:
    """Expected CLI values at the default base, from the helpers above."""
    domain = [x for x in points(2) if x != (1, 0, 0)]
    cap_pts = [cap_point(x) for x in domain]
    conics = []
    for line in points(2):
        pts = sorted({veronese_point(x) for x in points(2) if dot(x, line) == 0})
        conics.append({"line": fmt(line), "points": [fmt(p) for p in pts],
                       "prime": fmt(osculating_prime(line))})
    return {
        "cap": [fmt(p) for p in cap_pts],
        "todd": [fmt(h) for h in points(5) if all(dot(p, h) for p in cap_pts)],
        "conics": conics,
    }


def check_cli(f: list, argv, report: dict, ref: dict) -> None:
    name = argv[0]
    base = fmt(DEFAULT_BASE)
    if name == "build-cap":
        expect(f, "build_cap", report.get("base") == base and report.get("points") == ref["cap"],
               got=report.get("points"))
    elif name == "verify-design":
        counts = {"points": 12, "blocks": 132, "empty_primes": 12, "quad_cover": 4, "aut": 95040}
        expect(f, "verify_design_counts", report.get("counts") == counts, got=report.get("counts"))
        expect(f, "verify_design_checks", report.get("result") == "PASS"
               and all(c.get("pass") is True for c in report.get("checks", [])),
               got=report.get("checks"))
    elif name == "todd":
        got = report.get("missing_primes")
        expect(f, "todd", got == ref["todd"] and len(got) == 12 and TODD_LITERALS <= set(got),
               got=got)
    elif name == "aut-order":
        expect(f, "aut", report.get("order") == 95040, got=report.get("order"))
    elif name == "golay":
        want = {"n": 12, "k": 6, "d": 6, "self_dual": True,
                "weights": {str(w): c for w, c in GOLAY_WEIGHTS.items()}, "result": "PASS"}
        got = {key: report.get(key) for key in want}
        expect(f, "golay", got == want, got=got)
    elif name == "classify":
        profile = {str(k): v for k, v in PROFILES["exotic"].items()}
        expect(f, "classify", report.get("class") == "exotic" and report.get("class_sum") == 2
               and report.get("profile") == profile, got=report)
    elif name == "scan-cosets":
        rows = report.get("rows", [])
        split = Counter(r.get("class") for r in rows)
        expect(f, "scan_split", len(rows) == 81 and split == Counter(
            {"surface": 27, "cap": 27, "exotic": 27}), got=dict(split))
        for r in rows:
            q = r.get("quadruple", [])
            kind = CLASSES[sum(q) % 3]
            prof = PROFILES[kind]
            expect(f, "scan_row", r.get("class") == kind and r.get("chordal") is True
                   and r.get("profile_0") == prof.get(0, 0)
                   and r.get("profile_6") == prof.get(6, 0), got=r)
    elif name == "analyze-r":
        proj = report.get("projection", {})
        primes = report.get("six_point_primes", [])
        expect(f, "analyze_r", len(primes) == 42 and report.get("common_point") == base
               and all(p.startswith("0:") for p in primes)
               and len(proj.get("transversal", [])) == 4
               and len(proj.get("image_points", [])) == 12
               and sorted(len(v) for v in proj.get("lines", {}).values()) == [4, 4, 4, 4],
               primes=len(primes), common_point=report.get("common_point"))
    elif name == "dump-veronese":
        expect(f, "dump_veronese", report.get("conics") == ref["conics"],
               got=report.get("conics"))


class ColdCli:
    """One fresh `python -m wittcap.cli <sub> --format json` process."""

    def __init__(self, seed: int, root):
        self.rng = random.Random(seed)
        self.root = root

    def setup(self):
        self.ref = cli_references()
        self.env = cli_env(self.root)

    def distinct(self):
        return list(COMMANDS)

    traced = distinct

    def rounds(self):
        return _shuffled_rounds(COMMANDS, self.rng)

    def label(self, argv):
        return " ".join(argv)

    def run(self, argv) -> list[dict]:
        f: list[dict] = []
        proc = subprocess.run(cli_argv(argv), env=self.env, cwd=self.root,
                              capture_output=True, text=True, timeout=120)
        expect(f, "exit_code", proc.returncode == 0, got=proc.returncode,
               stderr=proc.stderr[-300:])
        if proc.returncode == 0:
            check_cli(f, argv, json.loads(proc.stdout), self.ref)
        return f


WORKLOADS = {
    "witt-verify": WittVerify,
    "rigid-aut": RigidAut,
    "coset-scan": CosetScan,
    "cold-cli": ColdCli,
}


def timed_loop(workload, seconds: float) -> dict:
    """Closed loop: the next item starts when the last one has finished.
    Runs whole rounds (each distinct item once, in seeded order) until
    `seconds` have passed, so every item has the same weight in every run."""
    item_s: list[float] = []
    failed = 0
    witnesses: list[dict] = []
    start = perf_counter()
    for round_ in workload.rounds():
        for item in round_:
            t0 = perf_counter()
            fails = run_checked(workload, item)
            item_s.append(perf_counter() - t0)
            if fails:
                failed += 1
                for w in fails[: 5 - len(witnesses)]:
                    witnesses.append({"item": workload.label(item), **w})
        if perf_counter() - start >= seconds:
            break
    return {
        "attempted": len(item_s),
        "failed": failed,
        "wall_s": perf_counter() - start,
        "item_s": item_s,
        "witnesses": witnesses,
    }
