"""Seeded op lists for the benchmark workloads.

An op is the argv (and stdin text) of one ``qautk`` call plus the answer an
oracle expects.  The answers come from closed forms and character tables
computed here, never from qautk, and nothing in this module imports qautk.

Every workload is a list of *rounds*.  A round holds a fixed number of ops
from each tier, shuffled, so two seeds give different inputs with the same
tier mix.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    tier: str
    argv: tuple[str, ...]
    stdin: str
    expect: tuple  # (key, value) pairs; see oracles.py

    @property
    def command(self) -> str:
        return self.argv[0]

    def key(self) -> str:
        """Identity of the input, for counting repeats within a run."""
        return "\0".join(self.argv) + "\0" + self.stdin

    def reproducer(self) -> str:
        line = "qautk " + " ".join(self.argv)
        return line + " < stdin.json" if self.stdin else line


def _op(tier: str, argv: list[str], stdin: str = "", **expect) -> Op:
    return Op(tier, tuple(argv) + ("--json",), stdin, tuple(sorted(expect.items())))


# ---------------------------------------------------------------------------
# integer: Smith and Hermite engines on four matrix shapes
# ---------------------------------------------------------------------------


def _dims_op(tier: str, dims: list[int]) -> Op:
    n = len(dims)
    d = math.gcd(*dims)
    k0 = {"free": (n - 1) ** 2 + 1, "torsion": [d] * (2 * n - 1) if d > 1 else []}
    k1 = {"free": 1, "torsion": []}
    return _op(tier, ["verify", "--dims", ",".join(map(str, dims))], K0=k0, K1=k1)


def _verify_wide(rng: random.Random) -> Op:
    n = rng.randint(4, 6)
    return _dims_op("verify-wide", [rng.randint(1, 10_000) for _ in range(n)])


def _resolution(n: int, degree: int, rng: random.Random) -> Op:
    dims = ",".join(str(rng.randint(1, 12)) for _ in range(n))
    return _op("resolution", ["resolution-check", "--dims", dims, "--degree", str(degree)], exact=True)


def _magic(n: int) -> Op:
    return _op("magic", ["magic-rank", "--n", str(n)], rank=(n - 1) ** 2 + 1)


# ---------------------------------------------------------------------------
# graded: twisted group algebras of order 8..48
# ---------------------------------------------------------------------------


class Group:
    """A finite group as a multiplication table with identity 0."""

    def __init__(self, table: list[list[int]]):
        self.table = table
        self.order = len(table)
        self.inv = [row.index(0) for row in table]


def _cyclic(n: int) -> Group:
    return Group([[(i + j) % n for j in range(n)] for i in range(n)])


def _dihedral(n: int) -> Group:
    """Order 2n; element r + n*f is rotation^r flip^f."""

    def mul(x, y):
        (r1, f1), (r2, f2) = divmod(x, n)[::-1], divmod(y, n)[::-1]
        r = r1 + r2 if f1 == 0 else r1 - r2
        return r % n + n * ((f1 + f2) % 2)

    return Group([[mul(x, y) for y in range(2 * n)] for x in range(2 * n)])


def _quaternion() -> Group:
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    elems = units + [tuple(-c for c in u) for u in units]

    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    return Group([[elems.index(mul(p, q)) for q in elems] for p in elems])


def _symmetric(n: int) -> Group:
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return Group([[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms])


def _product(g: Group, h: Group) -> Group:
    nh = h.order
    return Group(
        [
            [g.table[a1][a2] * nh + h.table[b1][b2] for a2 in range(g.order) for b2 in range(nh)]
            for a1 in range(g.order)
            for b1 in range(nh)
        ]
    )


# Irreducible character degrees of the base groups, from their character
# tables; a direct product takes all pairwise products.
_BASE = {
    "C2": (lambda: _cyclic(2), (1, 1)),
    "C3": (lambda: _cyclic(3), (1, 1, 1)),
    "C5": (lambda: _cyclic(5), (1,) * 5),
    "S3": (lambda: _symmetric(3), (1, 1, 2)),
    "S4": (lambda: _symmetric(4), (1, 1, 2, 3, 3)),
    "Q8": (_quaternion, (1, 1, 1, 1, 2)),
    "D4": (lambda: _dihedral(4), (1, 1, 1, 1, 2)),
    "D6": (lambda: _dihedral(6), (1, 1, 1, 1, 2, 2)),
    "D12": (lambda: _dihedral(12), (1,) * 4 + (2,) * 5),
}


def _named_group(spec: str) -> tuple[Group, list[int]]:
    parts = spec.split("x")
    group, degrees = _BASE[parts[0]][0](), list(_BASE[parts[0]][1])
    for part in parts[1:]:
        build, more = _BASE[part]
        group = _product(group, build())
        degrees = [a * b for a in degrees for b in more]
    return group, sorted(degrees)


def _bilinear_exponents(a: int, b: int) -> tuple[Group, int, list[list[int]]]:
    """omega((i1,j1),(i2,j2)) = zeta_g^(j1*i2) on C_a x C_b, element i*b + j."""
    g = math.gcd(a, b)
    group = _product(_cyclic(a), _cyclic(b))
    n = a * b
    return group, g, [[(s % b) * (t // b) % g for t in range(n)] for s in range(n)]


# Pauli matrices 1, X, Y, Z on C2 x C2: omega exponents are powers of i.
_PAULI = [[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]]


@dataclass(frozen=True)
class Entry:
    """One group/cocycle pair of the graded catalogue."""

    tier: str
    group: str  # name for --group, or "" when the cocycle spec carries it
    cocycle: str  # trivial | pauli | bilinear:AxB | coboundary:M

    def build(self, rng: random.Random) -> tuple[Group, int, list[list[int]], list[int]]:
        """(group, root order, exponent table, expected blocks)."""
        if self.cocycle == "pauli":
            return _product(_cyclic(2), _cyclic(2)), 4, _PAULI, [2]
        if self.cocycle.startswith("bilinear:"):
            a, b = (int(x) for x in self.cocycle[9:].split("x"))
            group, g, table = _bilinear_exponents(a, b)
            return group, g, table, [g] * (a * b // (g * g))
        group, degrees = _named_group(self.group)
        n = group.order
        if self.cocycle == "trivial":
            return group, 1, [[0] * n for _ in range(n)], degrees
        m = int(self.cocycle.split(":")[1])
        beta = [0] + [rng.randrange(m) for _ in range(n - 1)]
        table = [[(beta[s] + beta[t] - beta[group.table[s][t]]) % m for t in range(n)] for s in range(n)]
        return group, m, table, degrees


def _group_json(group: Group) -> dict:
    return {"order": group.order, "identity": 0, "table": group.table}


def _twisted_group_op(entry: Entry, rng: random.Random) -> Op:
    group, m, table, blocks = entry.build(rng)
    if entry.cocycle.startswith("coboundary"):
        cocycle = {"group": _group_json(group), "root_order": m, "values": table}
        return _op(entry.tier, ["twisted-group", "--cocycle", "-"], json.dumps(cocycle), blocks=blocks)
    argv = ["twisted-group", "--cocycle", entry.cocycle]
    if entry.group:
        argv[1:1] = ["--group", entry.group]
    return _op(entry.tier, argv, blocks=blocks)


def _extract_torsion_op(entry: Entry, rng: random.Random) -> Op:
    """Algebra JSON of C*_omega(G) in the basis d'_s = zeta^(r_s) d_s.

    Root order 1 is written as order 2 (the same field, Q) so that the
    rescaling can use signs.
    """
    group, m, table, blocks = entry.build(rng)
    m = max(m, 2)
    n = group.order
    inv = group.inv
    r = [0] + [rng.randrange(m) for _ in range(n - 1)]
    mult = [
        [[[group.table[s][t], {"exp": (r[s] + r[t] - r[group.table[s][t]] + table[s][t]) % m}]] for t in range(n)]
        for s in range(n)
    ]
    star = [[[inv[s], {"exp": (-r[s] - table[s][inv[s]] - r[inv[s]]) % m}]] for s in range(n)]
    algebra = {
        "group": _group_json(group),
        "basis": [f"d{s}" for s in range(n)],
        "grading": list(range(n)),
        "root_order": m,
        "mult": mult,
        "star": star,
    }
    return _op(entry.tier, ["extract-torsion", "--algebra", "-"], json.dumps(algebra), blocks=blocks)


# Tiers by group order: small 4..16, medium 24, large 48.  Root orders 1..6
# give cyclotomic field degrees 1..4.
GRADED_CATALOGUE = {
    "small": [
        Entry("small", "", "pauli"),
        Entry("small", "", "bilinear:2x4"),
        Entry("small", "", "bilinear:3x3"),
        Entry("small", "", "bilinear:4x4"),
        Entry("small", "", "bilinear:2x6"),
        Entry("small", "Q8", "coboundary:5"),
        Entry("small", "D4", "coboundary:3"),
        Entry("small", "D6", "coboundary:6"),
        Entry("small", "D4", "trivial"),
        Entry("small", "Q8", "trivial"),
    ],
    "medium": [
        Entry("medium", "S4", "trivial"),
        Entry("medium", "D12", "trivial"),
        Entry("medium", "Q8xC3", "trivial"),
        Entry("medium", "S3xC2xC2", "trivial"),
    ],
    "large": [
        Entry("large", "S4xC2", "trivial"),
        Entry("large", "", "bilinear:4x12"),
    ],
}


# ---------------------------------------------------------------------------
# delta: delta-form tests on M_k1 (+) ... (+) M_kn of dimension 20..50
# ---------------------------------------------------------------------------

Complex = tuple[Fraction, Fraction]


def _cmul(x: Complex, y: Complex) -> Complex:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _givens(k: int, p: int) -> list[list[Complex]]:
    """Identity with [[3/5, 4i/5], [4i/5, 3/5]] on coordinates p, p+1."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    u = [[one if i == j else zero for j in range(k)] for i in range(k)]
    c, s = (Fraction(3, 5), Fraction(0)), (Fraction(0), Fraction(4, 5))
    u[p][p], u[p][p + 1], u[p + 1][p], u[p + 1][p + 1] = c, s, s, c
    return u


def _matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re, im = Fraction(0), Fraction(0)
            for t in range(n):
                x, y = a[i][t], b[t][j]
                if x[0] or x[1]:
                    p = _cmul(x, y)
                    re, im = re + p[0], im + p[1]
            row.append((re, im))
        out.append(row)
    return out


def _rotated(spectrum: list[Fraction], rng: random.Random, turns: int) -> list[list[Complex]]:
    """U diag(spectrum) U* for U a product of rational Givens rotations."""
    k = len(spectrum)
    u = [[(Fraction(int(i == j)), Fraction(0)) for j in range(k)] for i in range(k)]
    for _ in range(turns if k > 1 else 0):
        u = _matmul(u, _givens(k, rng.randrange(k - 1)))
    u_star = [[(u[j][i][0], -u[j][i][1]) for j in range(k)] for i in range(k)]
    return _matmul(_matmul(u, _diag(spectrum)), u_star)


def _entry_json(x: Complex):
    re, im = (str(v) for v in x)
    return re if not x[1] else [re, im]


def _delta_op(tier: str, blocks: list[int], density: list[list[list[Complex]]], accept: bool, delta_sq) -> Op:
    doc = {"blocks": blocks, "density": [[[_entry_json(x) for x in row] for row in q] for q in density]}
    expect = {"accept": accept}
    if accept:
        expect["delta_squared"] = str(delta_sq)
    return _op(tier, ["delta-form", "--algebra", "-"], json.dumps(doc), **expect)


def _diag(values: list[Fraction]) -> list[list[Complex]]:
    k = len(values)
    return [[(values[i], Fraction(0)) if i == j else (Fraction(0), Fraction(0)) for j in range(k)] for i in range(k)]


def _delta_state(kind: str, band: str, blocks: list[int], rng: random.Random) -> Op:
    """On block i the operator m m* is the scalar Tr(Q_i^-1), so the state
    is a delta-form exactly when these traces agree; delta^2 is their value."""
    tier = f"{kind}-{band}"
    if kind == "canonical":
        total_sq = sum(k * k for k in blocks)
        density = [_diag([Fraction(k, total_sq)] * k) for k in blocks]
        return _delta_op(tier, blocks, density, True, total_sq)
    if kind == "trace":
        density = [_diag([Fraction(1, sum(blocks))] * k) for k in blocks]
        accept = len(set(blocks)) == 1
        return _delta_op(tier, blocks, density, accept, blocks[0] * sum(blocks))
    # rotated: spectra scaled so that Tr(Q_i^-1) agrees (accept) or not
    weights = [[Fraction(rng.randint(1, 3)) for _ in range(k)] for k in blocks]
    alpha = [sum(1 / w for w in ws) for ws in weights]
    if rng.random() < 0.5:
        alpha[rng.randrange(len(blocks))] *= 2
    trace = sum(a * sum(ws) for a, ws in zip(alpha, weights))
    spectra = [[a * w / trace for w in ws] for a, ws in zip(alpha, weights)]
    inv_traces = {sum(1 / x for x in sp) for sp in spectra}
    accept = len(inv_traces) == 1
    density = [_rotated(sp, rng, turns=2 * len(sp)) for sp in spectra]
    return _delta_op(tier, blocks, density, accept, next(iter(inv_traces)) if accept else None)


# Algebra dimension bands and the (state kind, block vector) pairs a round
# draws from each.  The vectors are fixed so that every run costs about the
# same; the seed draws the rotated densities and whether they are accepted.
# Cost grows about as dim^4, and a rotated density costs several times a
# diagonal one of the same dimension.
_D20 = ([2, 4], [1, 2, 4], [1, 1, 3, 3], [3, 3, 3], [1, 5], [2, 2, 3, 3], [1, 2, 2, 4], [1, 3, 4], [2, 2, 2, 3], [1, 1, 5])
DELTA_BANDS = {
    "d20": [(kind, blocks) for kind in ("canonical", "trace", "rotated") for blocks in _D20],
    "d28": [(kind, blocks) for kind in ("canonical", "trace", "rotated") for blocks in ([4, 4], [2, 3, 4])],
    "d36": [("canonical", [3, 3, 3, 3]), ("trace", [3, 3, 3, 3]), ("canonical", [1, 4, 5])],
    "d44": [("canonical", [5, 5])],
}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def _integer_round(rng: random.Random) -> list[Op]:
    """Three times over: every narrow n in 2..40 and every (n, degree band)
    of resolution-check, the bands being 12-16, 17-21, 22-26 and 27-32;
    magic-rank n = 5..7 six times; one wide-entry verify."""
    narrow = [
        _dims_op("verify-narrow", [rng.randint(1, 12) for _ in range(n)])
        for n in range(2, 41)
        for _ in range(3)
    ]
    resolution = [
        _resolution(n, rng.randint(lo, lo + 4 + (lo == 27)), rng)
        for n in range(2, 11)
        for lo in (12, 17, 22, 27)
        for _ in range(3)
    ]
    magic = [_magic(n) for n in (5, 6, 7) for _ in range(6)]
    return narrow + resolution + magic + [_verify_wide(rng)]


def _graded_round(rng: random.Random) -> list[Op]:
    """Each small entry twice through both subcommands; the medium entries,
    and the two large ones, split evenly between the subcommands."""
    makers = (_twisted_group_op, _extract_torsion_op)
    ops = [make(entry, rng) for entry in GRADED_CATALOGUE["small"] for make in makers for _ in range(2)]
    medium = rng.sample(GRADED_CATALOGUE["medium"], 4)
    ops += [makers[i % 2](entry, rng) for i, entry in enumerate(medium)]
    large = rng.sample(GRADED_CATALOGUE["large"], 2)
    ops += [make(entry, rng) for make, entry in zip(makers, large)]
    return ops


def _delta_round(rng: random.Random) -> list[Op]:
    return [_delta_state(kind, band, blocks, rng) for band, pairs in DELTA_BANDS.items() for kind, blocks in pairs]


ROUNDS = {"integer": _integer_round, "graded": _graded_round, "delta": _delta_round}


def warmup(workload: str) -> list[Op]:
    """Small ops that load every code path and cache a workload uses: for
    graded, the cyclotomic tables of root orders 1..6."""
    rng = random.Random(0)
    if workload == "integer":
        return [_dims_op("warmup", [2, 4, 6]), _resolution(2, 12, rng), _magic(3)]
    if workload == "graded":
        entries = [Entry("warmup", "C2", "trivial"), Entry("warmup", "", "pauli")]
        entries += [Entry("warmup", "", f"bilinear:{m}x{m}") for m in (2, 3)]
        entries += [Entry("warmup", "C5", "coboundary:5"), Entry("warmup", "C2xC3", "coboundary:6")]
        return [make(e, rng) for e in entries for make in (_twisted_group_op, _extract_torsion_op)]
    return [_delta_state(kind, "warmup", [1, 2], rng) for kind in ("canonical", "trace", "rotated")]


def generate(workload: str, seed: int, rounds: int) -> list[Op]:
    """The op list of a run: `rounds` rounds, each shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    for _ in range(rounds):
        batch = ROUNDS[workload](rng)
        rng.shuffle(batch)
        ops += batch
    return ops
