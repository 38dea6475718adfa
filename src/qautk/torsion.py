"""Group-graded algebras, 2-cocycles, and twisted group algebras.

A finite dimensional algebra graded by a discrete group with one-dimensional
ergodic components is, after normalizing the homogeneous basis to unitaries,
a twisted group algebra of its support subgroup: the defect of the product
against the group law is a normalized U(1)-valued 2-cocycle.  This module
builds twisted group algebras from cocycle data, recovers (subgroup, cocycle)
pairs from graded algebras, and computes Wedderburn block sizes.

The ``GradedAlgebra`` constructor checks sizes, index ranges, grading and
dropped zeros; ``validate``, which ``from_dict`` runs on JSON input, checks
the involution and associativity.  A twisted group algebra inherits those
axioms from the cocycle identity that ``Cocycle`` checks on construction.

The block sizes come from two trace forms on the center: Tr_A(L_xy) and
Tr_Z(L_xy|_Z), which in the basis of central primitive idempotents read
diag(m_i^2) and the identity.  Ranks of their combinations count the blocks
of each size exactly, and every count is certified against the exact center
dimension and the algebra dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .cyclotomic import Cyclotomic, cyclotomic_from_json, cyclotomic_to_json
from .exact_linalg import _row_reduce


class GroupTableError(ValueError):
    """A Cayley table that is not a group law."""


class CocycleError(ValueError):
    """A table violating the 2-cocycle identity or normalization."""


class GradedAlgebraError(ValueError):
    """Structure constants violating grading, involution, or associativity."""


class NonErgodicError(ValueError):
    """The identity-graded component is not one-dimensional."""


class TorsionExtractionError(ValueError):
    """The graded algebra does not satisfy the extraction hypotheses."""


class NonSemisimpleError(ValueError):
    """Degenerate trace form; carries a radical witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def _json_int(x) -> int:
    """An integer read from JSON; booleans, floats and strings are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# Finite groups by Cayley table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteGroup:
    """A finite group presented by its full multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.  The
    group axioms are checked on construction.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.table)
        if n == 0:
            raise GroupTableError("empty group table")
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupTableError("table is not square over element indices")
        if not (0 <= self.identity < n):
            raise GroupTableError("identity index out of range")
        e = self.identity
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise GroupTableError(f"element {e} is not an identity")
        for i in range(n):
            if e not in self.table[i]:
                raise GroupTableError(f"element {i} has no inverse")
        for i in range(n):
            for j in range(n):
                tij = self.table[i][j]
                for kk in range(n):
                    if self.table[tij][kk] != self.table[i][self.table[j][kk]]:
                        raise GroupTableError(
                            f"associativity fails at ({i}, {j}, {kk})"
                        )
        if self.labels and len(self.labels) != n:
            raise GroupTableError("one label per element required")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.table[a].index(self.identity)

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else f"g{a}"

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[i][j] == self.table[j][i] for i in range(n) for j in range(n))

    def centralizer(self, s: int) -> list[int]:
        return [g for g in range(self.order) if self.mul(g, s) == self.mul(s, g)]

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        seen = set()
        classes = []
        for s in range(self.order):
            if s in seen:
                continue
            orbit = {self.mul(self.mul(g, s), self.inv(g)) for g in range(self.order)}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        return classes

    # -- constructors ---------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(table, 0, tuple(f"r{i}" for i in range(n)))

    @classmethod
    def direct_product(cls, g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        ng, nh = g.order, h.order

        def enc(a: int, b: int) -> int:
            return a * nh + b

        table = tuple(
            tuple(
                enc(g.mul(a1, a2), h.mul(b1, b2))
                for a2 in range(ng)
                for b2 in range(nh)
            )
            for a1 in range(ng)
            for b1 in range(nh)
        )
        labels = tuple(
            f"({g.label(a)},{h.label(b)})" for a in range(ng) for b in range(nh)
        )
        return cls(table, enc(g.identity, h.identity), labels)

    @classmethod
    def klein_four(cls) -> "FiniteGroup":
        c2 = cls.cyclic(2)
        return cls.direct_product(c2, c2)

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """Symmetries of the n-gon, order 2n; element (r, f) = rotation^r flip^f."""
        if n < 1:
            raise GroupTableError("dihedral parameter must be positive")
        size = 2 * n

        def enc(r: int, f: int) -> int:
            return r % n + n * (f % 2)

        def mul(x: int, y: int) -> int:
            r1, f1 = x % n, x // n
            r2, f2 = y % n, y // n
            if f1 == 0:
                return enc(r1 + r2, f2)
            return enc(r1 - r2, f1 + f2)

        table = tuple(tuple(mul(x, y) for y in range(size)) for x in range(size))
        return cls(table, 0)

    @classmethod
    def quaternion(cls) -> "FiniteGroup":
        """Q8 = {+-1, +-i, +-j, +-k} with indices (unit, sign)."""
        # elements 0..7: 1, i, j, k, -1, -i, -j, -k
        base = {
            (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
            (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
            (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
            (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
        }

        def mul(x: int, y: int) -> int:
            ux, sx = x % 4, x // 4
            uy, sy = y % 4, y // 4
            uz, extra = base[(ux, uy)]
            return uz + 4 * ((sx + sy + extra) % 2)

        table = tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))
        labels = ("1", "i", "j", "k", "-1", "-i", "-j", "-k")
        return cls(table, 0, labels)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}

        def compose(p, q):
            # apply q first, then p
            return tuple(p[q[i]] for i in range(n))

        table = tuple(
            tuple(index[compose(p, q)] for q in perms) for p in perms
        )
        labels = tuple("".join(str(x) for x in p) for p in perms)
        return cls(table, index[tuple(range(n))], labels)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "order": self.order,
            "identity": self.identity,
            "table": [list(row) for row in self.table],
        }
        if self.labels:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "FiniteGroup":
        try:
            table = tuple(tuple(_json_int(x) for x in row) for row in data["table"])
            identity = _json_int(data.get("identity", 0))
            labels = tuple(str(x) for x in data.get("labels", ()))
            order = _json_int(data.get("order", len(table)))
        except (KeyError, TypeError, ValueError) as exc:
            raise GroupTableError(f"malformed group data: {exc}") from None
        if order != len(table):
            raise GroupTableError(f"group order {order} does not match a table of {len(table)} rows")
        return cls(table, identity, labels)


# ---------------------------------------------------------------------------
# Normalized 2-cocycles with root-of-unity values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cocycle:
    """omega(s, t) = zeta_root_order ** table[s][t], normalized at the identity.

    The cocycle identity omega(s,t) omega(st,u) = omega(t,u) omega(s,tu) is
    checked on construction as exponent arithmetic.
    """

    group: FiniteGroup
    root_order: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.group.order
        m = self.root_order
        if m < 1:
            raise CocycleError("root order must be positive")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise CocycleError("cocycle table must be order x order")
        for row in self.table:
            for x in row:
                if not (0 <= x < m):
                    raise CocycleError(f"exponent {x} out of range for root order {m}")
        e = self.group.identity
        for s in range(n):
            if self.table[e][s] or self.table[s][e]:
                raise CocycleError("cocycle is not normalized at the identity")
        g = self.group
        for s in range(n):
            for t in range(n):
                st = g.mul(s, t)
                for u in range(n):
                    lhs = (self.table[s][t] + self.table[st][u]) % m
                    rhs = (self.table[t][u] + self.table[s][g.mul(t, u)]) % m
                    if lhs != rhs:
                        raise CocycleError(f"cocycle identity fails at ({s}, {t}, {u})")

    def value(self, s: int, t: int) -> int:
        return self.table[s][t]

    @classmethod
    def trivial(cls, group: FiniteGroup, root_order: int = 1) -> "Cocycle":
        n = group.order
        return cls(group, root_order, tuple((0,) * n for _ in range(n)))

    @classmethod
    def coboundary(cls, group: FiniteGroup, root_order: int, beta: Sequence[int]) -> "Cocycle":
        """The coboundary of a 1-cochain with beta(identity) = 0."""
        if len(beta) != group.order:
            raise CocycleError("one exponent per group element required")
        if beta[group.identity] % root_order:
            raise CocycleError("beta must vanish at the identity")
        n = group.order
        table = tuple(
            tuple(
                (beta[s] + beta[t] - beta[group.mul(s, t)]) % root_order
                for t in range(n)
            )
            for s in range(n)
        )
        return cls(group, root_order, table)

    @classmethod
    def bilinear_on_product(cls, a: int, b: int) -> "Cocycle":
        """On C_a x C_b: omega((i1,j1),(i2,j2)) = zeta_g^(j1 i2), g = gcd(a, b).

        Bilinear, hence a cocycle; nontrivial whenever g > 1.
        """
        g = math.gcd(a, b)
        group = FiniteGroup.direct_product(FiniteGroup.cyclic(a), FiniteGroup.cyclic(b))
        m = max(g, 1)
        n = group.order

        def dec(x: int) -> tuple[int, int]:
            return x // b, x % b

        table = []
        for s in range(n):
            _, j1 = dec(s)
            table.append(tuple((j1 * dec(t)[0]) % m for t in range(n)))
        return cls(group, m, tuple(table))

    @classmethod
    def pauli(cls) -> "Cocycle":
        """The Klein four-group cocycle realized by the Pauli matrices in M_2.

        Elements (0,0),(0,1),(1,0),(1,1) carry 1, sigma_x, sigma_y, sigma_z;
        exponents are powers of i read off the Pauli products.
        """
        group = FiniteGroup.klein_four()
        table = (
            (0, 0, 0, 0),
            (0, 0, 1, 3),
            (0, 3, 0, 1),
            (0, 1, 3, 0),
        )
        return cls(group, 4, table)

    def to_dict(self) -> dict:
        return {
            "group": self.group.to_dict(),
            "root_order": self.root_order,
            "values": [list(row) for row in self.table],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Cocycle":
        try:
            group = FiniteGroup.from_dict(data["group"])
            m = _json_int(data["root_order"])
            table = tuple(tuple(_json_int(x) for x in row) for row in data["values"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CocycleError(f"malformed cocycle data: {exc}") from None
        return cls(group, m, table)


def regular_class_count(cocycle: Cocycle) -> int:
    """Number of conjugacy classes on which the cocycle is symmetric over the
    centralizer; equals the Wedderburn block count of the twisted algebra."""
    g = cocycle.group
    count = 0
    for cls_ in g.conjugacy_classes():
        if all(
            cocycle.value(s, z) == cocycle.value(z, s)
            for s in cls_
            for z in g.centralizer(s)
        ):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Graded algebras by structure constants
# ---------------------------------------------------------------------------

SparseVec = dict[int, Cyclotomic]


@dataclass(frozen=True)
class GradedAlgebra:
    """Finite dimensional *-algebra with basis graded by a finite group.

    ``mult[i][j]`` lists (basis index, coefficient) pairs for the product of
    basis elements i and j; ``star[i]`` likewise for the involution.
    Coefficients live in Q(zeta_root_order).  Construction verifies the
    sizes and index ranges, that no coefficient is zero, that the grading is
    multiplicative and that the involution maps the g-component to the
    g^-1-component.  ``validate`` verifies the rest of the axioms.
    """

    group: FiniteGroup
    basis_labels: tuple[str, ...]
    grading: tuple[int, ...]
    root_order: int
    mult: tuple[tuple[tuple[tuple[int, Cyclotomic], ...], ...], ...]
    star: tuple[tuple[tuple[int, Cyclotomic], ...], ...]

    def __post_init__(self):
        n = len(self.basis_labels)
        if len(self.grading) != n or len(self.mult) != n or len(self.star) != n:
            raise GradedAlgebraError("basis, grading, mult, and star sizes differ")
        for g in self.grading:
            if not (0 <= g < self.group.order):
                raise GradedAlgebraError("grading index out of range")
        for i in range(n):
            if len(self.mult[i]) != n:
                raise GradedAlgebraError("mult table is not square")
            for j in range(n):
                target = self.group.mul(self.grading[i], self.grading[j])
                for z, c in self.mult[i][j]:
                    if not 0 <= z < n:
                        raise GradedAlgebraError(f"mult[{i}][{j}] names basis index {z} outside 0..{n - 1}")
                    if c.is_zero():
                        raise GradedAlgebraError("zero coefficients must be dropped")
                    if self.grading[z] != target:
                        raise GradedAlgebraError(
                            f"product of basis {i}, {j} leaves its graded component"
                        )
            inv = self.group.inv(self.grading[i])
            for z, c in self.star[i]:
                if not 0 <= z < n:
                    raise GradedAlgebraError(f"star[{i}] names basis index {z} outside 0..{n - 1}")
                if c.is_zero():
                    raise GradedAlgebraError("zero coefficients must be dropped")
                if self.grading[z] != inv:
                    raise GradedAlgebraError(
                        f"involution of basis {i} leaves the inverse component"
                    )

    # -- sparse-vector helpers ------------------------------------------------

    def vec_of_basis(self, i: int) -> SparseVec:
        return {i: Cyclotomic.one(self.root_order)}

    def multiply_vectors(self, x: SparseVec, y: SparseVec) -> SparseVec:
        return _combine((a * b, self.mult[i][j]) for i, a in x.items() for j, b in y.items())

    def star_vector(self, x: SparseVec) -> SparseVec:
        return _combine((a.conjugate(), self.star[i]) for i, a in x.items())

    def validate(self) -> None:
        """Check, in this order, that the involution is involutive and
        anti-multiplicative and that the product is associative."""
        n = len(self.basis_labels)
        mult = self.mult
        one = Cyclotomic.one(self.root_order)
        stars = [_combine([(one, cell)]) for cell in self.star]
        for i in range(n):
            if self.star_vector(stars[i]) != {i: one}:
                raise GradedAlgebraError(f"involution is not involutive on basis {i}")
        for i in range(n):
            for j in range(n):
                # (e_i e_j)* = sum of conj(c) e_z* over the cell, against e_j* e_i*
                lhs = _combine((c.conjugate(), self.star[z]) for z, c in mult[i][j])
                if lhs != self.multiply_vectors(stars[j], stars[i]):
                    raise GradedAlgebraError(
                        f"involution is not anti-multiplicative on basis ({i}, {j})"
                    )
        for i in range(n):
            for j in range(n):
                ij = mult[i][j]
                for kk in range(n):
                    # (e_i e_j) e_k against e_i (e_j e_k), expanded over the cells
                    lhs = _combine((c, mult[z][kk]) for z, c in ij)
                    rhs = _combine((c, mult[i][y]) for y, c in mult[j][kk])
                    if lhs != rhs:
                        raise GradedAlgebraError(
                            f"product is not associative at ({i}, {j}, {kk})"
                        )

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    def component(self, g: int) -> list[int]:
        return [i for i, gi in enumerate(self.grading) if gi == g]

    def to_dict(self) -> dict:
        return {
            "group": self.group.to_dict(),
            "basis": list(self.basis_labels),
            "grading": list(self.grading),
            "root_order": self.root_order,
            "mult": [
                [[[z, cyclotomic_to_json(c)] for z, c in cell] for cell in row]
                for row in self.mult
            ],
            "star": [[[z, cyclotomic_to_json(c)] for z, c in cell] for cell in self.star],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GradedAlgebra":
        try:
            group = FiniteGroup.from_dict(data["group"])
            order = _json_int(data["root_order"])
            basis = tuple(str(x) for x in data["basis"])
            grading = tuple(_json_int(x) for x in data["grading"])
            mult = tuple(
                tuple(
                    tuple((_json_int(z), cyclotomic_from_json(order, c)) for z, c in cell)
                    for cell in row
                )
                for row in data["mult"]
            )
            star = tuple(
                tuple((_json_int(z), cyclotomic_from_json(order, c)) for z, c in cell)
                for cell in data["star"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GradedAlgebraError(f"malformed graded algebra data: {exc}") from None
        algebra = cls(
            group=group,
            basis_labels=basis,
            grading=grading,
            root_order=order,
            mult=mult,
            star=star,
        )
        algebra.validate()
        return algebra


def _combine(terms) -> SparseVec:
    """Sum of a * cell over (a, cell) pairs, where a cell lists (basis index,
    coefficient) pairs; zero coefficients are dropped."""
    acc: SparseVec = {}
    for a, cell in terms:
        for z, c in cell:
            ac = a * c
            cur = acc.get(z)
            acc[z] = ac if cur is None else cur + ac
    return {z: c for z, c in acc.items() if c}


def is_ergodic(b: GradedAlgebra) -> bool:
    """Ergodic means the identity-graded component is spanned by the unit."""
    return len(b.component(b.group.identity)) == 1


def twisted_group_algebra(omega: Cocycle) -> GradedAlgebra:
    """C*_omega(H) on the group H of omega: basis d_s with d_s d_t = omega(s,t) d_st
    and d_s* = omega(s, s^-1)^-1 d_(s^-1), graded by H.  It is not validated:
    the cocycle identity implies every axiom that ``validate`` checks."""
    h = omega.group
    m = omega.root_order
    n = h.order
    mult = tuple(
        tuple(((h.mul(s, t), Cyclotomic.root(m, omega.value(s, t))),) for t in range(n)) for s in range(n)
    )
    star = tuple(
        ((h.inv(s), Cyclotomic.root(m, -omega.value(s, h.inv(s)))),) for s in range(n)
    )
    return GradedAlgebra(
        group=h,
        basis_labels=tuple(f"d[{h.label(s)}]" for s in range(n)),
        grading=tuple(range(n)),
        root_order=m,
        mult=mult,
        star=star,
    )


# ---------------------------------------------------------------------------
# Extraction of (subgroup, cocycle) from an ergodic graded algebra
# ---------------------------------------------------------------------------

def extract_torsion_data(b: GradedAlgebra) -> tuple[FiniteGroup, Cocycle]:
    """Recover the support subgroup and a representative cocycle.

    Requires the identity component to be one-dimensional (ergodicity) and
    every nonzero component to be one-dimensional and spanned by an element
    with b* b a positive multiple of the unit.  The returned cocycle is the
    one of the normalized unitaries; its class invariants, not the table
    itself, are canonical.
    """
    if not is_ergodic(b):
        raise NonErgodicError(
            f"identity component has dimension {len(b.component(b.group.identity))}"
        )
    g = b.group
    e = g.identity
    components: dict[int, list[int]] = {}
    for idx, gi in enumerate(b.grading):
        components.setdefault(gi, []).append(idx)
    for s, idxs in components.items():
        if len(idxs) > 1:
            raise TorsionExtractionError(
                f"component of {g.label(s)} has dimension {len(idxs)}"
            )

    # normalize the identity component to the unit
    e_idx = components[e][0]
    be = b.vec_of_basis(e_idx)
    square = b.multiply_vectors(be, be)
    c = square.get(e_idx)
    if c is None or c.is_zero():
        raise TorsionExtractionError("identity component squares to zero")
    unit = {e_idx: c.inverse()}
    check = b.multiply_vectors(unit, unit)
    if check != unit:
        raise TorsionExtractionError("identity component does not contain a unit")

    support = sorted(components)
    pos = {s: i for i, s in enumerate(support)}
    for s in support:
        if g.inv(s) not in pos:
            raise TorsionExtractionError(f"support not closed under inverse at {g.label(s)}")
        for t in support:
            if g.mul(s, t) not in pos:
                raise TorsionExtractionError(
                    f"support not closed under product at ({g.label(s)}, {g.label(t)})"
                )

    reps: dict[int, SparseVec] = {
        s: (unit if s == e else b.vec_of_basis(components[s][0])) for s in support
    }

    # b* b must be a positive multiple of the unit: the invertibility check
    lam: dict[int, Cyclotomic] = {}
    for s in support:
        prod = b.multiply_vectors(b.star_vector(reps[s]), reps[s])
        if set(prod) != {e_idx}:
            raise TorsionExtractionError(f"{g.label(s)}* {g.label(s)} is not scalar")
        value = prod[e_idx] * c  # coefficient relative to the unit
        if value != value.conjugate() or complex(value).real <= 0:
            raise TorsionExtractionError(
                f"component of {g.label(s)} is not spanned by an invertible: "
                f"b* b = {value} times the unit"
            )
        lam[s] = value

    # one inverse per support element, of its rep's single coefficient and of lam
    inv_rep = {s: [(idx, c.inverse()) for idx, c in reps[s].items()][0] for s in support}
    inv_lam = {s: value.inverse() for s, value in lam.items()}

    m_big = 2 * (b.root_order if b.root_order % 2 == 0 else 2 * b.root_order)
    table = [[0] * len(support) for _ in support]
    for s in support:
        for t in support:
            st = g.mul(s, t)
            prod = b.multiply_vectors(reps[s], reps[t])
            tgt_idx, inv_coeff = inv_rep[st]
            gamma = prod.get(tgt_idx)
            if gamma is None:
                raise TorsionExtractionError(
                    f"product of components {g.label(s)}, {g.label(t)} vanishes"
                )
            gamma = gamma * inv_coeff
            # omega = gamma * sqrt(lam_st / (lam_s lam_t)) must be a root of
            # unity; its square zeta^j is read off exactly, which leaves the
            # two square roots zeta^(j/2) and -zeta^(j/2) for the sign test
            j = (gamma * gamma * lam[st] * inv_lam[s] * inv_lam[t]).lift(m_big).root_exponent()
            matches = []
            if j is not None and j % 2 == 0:
                for a in (j // 2, j // 2 + m_big // 2):
                    ratio = complex(gamma) * complex(Cyclotomic.root(m_big, -a))
                    if ratio.real > 0:
                        matches.append(a)
            if len(matches) != 1:
                raise TorsionExtractionError(
                    f"normalized cocycle value at ({g.label(s)}, {g.label(t)}) "
                    "is not a root of unity"
                )
            table[pos[s]][pos[t]] = matches[0]

    sub_table = tuple(
        tuple(pos[g.mul(s, t)] for t in support) for s in support
    )
    subgroup = FiniteGroup(
        sub_table, pos[e], tuple(g.label(s) for s in support)
    )
    cocycle = Cocycle(subgroup, m_big, tuple(tuple(row) for row in table))
    return subgroup, cocycle


# ---------------------------------------------------------------------------
# Wedderburn block decomposition
# ---------------------------------------------------------------------------

def _kernel(rows: Sequence[Sequence[Cyclotomic]], ncols: int, order: int) -> list[tuple[int, SparseVec]]:
    """Kernel basis read off the reduced rows, as (free column f, vector z)
    pairs: each z is 1 at its own f and 0 at every other free column."""
    reduced, pivots = _row_reduce(rows)
    one = Cyclotomic.one(order)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        z = {f: one}
        for row, p in zip(reduced, pivots):
            if row[f]:
                z[p] = -row[f]
        basis.append((f, z))
    return basis


def _center_basis(b: GradedAlgebra) -> list[tuple[int, SparseVec]]:
    """Kernel basis of the commutation system e_i x = x e_i over all basis i.

    Row z of the system for e_i holds, at column j, the e_z-coefficient of
    e_i e_j - e_j e_i.  Only its distinct nonzero rows are reduced: the
    reduced echelon form, and so the kernel basis, depends only on the row
    space.
    """
    n = b.dim
    zero = Cyclotomic.zero(b.root_order)
    rows: dict[tuple[Cyclotomic, ...], None] = {}
    for i in range(n):
        commutator = [[zero] * n for _ in range(n)]
        for j in range(n):
            for z, c in b.mult[i][j]:
                commutator[z][j] = commutator[z][j] + c
            for z, c in b.mult[j][i]:
                commutator[z][j] = commutator[z][j] - c
        for row in commutator:
            if any(row):
                rows.setdefault(tuple(row))
    return _kernel(list(rows), n, b.root_order)


def center_dimension(b: GradedAlgebra) -> int:
    """Exact dimension of the center, by solving xz = zx for all basis z."""
    return len(_center_basis(b))


def _left_traces(b: GradedAlgebra, basis: list[tuple[int, SparseVec]]) -> list[Cyclotomic]:
    """theta[j] = sum over (f, z) in basis of the f-coordinate of e_j z.

    For a basis in the form ``_kernel`` returns, the f-coordinate of an
    element of the span is its coefficient on z, so theta(x) is the trace of
    left multiplication by x on the span whenever x preserves it.
    """
    zero = Cyclotomic.zero(b.root_order)
    theta = []
    for j in range(b.dim):
        acc = zero
        for f, z in basis:
            for i, x in z.items():
                for w, c in b.mult[j][i]:
                    if w == f:
                        acc = acc + x * c
        theta.append(acc)
    return theta


def _functional_gram(b: GradedAlgebra, theta: list[Cyclotomic]) -> list[list[Cyclotomic]]:
    """The bilinear form (e_i, e_j) -> theta(e_i e_j) of a linear functional."""
    zero = Cyclotomic.zero(b.root_order)
    return [
        [sum((c * theta[z] for z, c in cell), zero) for cell in row] for row in b.mult
    ]


def _restrict(form: list[list[Cyclotomic]], vecs: list[SparseVec], zero: Cyclotomic):
    """Z^T F Z, for the matrix Z whose columns are the sparse vectors vecs."""

    def dot(z: SparseVec, dense: list[Cyclotomic]) -> Cyclotomic:
        return sum((y * dense[j] for j, y in z.items()), zero)

    columns = [[dot(z, row) for row in form] for z in vecs]  # F z
    return [[dot(za, col) for col in columns] for za in vecs]


def block_decomposition(b: GradedAlgebra) -> tuple[int, ...]:
    """Wedderburn block sizes (m_1, ..., m_r), sorted ascending, exactly.

    Semisimplicity is certified by a nondegenerate trace form Tr_A(L_xy);
    otherwise NonSemisimpleError carries a radical element as witness.  On a
    basis z_1..z_r of the center Z, two forms are compared:
    B_A[a][b] = Tr_A(L_{z_a z_b}) and B_Z[a][b] = Tr_Z(L_{z_a z_b}|_Z).  In
    the basis of central primitive idempotents they are diag(m_i^2) and the
    identity, so by congruence exactly r - rank(B_A - m^2 B_Z) blocks have
    size m.  Every rank is taken over Q(zeta); no eigenvalue, prime or random
    element is involved.  The counts are certified to sum to r and to give
    sum m_i^2 = dim; a failure there is an internal error (RuntimeError).
    """
    n = b.dim
    order = b.root_order
    zero = Cyclotomic.zero(order)
    one = Cyclotomic.one(order)
    trace_form = _functional_gram(b, _left_traces(b, [(i, {i: one}) for i in range(n)]))
    radical = _kernel(trace_form, n, order)
    if radical:
        _, witness = radical[0]
        raise NonSemisimpleError(
            "trace form is degenerate: algebra is not semisimple",
            {b.basis_labels[i]: str(c) for i, c in sorted(witness.items())},
        )
    center = _center_basis(b)
    vecs = [z for _, z in center]
    b_a = _restrict(trace_form, vecs, zero)
    b_z = _restrict(_functional_gram(b, _left_traces(b, center)), vecs, zero)
    r = len(center)
    blocks: list[int] = []
    for m in range(1, math.isqrt(n) + 1):
        if len(blocks) == r:
            break  # every larger size has count 0
        diff = [[x - y.scale(m * m) for x, y in zip(ra, rz)] for ra, rz in zip(b_a, b_z)]
        _, pivots = _row_reduce(diff)
        blocks.extend([m] * (r - len(pivots)))
    if len(blocks) != r or sum(m * m for m in blocks) != n:
        raise RuntimeError(
            f"block sizes {blocks} fail the certificate: center dimension {r}, dim {n}"
        )
    return tuple(blocks)
