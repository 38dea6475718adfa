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
Associativity of a group table, of a cocycle and of structure constants is
proved by Light's test (Clifford and Preston, The Algebraic Theory of
Semigroups I, 1961, section 1.2): (x s) y = x (s y) for all basis x, y and
every s in a generating set S, n^2 |S| checks instead of n^3 (see
``_generating_set``).  All linear algebra is one sparse exact elimination.
When every cell is one root of unity times one basis element, as in a
twisted group algebra, ``validate`` and ``extract_torsion_data`` run on an
integer table of (index, exponent mod m) pairs (``_monomial_table``).

The block sizes come from two trace forms on the center: Tr_A(L_xy) and
Tr_Z(L_xy|_Z), which in the basis of central primitive idempotents read
diag(m_i^2) and the identity.  Ranks of their combinations count the blocks
of each size exactly, and every count is certified against the exact center
dimension and the algebra dimension.  Tr_A(L_x) vanishes off the identity
component, so Tr_A(L_xy) is built only where deg x deg y = e (``_trace_form``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .cyclotomic import Cyclotomic, cyclotomic_from_json, cyclotomic_to_json
from .exact_linalg import _Echelon, _row_reduce


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


def _generating_set(n: int, unit, times, insert) -> list[int]:
    """Basis indices S whose left-normed products span everything, for
    Light's associativity test.

    ``unit(i)`` is basis element i, ``times(x, s)`` is x times basis
    element s, and ``insert(x)`` adds x to the closure and says whether it
    was new: a group element not seen yet, or a vector that raised the rank.
    Going through the indices in order, i joins S when its basis element is
    not yet in the closure, which is then closed again under right
    multiplication by S, until it holds n independent elements.  Every
    element the closure holds is a left-normed product (..(s1 s2)..) sk of
    elements of S, and every basis element is in it at the end.  If the
    product never helps (the zero product), S is every index.

    Why (x s) y = x (s y) for all basis x, y and all s in S proves
    associativity: the middle nucleus N = {a : (xa)y = x(ay) for all x, y}
    is a subspace (a subset, for a table), and closed under products, since
    for a, b in N

        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).

    So S in N puts every left-normed product of S in N, hence everything.
    """
    gens: list[int] = []
    words: list = []
    for i in range(n):
        if len(words) == n:
            break
        x = unit(i)
        if not insert(x):
            continue
        pending = [(w, i) for w in words]
        gens.append(i)
        words.append(x)
        pending.extend((x, s) for s in gens)
        while pending and len(words) < n:
            w, s = pending.pop()
            y = times(w, s)
            if insert(y):
                words.append(y)
                pending.extend((y, t) for t in gens)
    return gens


def _group_generators(table: Sequence[Sequence[int]]) -> list[int]:
    """``_generating_set`` of a Cayley table: for a group, each new index at
    least doubles the subgroup generated, so |S| <= 1 + log2(order)."""
    seen: set[int] = set()

    def insert(x: int) -> bool:
        if x in seen:
            return False
        seen.add(x)
        return True

    return _generating_set(len(table), lambda i: i, lambda x, s: table[x][s], insert)


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
    group axioms are checked on construction; associativity by Light's test
    on a generating set (see ``_generating_set``), and a failure names the
    first failing (i, j, k) with j in that set.
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
        table = self.table
        gens = _group_generators(table)
        for i in range(n):
            ti = table[i]
            for j in gens:
                tij = table[ti[j]]
                for kk, jk in enumerate(table[j]):
                    if tij[kk] != ti[jk]:
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
    checked on construction as exponent arithmetic, for t in the group's
    generating set S (see ``_generating_set``).  That suffices: the identity
    at (s, t, u) is associativity (d_s d_t) d_u = d_s (d_t d_u) of the
    twisted group algebra, d_s d_t = omega(s,t) d_st, and the left-normed
    products of the d_t, t in S, are nonzero multiples of every d_g.  A
    failure names the first failing (s, t, u) with t in S.
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
        g = self.group.table
        w = self.table
        gens = _group_generators(g)
        for s in range(n):
            for t in gens:
                st = g[s][t]
                for u in range(n):
                    lhs = (w[s][t] + w[st][u]) % m
                    rhs = (w[t][u] + w[s][g[t][u]]) % m
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
        anti-multiplicative and that the product is associative.

        Associativity is Light's test: (e_i e_j) e_k = e_i (e_j e_k) for j in
        a generating set S whose left-normed products span the algebra (see
        ``_generating_set``; their rank comes from one sparse elimination),
        n^2 |S| checks in all.  A failure names the first failing (i, j, k)
        with j in S.  On a monomial table (see ``_monomial_table``) the checks
        run in exponent arithmetic, with the same order and witnesses.
        """
        table = _monomial_table(self)
        if table is None:
            _validate_cells(self)
        else:
            _validate_monomial(self, *table)

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


def _validate_cells(b: GradedAlgebra) -> None:
    """``validate`` on any structure constants, in ``Cyclotomic`` arithmetic."""
    n = b.dim
    mult = b.mult
    one = Cyclotomic.one(b.root_order)
    stars = [_combine([(one, cell)]) for cell in b.star]
    for i in range(n):
        if b.star_vector(stars[i]) != {i: one}:
            raise GradedAlgebraError(f"involution is not involutive on basis {i}")
    for i in range(n):
        for j in range(n):
            # (e_i e_j)* = sum of conj(c) e_z* over the cell, against e_j* e_i*
            lhs = _combine((c.conjugate(), b.star[z]) for z, c in mult[i][j])
            if lhs != b.multiply_vectors(stars[j], stars[i]):
                raise GradedAlgebraError(f"involution is not anti-multiplicative on basis ({i}, {j})")
    gens = _algebra_generators(mult, b.root_order)
    for i in range(n):
        for j in gens:
            ij = mult[i][j]
            for kk in range(n):
                # (e_i e_j) e_k against e_i (e_j e_k), expanded over the cells
                lhs = _combine((c, mult[z][kk]) for z, c in ij)
                rhs = _combine((c, mult[i][y]) for y, c in mult[j][kk])
                if lhs != rhs:
                    raise GradedAlgebraError(f"product is not associative at ({i}, {j}, {kk})")


def _monomial_table(b: GradedAlgebra):
    """(index, exp, star_index, star_exp) with e_i e_j = zeta^exp[i][j]
    e_index[i][j] and e_i* = zeta^star_exp[i] e_star_index[i], zeta =
    zeta_root_order, when every mult and star cell is one term whose
    coefficient is a root of unity; None for any other algebra.  Exact,
    since zeta^a = zeta^b exactly when a = b mod root_order."""

    def read(cells):
        pairs = [(cell[0][0], cell[0][1].root_exponent()) if len(cell) == 1 else (0, None) for cell in cells]
        if all(a is not None for _, a in pairs):
            return [z for z, _ in pairs], [a for _, a in pairs]

    star = read(b.star)
    rows = [read(row) for row in b.mult] if star else [None]
    return None if None in rows else ([z for z, _ in rows], [a for _, a in rows], *star)


def _validate_monomial(b: GradedAlgebra, index, exp, star_index, star_exp) -> None:
    """``validate`` on a monomial table, comparing indices and exponents mod
    m: the checks, order and witnesses of ``_validate_cells``.

    S is the same: every left-normed word of ``_algebra_generators`` is a
    root of unity times one basis element, so it raises the rank exactly
    when its index is new, and the set closure of ``_group_generators`` on
    the index table picks the same generators.
    """
    n, m = b.dim, b.root_order
    for i in range(n):
        # (e_i*)* = zeta^(star_exp[s] - star_exp[i]) e_star_index[s], s = star_index[i]
        s = star_index[i]
        if star_index[s] != i or (star_exp[s] - star_exp[i]) % m:
            raise GradedAlgebraError(f"involution is not involutive on basis {i}")
    for i in range(n):
        si, ai = star_index[i], star_exp[i]
        for j in range(n):
            # (e_i e_j)* = zeta^(star_exp[p] - exp[i][j]) e_star_index[p], p = index[i][j],
            # against e_j* e_i* = zeta^(star_exp[j] + ai + exp[sj][si]) e_index[sj][si]
            p, sj = index[i][j], star_index[j]
            if star_index[p] != index[sj][si] or (star_exp[p] - exp[i][j] - star_exp[j] - ai - exp[sj][si]) % m:
                raise GradedAlgebraError(f"involution is not anti-multiplicative on basis ({i}, {j})")
    gens = _group_generators(index)
    for i in range(n):
        pi, ei = index[i], exp[i]
        for j in gens:
            pz, ez = index[pi[j]], exp[pi[j]]
            pj, ej, a = index[j], exp[j], ei[j]
            for kk in range(n):
                # (e_i e_j) e_k = zeta^(a + ez[k]) e_pz[k] against e_i (e_j e_k) = zeta^(ej[k] + ei[y]) e_pi[y]
                y = pj[kk]
                if pz[kk] != pi[y] or (a + ez[kk] - ej[kk] - ei[y]) % m:
                    raise GradedAlgebraError(f"product is not associative at ({i}, {j}, {kk})")


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


def _algebra_generators(mult, order: int) -> list[int]:
    """``_generating_set`` of structure constants over Q(zeta_order); the
    rank of the closure comes from one sparse elimination."""
    one = Cyclotomic.one(order)
    return _generating_set(
        len(mult),
        lambda i: {i: one},
        lambda x, s: _combine((c, mult[z][s]) for z, c in x.items()),
        _Echelon().insert,
    )


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
    itself, are canonical.  On a monomial table (see ``_monomial_table``)
    it runs in exponent arithmetic, with the same results and messages.
    """
    table = _monomial_table(b)
    return _extract_cells(b) if table is None else _extract_monomial(b, *table)


def _graded_support(b: GradedAlgebra) -> dict[int, int]:
    """The basis index spanning each nonzero component, by ascending group
    element, once b is ergodic, its components at most one-dimensional and
    its support closed under inverse and product."""
    g = b.group
    if not is_ergodic(b):
        raise NonErgodicError(f"identity component has dimension {len(b.component(g.identity))}")
    components: dict[int, list[int]] = {}
    for idx, gi in enumerate(b.grading):
        components.setdefault(gi, []).append(idx)
    for s, idxs in components.items():
        if len(idxs) > 1:
            raise TorsionExtractionError(f"component of {g.label(s)} has dimension {len(idxs)}")
    support = sorted(components)
    for s in support:
        if g.inv(s) not in components:
            raise TorsionExtractionError(f"support not closed under inverse at {g.label(s)}")
        for t in support:
            if g.mul(s, t) not in components:
                raise TorsionExtractionError(f"support not closed under product at ({g.label(s)}, {g.label(t)})")
    return {s: components[s][0] for s in support}


def _torsion_pair(g: FiniteGroup, support: list[int], m_big: int, values) -> tuple[FiniteGroup, Cocycle]:
    """The support subgroup and the cocycle with exponent values[s][t]."""
    pos = {s: i for i, s in enumerate(support)}
    sub_table = tuple(tuple(pos[g.mul(s, t)] for t in support) for s in support)
    subgroup = FiniteGroup(sub_table, pos[g.identity], tuple(g.label(s) for s in support))
    return subgroup, Cocycle(subgroup, m_big, tuple(map(tuple, values)))


def _extract_cells(b: GradedAlgebra) -> tuple[FiniteGroup, Cocycle]:
    """``extract_torsion_data`` on any structure constants, in ``Cyclotomic``
    arithmetic."""
    basis = _graded_support(b)
    g = b.group
    e = g.identity

    # normalize the identity component to the unit
    e_idx = basis[e]
    be = b.vec_of_basis(e_idx)
    square = b.multiply_vectors(be, be)
    c = square.get(e_idx)
    if c is None or c.is_zero():
        raise TorsionExtractionError("identity component squares to zero")
    unit = {e_idx: c.inverse()}  # a unit: e_idx e_idx = c e_idx, A_e being one-dimensional

    support = list(basis)
    reps: dict[int, SparseVec] = {s: (unit if s == e else b.vec_of_basis(x)) for s, x in basis.items()}

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
    for si, s in enumerate(support):
        for ti, t in enumerate(support):
            st = g.mul(s, t)
            prod = b.multiply_vectors(reps[s], reps[t])
            tgt_idx, inv_coeff = inv_rep[st]
            gamma = prod.get(tgt_idx)
            if gamma is None:
                raise TorsionExtractionError(f"product of components {g.label(s)}, {g.label(t)} vanishes")
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
            table[si][ti] = matches[0]
    return _torsion_pair(g, support, m_big, table)


def _extract_monomial(b: GradedAlgebra, index, exp, star_index, star_exp) -> tuple[FiniteGroup, Cocycle]:
    """``extract_torsion_data`` on a monomial table, in exponents mod m.

    With x_s the basis index of s and c = exp[x_e][x_e], the unit is
    zeta^-c e_(x_e) and d_s = zeta^r_s e_(x_s), r_e = -c, else 0.  By the
    grading, every product is a root of unity times one basis element, so
    each test of ``_extract_cells`` reads an exponent: d_s* d_s =
    zeta^(star_exp[x] + exp[star_index[x]][x]) e_(x_e), x = x_s, gives
    lambda_s = zeta^k, k that plus c, positive exactly when k = 0.  Then
    every lambda is 1 and omega(s, t) = zeta^(r_s + r_t + exp[x_s][x_t] -
    r_st), times m_big / m in zeta_m_big: the root the sign test keeps.  A
    ``Cyclotomic`` is built only to word a failure.
    """
    basis = _graded_support(b)
    g, m = b.group, b.root_order
    e = g.identity
    c = exp[basis[e]][basis[e]]
    for s, x in basis.items():
        k = (star_exp[x] + exp[star_index[x]][x] + c) % m
        if k:
            raise TorsionExtractionError(
                f"component of {g.label(s)} is not spanned by an invertible: "
                f"b* b = {Cyclotomic.root(m, k)} times the unit"
            )
    m_big = 2 * (m if m % 2 == 0 else 2 * m)
    scale = m_big // m
    r = {s: -c if s == e else 0 for s in basis}
    values = [
        [(r[s] + r[t] + exp[x][basis[t]] - r[g.mul(s, t)]) * scale % m_big for t in basis]
        for s, x in basis.items()
    ]
    return _torsion_pair(g, list(basis), m_big, values)


# ---------------------------------------------------------------------------
# Wedderburn block decomposition
# ---------------------------------------------------------------------------

def _kernel(rows: Sequence[SparseVec], ncols: int, order: int) -> list[tuple[int, SparseVec]]:
    """Kernel basis of sparse rows, read off the reduced rows, as (free
    column f, vector z) pairs: each z is 1 at its own f and 0 at every other
    free column."""
    reduced, pivots = _row_reduce(rows)
    one = Cyclotomic.one(order)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        z = {f: one}
        for row, p in zip(reduced, pivots):
            if f in row:
                z[p] = -row[f]
        basis.append((f, z))
    return basis


def _center_basis(b: GradedAlgebra) -> list[tuple[int, SparseVec]]:
    """Kernel basis of the commutation system e_i x = x e_i over all basis i.

    Row z of the system for e_i holds, at column j, the e_z-coefficient of
    e_i e_j - e_j e_i.  The rows are built sparse from the cells, and only
    the distinct nonzero ones are reduced: the reduced echelon form, and so
    the kernel basis, depends only on the row space.
    """
    n = b.dim
    rows: dict[tuple[tuple[int, Cyclotomic], ...], None] = {}
    for i in range(n):
        commutator: dict[int, SparseVec] = {}
        for j in range(n):
            for z, c in b.mult[i][j]:
                row = commutator.setdefault(z, {})
                row[j] = row[j] + c if j in row else c
            for z, c in b.mult[j][i]:
                row = commutator.setdefault(z, {})
                row[j] = row[j] - c if j in row else -c
        for row in commutator.values():
            key = tuple((j, x) for j, x in row.items() if x)
            if key:
                rows.setdefault(key)
    return _kernel([dict(key) for key in rows], n, b.root_order)


def center_dimension(b: GradedAlgebra) -> int:
    """Exact dimension of the center, by solving xz = zx for all basis z."""
    return len(_center_basis(b))


def _trace_form(b: GradedAlgebra) -> tuple[dict[int, Cyclotomic], list[SparseVec]]:
    """theta = Tr_A(L_.) on A_e, and the trace form (e_i, e_j) -> theta(e_i
    e_j) as sparse rows, built only at the cells with deg i deg j = e.

    For homogeneous x of degree g != e, L_x maps each component A_h into
    A_gh != A_h, so its matrix in the homogeneous basis has a zero diagonal
    and Tr_A(L_x) = 0.  So theta vanishes off A_e, where theta(e_j) is the
    sum over i of the e_i-coefficient of e_j e_i, and theta(e_i e_j), e_i
    e_j being in A_(deg i deg j), can be nonzero only where deg i deg j = e:
    sum over g of dim A_g dim A_(g^-1) cells, n for a twisted group algebra.
    """
    g = b.group
    zero = Cyclotomic.zero(b.root_order)
    theta = {
        j: sum((c for i, cell in enumerate(b.mult[j]) for w, c in cell if w == i), zero)
        for j in b.component(g.identity)
    }
    return theta, [
        {j: x for j in b.component(g.inv(gi)) if (x := sum((c * theta[z] for z, c in b.mult[i][j]), zero))}
        for i, gi in enumerate(b.grading)
    ]


def _center_products(b: GradedAlgebra, center: list[tuple[int, SparseVec]]) -> list[list[SparseVec]]:
    """N[a][c] = coordinates of z_a z_c on the center basis: z_a z_c is
    central, so they are its entries at the free columns of ``_kernel``'s
    basis, and only those are summed, once per pair (Z is commutative)."""
    free = {f: d for d, (f, _) in enumerate(center)}
    zero = Cyclotomic.zero(b.root_order)
    r = len(center)
    coords: list[list[SparseVec]] = [[{}] * r for _ in range(r)]
    for a, (_, za) in enumerate(center):
        for c in range(a, r):
            acc: SparseVec = {}
            for i, x in za.items():
                for j, y in center[c][1].items():
                    for w, v in b.mult[i][j]:
                        if (d := free.get(w)) is not None:
                            acc[d] = acc.get(d, zero) + x * y * v
            coords[a][c] = coords[c][a] = acc
    return coords


def block_decomposition(b: GradedAlgebra) -> tuple[int, ...]:
    """Wedderburn block sizes (m_1, ..., m_r), sorted ascending, exactly.

    Semisimplicity is certified by a nondegenerate trace form Tr_A(L_xy),
    built only where the grading lets it be nonzero (``_trace_form``);
    otherwise NonSemisimpleError carries a radical element as witness.  On a
    basis z_1..z_r of the center Z, two forms are compared:
    B_A[a][b] = Tr_A(L_{z_a z_b}) and B_Z[a][b] = Tr_Z(L_{z_a z_b}|_Z).  With
    z_a z_b = sum_c N_ab^c z_c (``_center_products``), each is sum_c N_ab^c
    times the trace of L_{z_c}, Tr_Z(L_{z_c}|_Z) being sum_d N_cd^d, so no
    n x n Gram is built.  In the basis of central primitive idempotents they
    are diag(m_i^2) and the identity, so by congruence exactly r - rank(B_A
    - m^2 B_Z) blocks have size m.  Every rank is taken over Q(zeta); no
    eigenvalue, prime or random element is involved.  The counts are
    certified to sum to r and to give sum m_i^2 = dim; a failure there is
    an internal error (RuntimeError).
    """
    n = b.dim
    order = b.root_order
    zero = Cyclotomic.zero(order)
    theta, trace_form = _trace_form(b)
    radical = _kernel(trace_form, n, order)
    if radical:
        _, witness = radical[0]
        raise NonSemisimpleError(
            "trace form is degenerate: algebra is not semisimple",
            {b.basis_labels[i]: str(c) for i, c in sorted(witness.items())},
        )
    center = _center_basis(b)
    r = len(center)
    coords = _center_products(b, center)
    trace_a = [sum((x * theta[j] for j, x in z.items() if j in theta), zero) for _, z in center]
    trace_z = [sum((coords[c][d].get(d, zero) for d in range(r)), zero) for c in range(r)]
    blocks: list[int] = []
    for m in range(1, math.isqrt(n) + 1):
        if len(blocks) == r:
            break  # every larger size has count 0
        # B_A - m^2 B_Z, each entry a combination of the weights by N_ab^c
        weights = [x - y.scale(m * m) for x, y in zip(trace_a, trace_z)]
        diff = [{a: sum((x * weights[c] for c, x in nab.items()), zero) for a, nab in enumerate(row)} for row in coords]
        _, pivots = _row_reduce(diff)
        blocks.extend([m] * (r - len(pivots)))
    if len(blocks) != r or sum(m * m for m in blocks) != n:
        raise RuntimeError(
            f"block sizes {blocks} fail the certificate: center dimension {r}, dim {n}"
        )
    return tuple(blocks)
