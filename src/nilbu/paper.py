"""The paper's results, transcribed per family row; verify checks the
computed ones against them.  Of the package this imports only seifert and
reads only validate_char from epimorphisms, through the module, where a
tracer wraps it; tests/test_paper_imports.py holds every module to that.
"""

from __future__ import annotations

from . import epimorphisms
from .seifert import NilManifold


def h1_closed_form(m: NilManifold) -> tuple[int, tuple[int, ...]]:
    """The paper's H1 of each family: (free rank, invariant factors)."""
    b = m.b
    if m.family == "T":
        return (2, (b,) if b > 1 else ())
    if m.family == "K":
        return (1, (4,) if b % 2 else (2, 2))
    if m.family == "22":
        return (0, (4, 4))
    if m.family == "2222":
        return (0, (2, 2, 2 * (2 * b + 4)))
    if m.family == "236":
        b2, b3 = m.betas
        return (0, (6 * (6 * b + 3 + 2 * b2 + b3),))
    if m.family == "244":
        b2, b3 = m.betas
        return (0, (2, 4 * (4 * b + 2 + b2 + b3)))
    c = 3 * b + sum(m.betas)  # 333
    return (0, (3, 3 * c))


def h1_stated_relations(m: NilManifold) -> list[dict]:
    """The paper's generators of H1 as relations that vanish in it, one dict
    each: its generator descriptions (h = -2 s1 becomes {h: 1, s1: 2}) and
    the order annihilations of its decompositions."""
    b = m.b
    fam = m.family
    if fam == "T":
        return [{"h": b}]
    if fam == "K":
        if b % 2:
            # h = 2(v1 + v2), with v1 + v2 of order 4
            return [{"h": 1, "v1": -2, "v2": -2}, {"v1": 4, "v2": 4}]
        return [{"h": 2}, {"v1": 2, "v2": 2}]
    if fam == "22":
        return [{"h": 1, "s1": 2},
                {"s2": 1, "s1": 2 * b + 1, "v1": 2},
                {"s1": 4}, {"v1": 4}]
    if fam == "2222":
        c = 2 * b + 4
        return [{"h": 1, "s1": 2},
                {"s4": 1, "s1": 2 * b + 1, "s2": 1, "s3": 1},
                {"s2": 2, "s1": -2}, {"s3": 2, "s1": -2},
                {"s1": 2 * c}]
    if fam == "236":
        b2, b3 = m.betas
        c = 6 * b + 3 + 2 * b2 + b3
        k = 3 * (2 * b2 - 3)
        return [{"h": 1, "s1": 2},
                {"s3": 1, "s1": 2 * b + 1, "s2": 1},
                {"s1": 1 + k, "s2": -k},           # s1 = k (s2 - s1)
                {"s2": 6 * c, "s1": -6 * c}]
    if fam == "244":
        b2, b3 = m.betas
        c = 4 * b + 2 + b2 + b3
        return [{"h": 1, "s1": 2},
                {"s3": 1, "s1": 2 * b + 1, "s2": 1},
                {"s1": 2 * c},
                {"s2": 4 * c, "s1": -4 * c}]
    c = 3 * b + sum(m.betas)  # 333
    return [{"s3": 1, "s1": 1, "s2": 1, "h": -b},
            {"h": c}, {"s1": 3 * c}, {"s2": 3 * c}]


def expected_epi_count(m: NilManifold) -> int:
    """The paper's number of epimorphisms pi_1(m) -> Z2, per family row."""
    fam, b = m.family, m.b
    if fam in ("T", "K"):
        return 7 if b % 2 == 0 else 3
    if fam == "22":
        return 3
    if fam == "2222":
        return 7
    if fam == "236":
        return 1
    if fam == "244":
        return 3
    return 1 if (b + sum(m.betas)) % 2 == 0 else 0  # 333


def expected_partition_shape(m: NilManifold) -> tuple[int, ...]:
    """The paper's classes of those epimorphisms: their sizes, ascending."""
    fam, b = m.family, m.b
    if fam == "T":
        return (3,) if b % 2 else (3, 4)
    if fam == "K":
        return (1, 2) if b % 2 else (1, 2, 4)
    if fam == "22":
        return (1, 2)
    if fam == "2222":
        return (1, 6)
    if fam == "236":
        return (1,)
    if fam == "244":
        b2, b3 = m.betas
        return (1, 2) if b2 == b3 else (1, 1, 1)
    return (1,) if (b + sum(m.betas)) % 2 == 0 else ()  # 333


def index_one_case(m: NilManifold, phi: epimorphisms.Z2Char) -> str | None:
    """The paper's index-1 cases, exactly T with phi(h) = 0 and K with
    phi(h) = 0 and both v-bits set: the case (m, phi) matches, or None."""
    epimorphisms.validate_char(m, phi)
    if m.family == "T" and phi.h == 0:
        return "class T with phi(h) = 0"
    if m.family == "K" and phi.h == 0 and phi.v == (1, 1):
        return "class K with phi(h) = 0 and phi(v1) = phi(v2) = 1"
    return None


def index_three_case(m: NilManifold, phi: epimorphisms.Z2Char) -> str | None:
    """The paper's index-3 cases, exactly T or K with b = 2 mod 4 and
    phi(h) = 1, 333 with b = 2 + b1 + b2 + b3 mod 4 and 244 with
    phi(s1) = 1: the case (m, phi) matches, or None."""
    epimorphisms.validate_char(m, phi)
    fam, b = m.family, m.b
    if fam in ("T", "K") and b % 4 == 2 and phi.h == 1:
        return "class %s with b = 2 mod 4 and phi(h) = 1" % fam
    if fam == "333" and (b - 2 - sum(m.betas)) % 4 == 0:
        return "class 333 with b = 2 + b1 + b2 + b3 mod 4"
    if fam == "244" and phi.s[0] == 1:
        return "class 244 with phi(s1) = 1"
    return None


def expected_quotient_diagram(m: NilManifold) -> tuple[tuple[NilManifold, int], ...]:
    """The paper's involution diagram of m: (base, index) pairs, sorted; empty
    for 22, 236 and 244 with b2 != b3, never double covers in the geometry."""
    fam, b = m.family, m.b
    out: list[tuple[NilManifold, int]] = []
    if fam == "T":
        if b % 2:
            out = [(NilManifold("T", 2 * b), 3)]
        else:
            out = [(NilManifold("T", 2 * b), 2),
                   (NilManifold("T", b // 2), 1),
                   (NilManifold("2222", b // 2 - 2), 2),
                   (NilManifold("K", b // 2), 1)]
    elif fam == "K":
        if b % 2:
            out = [(NilManifold("K", 2 * b), 3)]
        else:
            out = [(NilManifold("K", 2 * b), 2),
                   (NilManifold("K", b // 2), 2),
                   (NilManifold("22", b // 2 - 1), 2)]
    elif fam == "2222":
        if b % 2:
            out = [(NilManifold("244", (b - 1) // 2, (1, 3)), 2)]
        else:
            out = [(NilManifold("2222", b // 2 - 1), 2),
                   (NilManifold("22", b // 2), 2),
                   (NilManifold("244", b // 2 - 1, (3, 3)), 2),
                   (NilManifold("244", b // 2, (1, 1)), 2)]
    elif fam == "244":
        b2, b3 = m.betas
        if b2 == b3:
            x = b2
            if b % 2:
                out = [(NilManifold("244", (b - 1) // 2, (1, x)), 3)]
            else:
                out = [(NilManifold("244", b // 2 - 1, (x, 3)), 3)]
    elif fam == "333":
        # x = repeated beta, y = the remaining one (x = y when all equal)
        reps = {(1, 1, 1): (1, 1), (1, 1, 2): (1, 2),
                (1, 2, 2): (2, 1), (2, 2, 2): (2, 2)}
        x, y = reps[m.betas]
        out = [(NilManifold("333", 2 * b + 2 * x + y - 3, (3 - y, 3 - x, 3 - x)),
                3 if (b - y) % 2 else 2)]
        if (b - y) % 2 == 0:
            out.append((NilManifold("236", (b - y) // 2, (x, 4 * y - 3)), 2))
    out.sort(key=lambda pair: pair[0].encode())
    return tuple(out)
