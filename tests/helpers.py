"""Helpers the tests use to check the library: exact matrix algebra and words."""

from nilbu import InvariantError


def matmul(a, b) -> list[list[int]]:
    if any(len(row) != len(b) for row in a):
        raise InvariantError("inner dimensions disagree")
    bc = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(bc)]
            for row in a]


def determinant(m) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvariantError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse_word(word) -> tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))
