"""
Closed form for the braid images of a core, written without the engine.

The braid group on the two cores acts on slopes through SL(2, Z): s0 and s1
go to the matrices below and S_v to the inverse of s_v. Q0 starts at (0, 1)
and Q1 at (1, 0), and the letters of a word act left to right, first letter
first, as x <- M x. For the result (p, q) of apply_braid(word, Q_v), the
minimal model has |p| + |q| summands, hf(Q0, .) has total rank |p| and
hf(Q1, .) total rank |q|; a 0 there means the image is a shifted copy of
that core, whose self-hom has total rank 2. Floer ranks between braid images
of cores count minimal intersections of arcs (Khovanov-Seidel,
arXiv:math/0006056), and these are the slopes of those arcs.

pair_total extends this to any two braid images: for slopes (p, q) and
(r, s), hf(c, d) has total rank |ps - qr|, or 2 when that is 0 (then d is
a shift of c). This is conjectural here. The arcs presumably lift, in the
double cover of the disc branched over its marked points (a torus), to
closed curves of slopes p/q and r/s, which meet |ps - qr| times; a curve
against a parallel copy of itself contributes the two generators of a
sphere's cohomology instead. The tests check it against the engine.
"""

MATRICES = {
    "s0": ((1, 0), (-1, 1)),
    "S0": ((1, 0), (1, 1)),
    "s1": ((1, 1), (0, 1)),
    "S1": ((1, -1), (0, 1)),
}
STARTS = {0: (0, 1), 1: (1, 0)}
IDENTITY = ((1, 0), (0, 1))


def times(m, n):
    """The 2x2 integer product m n."""
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def word_matrix(word: str):
    """The matrix of a word of s0 S0 s1 S1 tokens: the last letter's matrix leftmost."""
    out = IDENTITY
    for token in word.split():
        out = times(MATRICES[token], out)
    return out


def slopes(word: str, vertex: int) -> list[tuple[int, int]]:
    """The slope of Q_vertex after each prefix of word, the empty prefix first."""
    x = STARTS[vertex]
    out = [x]
    for token in word.split():
        (a, b), (c, d) = MATRICES[token]
        x = (a * x[0] + b * x[1], c * x[0] + d * x[1])
        out.append(x)
    return out


def predicted(word: str, vertex: int) -> tuple[int, int, int]:
    """(summands, hf(Q0, .) total, hf(Q1, .) total) of apply_braid(word, Q_vertex)."""
    p, q = slopes(word, vertex)[-1]
    return abs(p) + abs(q), abs(p) or 2, abs(q) or 2


def pair_total(word1: str, vertex1: int, word2: str, vertex2: int) -> int:
    """The total rank of hf(apply_braid(word1, Q_vertex1), apply_braid(word2, Q_vertex2))."""
    (p, q), (r, s) = slopes(word1, vertex1)[-1], slopes(word2, vertex2)[-1]
    return abs(p * s - q * r) or 2
