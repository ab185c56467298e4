"""Exact integer term algebra for the recursive generator expansion.

Everything in this module is purely combinatorial.  A term is a signed
product of interaction-picture system superoperator symbols ``A^+`` / ``A^-``
whose slots are grouped into contiguous clusters; each cluster stands for one
bath ordered-correlation factor, with the bath index of every slot fixed by
the sign conservation rule (bath sign = opposite of the system sign).  Slot 1
is the leftmost symbol, within a cluster the slot times decrease from left to
right, and a *pinned* term carries the fixed evaluation time ``t`` on slot 1
(the dotted circle of the diagram notation).

Null rule: a cluster whose leading bath index is ``-`` vanishes under the
bath trace (cyclicity), so admissible Schrodinger-kind terms have system sign
``-`` on the first slot of every cluster.  For adjoint-kind terms the rule
applies at the other end: the last slot of every cluster must be ``-``.

Coefficients are exact integers and polynomials are maps from canonical term
keys to accumulated coefficients, so expansion identities can be tested as
plain dict equality.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from functools import lru_cache

PLUS = "+"
MINUS = "-"

SCHRODINGER = "schrodinger"
ADJOINT = "adjoint"
KINDS = (SCHRODINGER, ADJOINT)

# render formats
OPERATOR_TEXT = "text"
DIAGRAM_ASCII = "diagram"
LATEX = "latex"

# count methods
RECURSIVE_V = "recursive_v"
RECURSIVE_PM = "recursive_pm"
VANKAMPEN = "vankampen"


def flip_signs(signs):
    """Bath sign string of a system sign string (sign conservation rule)."""
    return "".join(PLUS if c == MINUS else MINUS for c in signs)


def _check_signs(signs):
    if any(c not in (PLUS, MINUS) for c in signs):
        raise ValueError(f"invalid sign string {signs!r}")


def _check_kind(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class ClusteredTerm:
    """One symbolic summand: sign pattern, clustering, integer coefficient.

    ``signs[i]`` is the system sign of slot ``i`` (slot 1 leftmost),
    ``clusters`` is a composition of the order laid left to right over the
    slots, and ``pinned`` marks slot 1 as frozen at the evaluation time.
    The empty term (order 0) is the identity map.
    """

    signs: str
    clusters: tuple
    pinned: bool = False
    kind: str = SCHRODINGER
    coeff: int = 1

    def __post_init__(self):
        _check_signs(self.signs)
        _check_kind(self.kind)
        if any(c < 1 for c in self.clusters):
            raise ValueError("cluster sizes must be positive")
        if sum(self.clusters) != len(self.signs):
            raise ValueError("clustering does not cover the slots")
        if self.order == 0 and self.pinned:
            raise ValueError("the identity term cannot be pinned")

    @property
    def order(self):
        return len(self.signs)

    def key(self):
        """Canonical key; the coefficient is deliberately excluded."""
        return (self.signs, self.clusters, self.pinned, self.kind)

    def cluster_slices(self):
        """Slice objects selecting each cluster's slots, left to right."""
        out, start = [], 0
        for size in self.clusters:
            out.append(slice(start, start + size))
            start += size
        return out

    def cluster_signs(self):
        return [self.signs[s] for s in self.cluster_slices()]

    def is_admissible(self):
        """True unless some cluster is killed by the null rule."""
        for block in self.cluster_signs():
            anchor = block[0] if self.kind == SCHRODINGER else block[-1]
            if anchor != MINUS:
                return False
        return True

    def reversed(self):
        """Mirror image: slot sequence and clustering both reversed."""
        return replace(self, signs=self.signs[::-1],
                       clusters=self.clusters[::-1])


def term_sort_key(term):
    bits = tuple(0 if c == MINUS else 1 for c in term.signs)
    return (term.kind, term.order, not term.pinned, bits,
            len(term.clusters), term.clusters)


class TermPolynomial:
    """Multiset of ClusteredTerms with accumulated integer coefficients.

    All stored terms share one order and kind; terms violating the kind's
    null rule are dropped on insertion (they denote the zero superoperator),
    and zero coefficients are purged.  A frozen polynomial refuses ``add``
    and keeps its sorted terms, so a cached one cannot be altered.
    """

    def __init__(self, order, kind=SCHRODINGER):
        self.order = order
        self.kind = kind
        self._coeffs = {}
        self._sorted = None    # the sorted term tuple, once frozen

    def freeze(self):
        """Refuse further changes and keep the sorted terms; returns self."""
        if self._sorted is None:
            self._sorted = tuple(self.terms())
        return self

    def add(self, term, coeff=None, strict=False):
        if self._sorted is not None:
            raise ValueError("a frozen term polynomial cannot be changed")
        if term.order != self.order or term.kind != self.kind:
            raise ValueError("term does not match polynomial order/kind")
        if coeff is None:
            coeff = term.coeff
        if not term.is_admissible():
            if strict:
                raise ValueError(f"null term reached a strict context: {term}")
            return
        key = term.key()
        new = self._coeffs.get(key, 0) + coeff
        if new == 0:
            self._coeffs.pop(key, None)
        else:
            self._coeffs[key] = new

    def update(self, other, scale=1):
        for term in other:
            self.add(term, term.coeff * scale)

    def terms(self):
        """Terms with accumulated coefficients, in canonical order."""
        if self._sorted is not None:
            return list(self._sorted)
        out = [ClusteredTerm(k[0], k[1], k[2], k[3], coeff=c)
               for k, c in self._coeffs.items()]
        out.sort(key=term_sort_key)
        return out

    def coefficient(self, term):
        return self._coeffs.get(term.key(), 0)

    def __iter__(self):
        return iter(self._sorted if self._sorted is not None
                    else self.terms())

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        return (isinstance(other, TermPolynomial)
                and self.order == other.order and self.kind == other.kind
                and self._coeffs == other._coeffs)

    def __repr__(self):
        body = ", ".join(render_term(t, OPERATOR_TEXT) for t in self.terms())
        return f"TermPolynomial(order={self.order}, kind={self.kind}: {body})"


def _product_term(left, right):
    """Concatenate slot sequences and clusterings; coefficients multiply.

    The right factor is appended on the right, so it must not be pinned.
    """
    if right.pinned:
        raise ValueError("cannot append a pinned factor on the right")
    if left.kind != right.kind:
        raise ValueError("kind mismatch in term product")
    return ClusteredTerm(left.signs + right.signs,
                         left.clusters + right.clusters,
                         left.pinned, left.kind,
                         left.coeff * right.coeff)


def poly_product(left, right):
    out = TermPolynomial(left.order + right.order, left.kind)
    for a in left:
        for b in right:
            out.add(_product_term(a, b), strict=True)
    return out


@lru_cache(maxsize=None)
def momentum_terms(n, kind=SCHRODINGER):
    """Single-cluster terms of the n-th integrated momentum.

    All 2^(n-1) sign patterns whose anchored slot is MINUS (first slot for
    Schrodinger kind, last slot for adjoint kind), clustering ``(n,)``,
    coefficient +1, unpinned.
    """
    if n < 1:
        raise ValueError("momentum order must be >= 1")
    poly = TermPolynomial(n, kind)
    for tail in itertools.product(MINUS + PLUS, repeat=n - 1):
        free = "".join(tail)
        signs = MINUS + free if kind == SCHRODINGER else free + MINUS
        poly.add(ClusteredTerm(signs, (n,), False, kind), 1, strict=True)
    return poly.freeze()


@lru_cache(maxsize=None)
def momentum_derivative_terms(n, kind=SCHRODINGER):
    """Same patterns as momentum_terms but with slot 1 pinned at time t."""
    poly = TermPolynomial(n, kind)
    for term in momentum_terms(n, kind):
        poly.add(replace(term, pinned=True), 1, strict=True)
    return poly.freeze()


@lru_cache(maxsize=None)
def inverse_map_terms(n):
    """Terms of the n-th inverse-map coefficient.

    M_0 is the identity; M_n = -sum_{k=1..n} mu_k * M_{n-k}, with the
    momentum factor's slots prepended on the left as one fresh cluster.
    """
    if n < 0:
        raise ValueError("inverse map order must be >= 0")
    if n == 0:
        poly = TermPolynomial(0, SCHRODINGER)
        poly.add(ClusteredTerm("", (), False, SCHRODINGER), 1, strict=True)
        return poly.freeze()
    poly = TermPolynomial(n, SCHRODINGER)
    for k in range(1, n + 1):
        prod = poly_product(momentum_terms(k), inverse_map_terms(n - k))
        poly.update(prod, scale=-1)
    return poly.freeze()


@lru_cache(maxsize=None)
def generator_terms(n, kind=SCHRODINGER):
    """Terms of the n-th generator coefficient, built by the recursion
    L_n = mu_dot_n - sum_{k=1..n-1} L_{n-k} * mu_k.

    Every resulting coefficient is (-1)^(q-1) with q the cluster count; the
    recursion never produces null terms, which poly_product asserts.
    """
    if n < 1:
        raise ValueError("generator order must be >= 1")
    poly = TermPolynomial(n, kind)
    poly.update(momentum_derivative_terms(n, kind))
    for k in range(1, n):
        prod = poly_product(generator_terms(n - k, kind),
                            momentum_terms(k, kind))
        poly.update(prod, scale=-1)
    return poly.freeze()


def _composition_from_removed(n, removed):
    """Clustering induced by removing a set of connections from the chain.

    Connection j joins slots j+1 and j+2 (0-based j in range(n-1)).
    """
    cuts = sorted(removed)
    sizes, start = [], 0
    for c in cuts:
        sizes.append(c + 1 - start)
        start = c + 1
    sizes.append(n - start)
    return tuple(sizes)


def diagram_generator_terms(n):
    """Generator terms built by the constructive diagram procedure.

    Start from the fully connected all-MINUS pinned chain; remove every
    subset of the n-1 connections with factor (-1)^p (p removals induce the
    clustering); whiten every subset of slots 2..n; drop diagrams where a
    cluster leads with a white circle.  Independent of the recursion, which
    serves as its oracle.
    """
    if n < 1:
        raise ValueError("diagram order must be >= 1")
    poly = TermPolynomial(n, SCHRODINGER)
    for p in range(n):
        for removed in itertools.combinations(range(n - 1), p):
            clusters = _composition_from_removed(n, removed)
            for flips in itertools.product((MINUS, PLUS), repeat=n - 1):
                signs = MINUS + "".join(flips)
                term = ClusteredTerm(signs, clusters, True, SCHRODINGER,
                                     coeff=(-1) ** p)
                poly.add(term)  # null diagrams dropped here
    return poly


@dataclass(frozen=True)
class VKTerm:
    """One Van Kampen ordered-cumulant summand.

    ``blocks`` lists the bath-trace factors left to right; time label 0 is
    the fixed time t, labels 1..n-1 are the simplex variables in decreasing
    chronological order.  Within a block labels are listed chronologically
    (ascending label = descending time).
    """

    blocks: tuple
    coeff: int

    def __post_init__(self):
        if not self.blocks or self.blocks[0][0] != 0:
            raise ValueError("label 0 must open the first block")
        for block in self.blocks:
            if list(block) != sorted(block):
                raise ValueError("block labels must be chronologically ordered")

    @property
    def order(self):
        return sum(len(b) for b in self.blocks)


_VK_TABLE = {
    1: [(((0,),), 1)],
    2: [(((0, 1),), 1),
        (((0,), (1,)), -1)],
    3: [(((0, 1, 2),), 1),
        (((0, 1), (2,)), -1),
        (((0, 2), (1,)), -1),
        (((0,), (1, 2)), -1),
        (((0,), (1,), (2,)), 1),
        (((0,), (2,), (1,)), 1)],
    4: [(((0, 1, 2, 3),), 1),
        (((0, 1, 2), (3,)), -1),
        (((0, 1, 3), (2,)), -1),
        (((0, 2, 3), (1,)), -1),
        (((0, 1), (2, 3)), -1),
        (((0, 2), (1, 3)), -1),
        (((0, 3), (1, 2)), -1),
        (((0,), (1, 2, 3)), -1),
        (((0, 1), (2,), (3,)), 1),
        (((0, 1), (3,), (2,)), 1),
        (((0, 2), (1,), (3,)), 1),
        (((0, 2), (3,), (1,)), 1),
        (((0, 3), (1,), (2,)), 1),
        (((0, 3), (2,), (1,)), 1),
        (((0,), (1,), (2,), (3,)), -1),
        (((0,), (1,), (3,), (2,)), -1),
        (((0,), (2,), (1,), (3,)), -1),
        (((0,), (2,), (3,), (1,)), -1),
        (((0,), (3,), (1,), (2,)), -1),
        (((0,), (3,), (2,), (1,)), -1)],
}


def vankampen_terms(n):
    """The tabulated Van Kampen ordered-cumulant lists for orders 1..4.

    Orders beyond 4 are refused: the published prescription is ambiguous
    there and no authoritative list exists to transcribe.
    """
    if not 1 <= n <= 4:
        raise ValueError("not tabulated in source paper (order must be 1..4)")
    return [VKTerm(blocks, coeff) for blocks, coeff in _VK_TABLE[n]]


def count_terms(n, method):
    """Term census for one expansion order under the given counting method."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if method == RECURSIVE_V:
        return len({t.clusters for t in generator_terms(n)})
    if method == RECURSIVE_PM:
        return len(generator_terms(n))
    if method == VANKAMPEN:
        return len(vankampen_terms(n))
    raise ValueError(f"unknown counting method {method!r}")


# ---------------------------------------------------------------------------
# rendering and the text round trip
# ---------------------------------------------------------------------------

def slot_time_labels(order, pinned):
    if pinned:
        return ["t"] + [f"tau{k}" for k in range(1, order)]
    return [f"tau{k}" for k in range(1, order + 1)]


def _latex_time(label):
    return label if label == "t" else rf"\tau_{{{label[3:]}}}"


def render_term(term, fmt=OPERATOR_TEXT):
    """Render one term; injective on canonical terms for every format.

    DIAGRAM_ASCII: '*' black circle (MINUS), 'o' white circle (PLUS), '-'
    for intra-cluster connections, a space between clusters, '.' prefix on
    slot 1 when pinned.  OPERATOR_TEXT follows the documented mini-grammar
    ``coeff * A{sign}_{time} ... D{signs}_{times} ...``.
    """
    if not term.is_admissible():
        raise ValueError(f"term violates its null rule: {term}")
    if term.order == 0:
        if fmt == OPERATOR_TEXT:
            return f"{term.coeff:+d} * 1"
        if fmt == LATEX:
            return f"{term.coeff:+d}"
        return "1"
    times = slot_time_labels(term.order, term.pinned)
    slices = term.cluster_slices()
    dmark = "D" if term.kind == SCHRODINGER else "D~"

    if fmt == OPERATOR_TEXT:
        a_part = " ".join(f"A{s}_{t}" for s, t in zip(term.signs, times))
        d_part = " ".join(
            f"{dmark}{flip_signs(term.signs[s])}_{{{','.join(times[s])}}}"
            for s in slices)
        return f"{term.coeff:+d} * {a_part} {d_part}"

    if fmt == LATEX:
        coeff = ("+" if term.coeff > 0 else "-") + (
            "" if abs(term.coeff) == 1 else str(abs(term.coeff)))
        a_part = "".join(rf"A^{{{s}}}_{{{_latex_time(t)}}}"
                         for s, t in zip(term.signs, times))
        dsym = "D" if term.kind == SCHRODINGER else r"\tilde{D}"
        d_part = "".join(
            rf"{dsym}^{{{flip_signs(term.signs[s])}}}"
            rf"_{{{_latex_time(times[s.start])}"
            + "".join(rf"\,{_latex_time(lbl)}" for lbl in times[s][1:]) + "}"
            for s in slices)
        return coeff + a_part + d_part

    if fmt == DIAGRAM_ASCII:
        glyphs = ["*" if c == MINUS else "o" for c in term.signs]
        if term.pinned:
            glyphs[0] = "." + glyphs[0]
        return " ".join("-".join(glyphs[s]) for s in slices)

    raise ValueError(f"unknown render format {fmt!r}")


_TERM_RE = re.compile(r"^([+-]\d+) \* (.*)$")
_A_RE = re.compile(r"^A([+-])_(t|tau\d+)$")
_D_RE = re.compile(r"^(D~?)([+-]+)_\{([^{}]*)\}$")


def parse_term(text):
    """Inverse of render_term for OPERATOR_TEXT (the mini-grammar)."""
    m = _TERM_RE.match(text.strip())
    if not m:
        raise ValueError(f"unparsable term {text!r}")
    coeff = int(m.group(1))
    body = m.group(2).strip()
    if body == "1":
        return ClusteredTerm("", (), False, SCHRODINGER, coeff)
    tokens = body.split()
    signs, times, clusters, d_infos = [], [], [], []
    for tok in tokens:
        am = _A_RE.match(tok)
        if am:
            if d_infos:
                raise ValueError("A factors must precede D factors")
            signs.append(am.group(1))
            times.append(am.group(2))
            continue
        dm = _D_RE.match(tok)
        if dm:
            d_infos.append(dm.groups())
            continue
        raise ValueError(f"unparsable factor {tok!r}")
    if not signs or not d_infos:
        raise ValueError(f"incomplete term {text!r}")
    kind = ADJOINT if d_infos[0][0] == "D~" else SCHRODINGER
    pinned = times[0] == "t"
    if times != slot_time_labels(len(signs), pinned):
        raise ValueError(f"inconsistent time labels in {text!r}")
    clusters = tuple(len(b) for _, b, _ in d_infos)
    term = ClusteredTerm("".join(signs), clusters, pinned, kind, coeff)
    # the D factors are redundant with the slots; demand consistency
    for (mark, bsigns, dtimes), sl in zip(d_infos, term.cluster_slices()):
        if mark != ("D" if kind == SCHRODINGER else "D~"):
            raise ValueError("mixed correlator kinds in one term")
        if bsigns != flip_signs(term.signs[sl]):
            raise ValueError("bath signs contradict the sign conservation rule")
        if dtimes.split(",") != times[sl]:
            raise ValueError("correlator times contradict the slot times")
    return term
