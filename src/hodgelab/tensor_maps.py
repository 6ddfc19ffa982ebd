"""Form-valued linear maps and their complex-type decomposition.

A map Q from the (p,0)+(0,p) forms to the (q,0)+(0,q) forms splits into a
part commuting with the complex-structure action bb_j and a part
anticommuting with it.  Writing JJ for bb_j on the relevant side,

    Q1 = (Q - JJ o Q o JJ) / 2      (commuting:  Q1 JJ = JJ Q1)
    Q2 = (Q + JJ o Q o JJ) / 2      (anticommuting: Q2 JJ = -JJ Q2)

Total antisymmetrization a(Q) sends the commuting part into the bidegree
component with squared-derivation eigenvalue -(p-q)^2 and the anticommuting
part into the -(p+q)^2 eigenspace, and is injective on the commuting part
whenever p != q.  (The slot assignment is pinned by the worked example
Q = JJ on the 1-forms: a(JJ) = -2 omega, which has eigenvalue 0 = -(1-1)^2,
and JJ commutes with itself.)

Operators on the lambda bases (a map, bb_j, the commuting projector) are
{column: int} rows over one positive denominator, as ``bb_j_matrix`` returns
them; rational entries become such rows in ``linalg.integer_rows``.  A map
is reduced once when built; from_tensor (pairings off the coordinate tables
of the lambda bases), the bb_j conjugation, the split, the projector and
a(Q) work on the integers, and each value a caller reads (the dense matrix,
an entry, a(Q), the residual of the contraction identity) divides at the end.

The module also hosts the derivative-driven construction of a commuting
map out of a holomorphy-compatible derivative table, the sum of rank-one
maps Q = (-1)^(p-1) sum_k (e_k -| Omega) (x) D_k, the torsion tensors of
almost-Hermitian type (one encoding: the kernel rows of their cyclic and
compatibility constraints; a tensor is its list of dense eta rows), the
cyclic bullet pairing, and the exact kernel computation showing that the
constrained torsion space is zero from dimension 6 on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, permutations
from math import factorial, gcd, lcm

from .errors import (
    DegreeOverflowError,
    InvalidDerivativeError,
    InvariantViolationError,
)
from .exterior import (
    Form,
    basis_masks,
    contract,
    contract_index,
    merge_sign,
    wedge,
)
from .hermitian import (
    ComplexStructure,
    _numerators_on,
    bb_j,
    bb_j_matrix,
    eigen_residual,
    in_lambda_p,
    lambda_basis,
    per_structure,
)
from .linalg import (
    add_scaled,
    combine,
    compose,
    dense_rows,
    exact_nullspace,
    exact_rank,
    integer_rows,
    numerators,
    row_basis,
    sparse_rows,
)


class FormValuedMap:
    """Linear map between type-(p,0)+(0,p) and type-(q,0)+(0,q) forms.

    The matrix over the deterministic orthogonal bases of the two subspaces
    is held as integer numerators over one positive common denominator
    ``den``: ``rows`` are {column: int} dicts, zeros dropped, and column d
    holds ``den`` times the coordinates of the image of the d-th domain
    basis form.  The constructor takes int rows over an optional int ``den``
    (rationals go through ``linalg.integer_rows``; other entries are refused)
    and reduces them once to lowest terms: den and the numerators are coprime.
    What a caller reads is values: ``matrix`` (a dense copy of Fractions),
    ``max_entry``, ``+``/``-``, ``antisymmetrize`` and the residual of
    ``contraction_identity_check``; only the first two build ``Fraction``s.
    """

    __slots__ = ("j", "p", "q", "rows", "den", "domain", "codomain")

    def __init__(self, j_struct: ComplexStructure, p: int, q: int, rows, den: int = 1):
        if p < 1 or q < 1:
            raise InvariantViolationError("degrees must be at least 1")
        if type(den) is not int or den < 1:
            raise InvariantViolationError("the common denominator must be a positive int")
        self.j = j_struct
        self.p = p
        self.q = q
        self.domain = lambda_basis(j_struct, p)
        self.codomain = lambda_basis(j_struct, q)
        filled = list(filter(None, rows))
        if len(rows) != self.codomain.dim or filled and (
            min(map(min, filled)) < 0 or max(map(max, filled)) >= self.domain.dim
        ):
            raise InvariantViolationError("matrix shape does not match the bases")
        # One type scan over all values refuses every entry that is not an
        # int.  Zeros are dropped, and one gcd with den brings the map to
        # lowest terms.  Rows that need no change are kept as given: a map
        # never modifies its rows.  The values go to gcd as one list: a tuple
        # built from a generator is allocated larger and shrunk, and the
        # freed smaller tuples pile up in the interpreter's tuple free lists
        values = list(chain.from_iterable(map(dict.values, rows)))
        if set(map(type, values)) - {int}:
            raise InvariantViolationError("map entries must be ints over the common denominator")
        if not all(values):
            rows = [row if all(row.values()) else {c: v for c, v in row.items() if v}
                    for row in rows]
        g = gcd(den, *values)
        if g > 1:
            rows = [{c: v // g for c, v in row.items()} for row in rows]
        self.rows = rows
        self.den = den // g

    @property
    def matrix(self):
        """The dense matrix of values, a fresh list of rows on every access."""
        den = self.den
        return dense_rows(
            [{c: Fraction(v, den) for c, v in row.items()} for row in self.rows], self.domain.dim
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, j_struct, p):
        return cls(j_struct, p, p, [{i: 1} for i in range(lambda_basis(j_struct, p).dim)])

    @classmethod
    def from_tensor(cls, j_struct, phi: Form, psi: Form):
        """The rank-one map chi -> <phi, chi> psi.

        Entry (i, d) is the weight <phi, b_d> times the coordinate
        <psi, c_i> / |c_i|^2; both pairings are read off the coordinate
        tables of the bases.  With L the lcm of the |c_i|^2, the numerators
        of the weights and of the <psi, c_i> L / |c_i|^2 are multiplied, over
        the product of their denominators and L.
        """
        dom = lambda_basis(j_struct, phi.degree)
        cod = lambda_basis(j_struct, psi.degree)
        weights, wden = numerators(dom.pairings(phi))
        inners, cden = numerators(cod.pairings(psi))
        scale = lcm(*cod.norms_sq)
        weights = [(d, w) for d, w in weights.items() if w]
        rows = [
            {d: x * (scale // ns) * w for d, w in weights} if (x := inners.get(i)) else {}
            for i, ns in enumerate(cod.norms_sq)
        ]
        return cls(j_struct, phi.degree, psi.degree, rows, wden * cden * scale)

    # -- algebra -----------------------------------------------------------

    def _combine(self, other, sign: int, divisor: int = 1) -> "FormValuedMap":
        """(self + sign * other) / divisor, over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        rows = combine(self.rows, other.rows, den // self.den, sign * (den // other.den))
        return FormValuedMap(self.j, self.p, self.q, rows, divisor * den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def max_entry(self):
        return Fraction(max((abs(v) for row in self.rows for v in row.values()), default=0),
                        self.den)

    def conjugated_by_bbj(self) -> "FormValuedMap":
        """JJ o Q o JJ, composed on the integer rows of ``bb_j_matrix``."""
        (jp, dp), (jq, dq) = bb_j_matrix(self.j, self.p), bb_j_matrix(self.j, self.q)
        rows = compose(jq, compose(self.rows, jp))
        return FormValuedMap(self.j, self.p, self.q, rows, self.den * dp * dq)


def split_type(q_map: FormValuedMap):
    """Split into the bb_j-commuting and bb_j-anticommuting parts, in that order:
    (Q - JJ Q JJ) / 2 and (Q + JJ Q JJ) / 2, combined on integers."""
    conj = q_map.conjugated_by_bbj()
    return q_map._combine(conj, -1, 2), q_map._combine(conj, 1, 2)


def _a_weights(q_map: FormValuedMap):
    """``(weights, L)``: weights[d] = p! L / |b_d|^2, L the lcm of the |b_d|^2."""
    scale = lcm(*q_map.domain.norms_sq)
    return [factorial(q_map.p) * (scale // ns) for ns in q_map.domain.norms_sq], scale


def antisymmetrize_numerators(q_map: FormValuedMap):
    """``(nums, den)``: a(Q) as {mask: int} numerators, zeros dropped, over
    the positive integer ``den`` (see ``antisymmetrize``).

    Q = sum_d b_d (x) Q(b_d) / |b_d|^2 and a(b_d (x) c_e) = p! b_d ^ c_e, so
    each nonzero entry Q[e][d] adds its multiple of the cached wedge
    b_d ^ c_e.  The coefficients Q[e][d] / |b_d|^2 are integers over L den,
    with L the lcm of the |b_d|^2.
    """
    j_struct, p, q = q_map.j, q_map.p, q_map.q
    space = j_struct.space
    if p + q > space.dim:
        raise DegreeOverflowError(f"degree {p + q} exceeds dimension {space.dim}")
    weights, scale = _a_weights(q_map)
    table = _wedge_table(j_struct, p, q)
    nums: dict = {}
    for e, row in enumerate(q_map.rows):
        for d, v in row.items():
            add_scaled(nums, v * weights[d], table[d][e].coeffs)
    return nums, scale * q_map.den


def antisymmetrize(q_map: FormValuedMap) -> Form:
    """a(Q) = sum over ordered p-tuples of e^{i1} ^ ... ^ e^{ip} ^ Q(e_{i1}, ..., e_{ip}).

    Tuples with repeated indices vanish against the wedge prefix, so the
    ordered sum carries a p! multiplicity: rank-one tensors satisfy
    a(phi (x) psi) = p! phi ^ psi.  Each nonzero numerator of
    ``antisymmetrize_numerators`` divides once.
    """
    nums, den = antisymmetrize_numerators(q_map)
    return q_map.j.space.from_numerators(q_map.p + q_map.q, nums, den)


def bidegree_eigen_residual(j_struct: ComplexStructure, alpha: Form, p: int, q: int) -> Form:
    """curly_j^2(alpha) + (p-q)^2 alpha; zero iff alpha is pure of bidegree
    (p, q).  ``eigen_residual`` on the numerators of alpha."""
    return eigen_residual(j_struct, alpha.degree, *_numerators_on(j_struct, alpha), p, q)


# -- rank and kernel of the antisymmetrization ---------------------------


@per_structure
def _wedge_table(j_struct, p, q):
    """b_d ^ c_e for the Lambda basis forms b_d of degree p and c_e of degree q."""
    cod = lambda_basis(j_struct, q).forms
    return [[wedge(b, c) for c in cod] for b in lambda_basis(j_struct, p).forms]


def _commuting_projector(j_struct: ComplexStructure, p: int, q: int):
    """``(rows, den)``: P = 1/2 (I + Jp (x) Jq) on the tensors b_d (x) c_e
    (row and column d * nq + e) as the integer rows of den P, den = 2 dp dq
    for the ``bb_j_matrix`` rows (Jp, dp) and (Jq, dq).  Since
    (Jp (x) Jq)^2 = I, P projects onto the commuting half; only the nonzeros
    of the bb_j rows are visited."""
    (jp, dp), (jq, dq) = bb_j_matrix(j_struct, p), bb_j_matrix(j_struct, q)
    nq = len(jq)
    rows = []
    for i, row_p in enumerate(jp):
        for k, row_q in enumerate(jq):
            row = {i * nq + k: dp * dq}
            for d, vp in row_p.items():
                for e, vq in row_q.items():
                    col = d * nq + e
                    row[col] = row.get(col, 0) + vp * vq
            rows.append({col: v for col, v in row.items() if v})
    return rows, 2 * dp * dq


def tensor_type_dims(j_struct: ComplexStructure, p: int, q: int):
    """Dimensions of the commuting and anticommuting halves of the tensor space."""
    rows, _ = _commuting_projector(j_struct, p, q)
    dim1 = exact_rank(rows, len(rows))
    return dim1, len(rows) - dim1


def a_restricted_rank(j_struct: ComplexStructure, p: int, q: int) -> int:
    """Exact rank of the antisymmetrization on the commuting half.

    Equals the dimension of that half whenever p != q, which is the
    injectivity statement checked by the verification suite.
    """
    if p == 0 or q == 0:
        return 0
    projector, _ = _commuting_projector(j_struct, p, q)
    return exact_rank(compose(a_full_matrix(j_struct, p, q), projector), len(projector))


@per_structure
def a_full_matrix(j_struct: ComplexStructure, p: int, q: int):
    """Sparse int rows of a on the elementary tensor basis b_d (x) c_e (column
    d * dq + e), one row per mask of degree p + q in lexicographic order."""
    table = _wedge_table(j_struct, p, q)
    dp = lambda_basis(j_struct, p).dim
    dq = lambda_basis(j_struct, q).dim
    pos = {m: i for i, m in enumerate(basis_masks(j_struct.space.dim, p + q))}
    fac = factorial(p)
    # the basis forms are integer forms, so the denominator is 1
    return integer_rows(
        ((pos[m], d * dq + e, fac * c) for d in range(dp) for e in range(dq)
         for m, c in table[d][e].coeffs.items()),
        len(pos),
    )[0]


def a_kernel_tensors(j_struct: ComplexStructure, p: int, q: int):
    """FormValuedMap basis of the kernel of a on the full tensor space."""
    norms_sq = lambda_basis(j_struct, p).norms_sq
    dq = lambda_basis(j_struct, q).dim
    out = []
    for vec in exact_nullspace(a_full_matrix(j_struct, p, q), len(norms_sq) * dq):
        entries = []
        for col, t in vec.items():
            d, e = divmod(col, dq)
            # tensor b_d (x) c_e acts as chi -> <b_d, chi> c_e
            entries.append((e, d, t * norms_sq[d]))
        out.append(FormValuedMap(j_struct, p, q, *integer_rows(entries, dq)))
    return out


def contraction_identity_check(q_map: FormValuedMap, x: Form) -> Form:
    """The residual X -| a(Q) - p a(Q_X) - (-1)^p a(Q^X), with Q_X = Q(X, .)
    and Q^X = X -| Q; the identity holds exactly when it is the zero form.

    With Q = sum_d b_d (x) Q(b_d) / |b_d|^2, p a(Q_X) is
    p! sum_d (X -| b_d) ^ Q(b_d) / |b_d|^2 and a(Q^X) is
    p! sum_d b_d ^ (X -| Q(b_d)) / |b_d|^2.  Both sums run over the integer
    images den Q(b_d) = sum_i Q[i][d] c_i with the weights of a(Q), and
    divide once, by L den.
    """
    space, p, q = q_map.j.space, q_map.p, q_map.q
    lhs = contract(x, antisymmetrize(q_map))
    images: list[dict] = [{} for _ in q_map.domain.forms]
    for row, c in zip(q_map.rows, q_map.codomain.forms):
        for d, v in row.items():
            add_scaled(images[d], v, c.coeffs)
    weights, scale = _a_weights(q_map)
    nums: dict = {}
    for b, w, img in zip(q_map.domain.forms, weights, images):
        image = Form(space, q, img)
        add_scaled(nums, w, wedge(contract(x, b), image).coeffs)
        add_scaled(nums, (-1) ** p * w, wedge(b, contract(x, image)).coeffs)
    return lhs - space.from_numerators(p + q - 1, nums, scale * q_map.den)


# -- the holomorphy-driven construction ----------------------------------


def holomorphic_q(j_struct: ComplexStructure, omega_form: Form, derivative) -> FormValuedMap:
    """Map built from a derivative table along the slot duals of Omega.

    ``derivative`` maps each basis index 1..n to a degree-p form; the table
    is extended linearly over vector subscripts.  Preconditions: every value
    is of type (p,0)+(0,p), and the table intertwines the complex structure
    as D_{J X} = bb_j(D_X); violations raise InvalidDerivativeError.  The
    output sends (X_1, ..., X_{p-1}) to D at the metric dual of
    Omega(X_1, ..., X_{p-1}, .) and always lands in the commuting half.
    As a tensor it is Q = (-1)^(p-1) sum_k (e_k -| Omega) (x) D_k, and it
    is built as that sum of rank-one ``from_tensor`` maps, starting from the
    zero map.  Each e_k -| Omega is of type (p-1,0)+(0,p-1), so the map is
    faithful on the lambda bases.  Those bases are exact, so a float J gets
    the InvariantViolationError of ``lambda_basis``.
    """
    space = j_struct.space
    p = omega_form.degree
    if p < 2:
        raise InvalidDerivativeError("need a form of degree >= 2")
    if not in_lambda_p(j_struct, omega_form):
        raise InvalidDerivativeError("the base form is not of type (p,0)+(0,p)")
    try:
        d_table = [derivative[i] for i in range(1, space.dim + 1)]
    except KeyError as missing:
        raise InvalidDerivativeError(f"no derivative value at index {missing}") from None
    for d_val in d_table:
        if d_val.degree != p:
            raise InvalidDerivativeError("derivative values must match the base degree")
        if not in_lambda_p(j_struct, d_val):
            raise InvalidDerivativeError("derivative value is not of type (p,0)+(0,p)")
    for i in range(1, space.dim + 1):
        lhs = space.zero_form(p)
        for bit, comp in j_struct.basis_image(i).coeffs.items():
            lhs = lhs + comp * d_table[bit.bit_length() - 1]
        if lhs != bb_j(j_struct, d_table[i - 1]):
            raise InvalidDerivativeError("derivative table does not intertwine J")

    sign = (-1) ** (p - 1)
    terms = (FormValuedMap.from_tensor(j_struct, sign * contract_index(k, omega_form), d_val)
             for k, d_val in enumerate(d_table, start=1))
    zero = FormValuedMap(j_struct, p - 1, p, [{} for _ in lambda_basis(j_struct, p).forms])
    return sum(terms, zero)


# -- torsion tensors -------------------------------------------------------


def _skew_entries(n: int, base: int = 0):
    """Entry table of the skew n x n matrices: the parameters are the entries
    above the diagonal in row-major order, in the columns from ``base`` on,
    and entry[r][c] is the {column: +-1} row of entry (r, c), empty on the
    diagonal.  Every linear condition on the entries combines table rows."""
    entry: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for i, (r, c) in enumerate(combinations(range(n), 2)):
        entry[r][c] = {base + i: 1}
        entry[c][r] = {base + i: -1}
    return entry


def _skew_from_params(vec: dict, n: int, base: int = 0):
    """{column: value} rows of the skew n x n matrix with parameters vec[base + i]."""
    rows: list[dict] = [{} for _ in range(n)]
    for i, (r, c) in enumerate(combinations(range(n), 2)):
        v = vec.get(base + i)
        if v is not None:
            rows[r][c] = v
            rows[c][r] = -v
    return rows


def _bullet_rows(qs, n: int):
    """Rows of (Q o eta)(x, y, z) for x < y < z in the eta parameters, in the
    order of ``basis_masks(n, 3)``, for each Q of ``qs`` in turn; each Q is
    given by its {column: value} rows.

    The bullet is the alternating 3-form sum_a theta_a ^ omega_a, where
    theta_a = sum_x Q[a][x] e^x is row a of Q and omega_a(Y, Z) = <eta_a Y, Z>.
    Parameter i of eta_a is its entry (r, c), r < c, whose 2-form is -e^{rc},
    so it enters the row of the triple x|r|c as -Q[a][x] merge_sign(e^x, e^{rc}).
    That sign table depends on n alone and is built once per call.
    """
    npairs = n * (n - 1) // 2
    pairs = [(1 << r) | (1 << c) for r, c in combinations(range(n), 2)]
    # (parameter, triple, sign of e^x ^ -e^{rc}) for each x
    terms = [[(i, (1 << x) | pair, -merge_sign(1 << x, pair))
              for i, pair in enumerate(pairs) if not pair >> x & 1] for x in range(n)]
    masks = basis_masks(n, 3)
    out = []
    for q_rows in qs:
        rows: dict = {mask: {} for mask in masks}
        for a, q_row in enumerate(q_rows):
            for x, v in q_row.items():
                for i, mask, sign in terms[x]:
                    rows[mask][a * npairs + i] = sign * v
        out += rows.values()
    return out


def _eta_params(etas):
    """The entries of each eta_a above the diagonal: the columns of ``_bullet_rows``."""
    return [eta[r][c] for eta in etas for r, c in combinations(range(len(etas)), 2)]


def torsion_bullet(q_rows, etas):
    """(Q o eta)(X, Y, Z) = cyclic sum of <eta_{Q X} Y, Z> as an n^3 array.

    ``etas`` holds the n x n matrices eta_a = eta_{e_a}, as an element of
    ``admissible_torsion_basis``, skew (else refused); ``q_rows`` is any
    n x n endomorphism matrix, not necessarily skew.  The bullet is
    alternating, so ``_bullet_rows`` evaluated at the entries of the eta_a
    above the diagonal fill the array from the increasing triples.
    """
    n = len(etas)
    if any(len(m) != n or any(len(row) != n for row in m) for m in (q_rows, *etas)):
        raise InvariantViolationError("need an n x n Q and one n x n eta per basis direction")
    if any(eta[r][c] != -eta[c][r] for eta in etas for r in range(n) for c in range(r, n)):
        raise InvariantViolationError("each eta must be skew")
    params = _eta_params(etas)
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for triple, row in zip(combinations(range(n), 3), _bullet_rows([sparse_rows(q_rows)], n)):
        value = sum(v * params[col] for col, v in row.items())
        # the signs of permutations(triple), in its order
        for (x, y, z), sign in zip(permutations(triple), (1, -1, -1, 1, 1, -1)):
            out[x][y][z] = sign * value
    return out


def _structural_rows(j_struct: ComplexStructure):
    """Rows of the constraints on per-direction skew maps eta_X that make
    them an almost-Kahler intrinsic torsion, in eta parameters:

    * cyclic sum <eta_X Y, Z> + <eta_Y Z, X> + <eta_Z X, Y> = 0,
    * eta_{J X} = eta_X J.

    eta_X J = -J eta_X needs no rows: eta_X J = eta_{J X} is skew, and
    (eta_X J)^T = J eta_X since J^T = -J.
    """
    n = j_struct.space.dim
    npairs = n * (n - 1) // 2
    etas = [_skew_entries(n, a * npairs) for a in range(n)]
    # den J is skew, so its columns are its integer rows negated; each row
    # below is free of J or linear in it, so den only scales it
    j_cols = [{k: -v for k, v in row.items()} for row in j_struct.num_rows]
    # the cyclic identity on increasing triples is the bullet of the identity
    rows = _bullet_rows([[{i: 1} for i in range(n)]], n)
    for a, eta in enumerate(etas):
        # row r of the entry table of eta_a J is compose(J columns, eta[r])
        eta_j = [compose(j_cols, eta_r) for eta_r in eta]
        # eta_{J e_a} - eta_a J, entrywise, with eta_{J e_a} = sum_b J[b][a] eta_b
        for r in range(n):
            for c in range(n):
                row: dict = {}
                for b, v in j_cols[a].items():
                    add_scaled(row, v, etas[b][r][c])
                add_scaled(row, -1, eta_j[r][c])
                if row:
                    rows.append(row)
    return rows, npairs


def admissible_torsion_basis(j_struct: ComplexStructure):
    """Exact basis of the torsion tensors satisfying the ``_structural_rows``
    constraints; each element is the list of its n dense skew matrices eta_a,
    with the primitive integer entries of its ``exact_nullspace`` vector."""
    n = j_struct.space.dim
    rows, npairs = _structural_rows(j_struct)
    return [[dense_rows(_skew_from_params(vec, n, a * npairs), n) for a in range(n)]
            for vec in exact_nullspace(rows, n * npairs)]


def invariant_skew_basis(j_struct: ComplexStructure):
    """Basis of the skew endomorphisms commuting with J (dimension k^2)."""
    return _constrained_skew_basis(j_struct, commuting=True)


def anti_invariant_skew_basis(j_struct: ComplexStructure):
    """Basis of the skew endomorphisms anticommuting with J."""
    return _constrained_skew_basis(j_struct, commuting=False)


def _constrained_skew_basis(j_struct: ComplexStructure, commuting: bool):
    """The skew F with F J = J F (commuting) or F J = -J F, as {column: value} rows.

    For skew F and J, (J F)[r][c] = (F J)[c][r], so both conditions are read
    off the entry table of F J, on the entries r <= c (den F J, on ints).
    """
    n = j_struct.space.dim
    j_cols = [{k: -v for k, v in row.items()} for row in j_struct.num_rows]
    fj = [compose(j_cols, row) for row in _skew_entries(n)]
    sign = -1 if commuting else 1
    rows = [add_scaled(dict(fj[r][c]), sign, fj[c][r]) for r in range(n) for c in range(r, n)]
    return [_skew_from_params(vec, n) for vec in exact_nullspace(rows, n * (n - 1) // 2)]


def _product_basis(mbasis, sign: int):
    """A basis of span{F G + sign G F : F, G in mbasis} as {column: value} rows:
    the products flattened to n^2 columns, reduced by ``row_basis``."""
    n = len(mbasis[0]) if mbasis else 0
    flat = []
    for i, f in enumerate(mbasis):
        for g in mbasis[i:]:
            product = combine(compose(f, g), compose(g, f), 1, sign)
            flat.append({r * n + c: v for r, row in enumerate(product) for c, v in row.items()})
    out = []
    for vec in row_basis(flat, n * n):
        rows: list[dict] = [{} for _ in range(n)]
        for col, v in vec.items():
            r, c = divmod(col, n)
            rows[r][c] = v
        out.append(rows)
    return out


def van_kernel_dimension(j_struct: ComplexStructure) -> int:
    """Dimension of the torsion tensors of J killed by every J-invariant bullet.

    Assembles the cyclic and J-compatibility constraints together with
    (F o eta) = 0 for a basis of J-invariant skew F on R^{2k} and returns
    the exact nullspace dimension.  Zero from 2k = 6 on; the value at
    2k = 4 is reported by the verification suite without an assertion.
    """
    n = j_struct.space.dim
    rows, npairs = _structural_rows(j_struct)
    rows += _bullet_rows(invariant_skew_basis(j_struct), n)
    return n * npairs - exact_rank(rows, n * npairs)


def bracket_bases(j_struct: ComplexStructure):
    """``(squares, commutators)``: ``_product_basis`` bases of
    span{F G + G F} and span{[F, G]} over the J-anticommuting skews F, G.
    On R^{2k} the commutators span k^2 dimensions, those of the J-invariant
    skews, for k >= 3, and fewer at k = 2."""
    mbasis = anti_invariant_skew_basis(j_struct)
    return _product_basis(mbasis, 1), _product_basis(mbasis, -1)


def bracket_bullet_in_span(basis, squares, commutators) -> int:
    """Commutator bullets follow from squared bullets of the anticommuting skews.

    The rank the rows C: ([F, G]) o eta = 0 add to the structural torsion
    rows S of J and the rows B: (F G + G F) o eta = 0 for the polarized
    squares of the J-anticommuting skews; zero exactly when every commutator
    bullet lies in their span.  ``basis`` is the ``admissible_torsion_basis``
    N of the kernel of S, of m elements.  By rank-nullity
    rank [S; X] = rank S + rank (X N) for any rows X, so that rank is
    rank [B N; C N] - rank (B N) on the m admissible coordinates, and S is
    not eliminated again, and B N once: its ``row_basis`` stands in for it
    under C N.  ``bracket_bases`` gives the products (bullet rows are linear
    in them).
    """
    if not basis:
        return 0
    n, m = len(basis[0]), len(basis)
    # row i of N holds parameter i of every element, one column per element
    n_rows: list[dict] = [{} for _ in range(n * n * (n - 1) // 2)]
    for col, etas in enumerate(basis):
        for i, v in enumerate(_eta_params(etas)):
            if v:
                n_rows[i][col] = v
    sym, comm = (compose(_bullet_rows(prods, n), n_rows) for prods in (squares, commutators))
    pivots = row_basis(sym, m)
    return exact_rank(pivots + comm, m) - len(pivots)
