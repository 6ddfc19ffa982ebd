"""Complex-structure machinery on the exterior algebra.

Two extensions of an orthogonal complex structure J (J^2 = -I) act on forms:

* ``j_pullback``: (J alpha)(v1, ..., vp) = alpha(J v1, ..., J vp),
* ``curly_j``: the derivation (cal-J alpha)(v1, ..., vp) =
  sum_k alpha(v1, ..., J vk, ..., vp).

The square of the derivation has integer spectrum -(p-q)^2 on degree p+q,
which grades each degree into bidegree components; projections are Lagrange
polynomials in the squared derivation, hence exact on the rational backend.
``lambda_p`` denotes the real forms of complex type (p,0)+(0,p), the -p^2
eigenspace on degree p, and bb_j is the complex-structure action (1/p) cal-J
on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce, wraps
from math import comb, gcd

from .errors import (
    DegreeMismatchError,
    DegreeUnderflowError,
    InvariantViolationError,
    NotInLambdaPError,
    SpaceMismatchError,
)
from .exterior import (
    Form,
    Space,
    Vector,
    basis_masks,
    inner,
    mask_to_indices,
    wedge,
)
from .harmonic import SkewEndo
from .linalg import _make_primitive, add_scaled, combine, compose, sparse_rows


class ComplexStructure(SkewEndo):
    """An orthogonal complex structure: a skew map J with J^2 = -I on an
    even-dimensional space.  For a skew J, J^T J = -J^2, so the inherited
    skew check and J^2 + I = 0 make J orthogonal; no J^T J is formed.

    ``rows`` is the matrix acting on column vectors of components, so the
    image of the i-th basis vector is column i; ``sparse_rows`` holds the
    same rows as {column: value} dicts, and row i is the pullback of e^i.
    ``_cache`` holds the tables built by ``per_structure`` functions.
    """

    __slots__ = ("sparse_rows", "_cache")

    def __init__(self, space: Space, rows):
        if space.dim % 2:
            raise InvariantViolationError("complex structure needs even dimension")
        super().__init__(space, rows)
        j = self.sparse_rows = sparse_rows(self.rows)
        sq_plus_id = combine(compose(j, j), [{i: 1} for i in range(space.dim)])
        if any(abs(v) > space.tol for row in sq_plus_id for v in row.values()):
            raise InvariantViolationError("matrix is not an orthogonal complex structure")
        self._cache: dict = {}

    @classmethod
    def standard(cls, space: Space) -> "ComplexStructure":
        """J e_{2i-1} = e_{2i}, the block rotation structure."""
        n = space.dim
        rows = [[0] * n for _ in range(n)]
        for i in range(0, n, 2):
            rows[i][i + 1] = -space.one
            rows[i + 1][i] = space.one
        return cls(space, rows)

    def basis_image(self, i: int) -> Vector:
        """J e_i as a vector (column i of the matrix), 1-based."""
        return Vector(self.space, [row[i - 1] for row in self.rows])

    def __hash__(self):
        return hash((self.space, self.rows))


def per_structure(build):
    """Memoize ``build(j_struct, *args)`` in ``j_struct._cache`` under the key
    ``(build, *args)``: each table is built once per structure and arguments.

    Equal but distinct structures keep separate tables.  The hit path is one
    dict lookup.
    """

    @wraps(build)
    def cached(j_struct: ComplexStructure, *args):
        key = (build, *args)
        try:
            return j_struct._cache[key]
        except KeyError:
            value = j_struct._cache[key] = build(j_struct, *args)
            return value

    return cached


@per_structure
def _compiled(j_struct: ComplexStructure, image, degree: int):
    """``(table, den)``: the sparse table mask -> {mask: numerator} of
    ``image`` on one degree, over one common denominator ``den``."""
    masks = basis_masks(j_struct.space.dim, degree)
    flat, den = j_struct.space.numerators(
        {(m, k): v for m in masks for k, v in image(j_struct, m).items()}
    )
    table: dict = {m: {} for m in masks}
    for (m, k), v in flat.items():
        table[m][k] = v
    return table, den


def _apply_numerators(
    j_struct: ComplexStructure, image, degree: int, nums: dict, den, power: int = 1, shift=0
) -> Form:
    """The form (A^power + shift) alpha for alpha = nums / den of the given
    degree, A the operator with basis images ``image(j_struct, mask)``.

    With ``(T, tden)`` the table of A compiled once per (J, image, degree),
    T = tden A, the numerators meet T ``power`` times and shift tden^power
    nums is added, all on integers; each nonzero entry is then divided once
    by tden^power den.
    """
    table, tden = _compiled(j_struct, image, degree)
    out = nums
    for _ in range(power):
        prev, out = out, {}
        for mask, coeff in prev.items():
            add_scaled(out, coeff, table[mask])
    tden **= power
    if shift:
        add_scaled(out, shift * tden, nums)
    den *= tden
    space = j_struct.space
    if den != 1:
        out = {m: space.ratio(v, den) for m, v in out.items()}
    return Form(space, degree, out)


def _apply_compiled(j_struct: ComplexStructure, image, alpha: Form, power: int = 1) -> Form:
    """``_apply_numerators`` on the numerators of alpha."""
    if alpha.space != j_struct.space:
        raise SpaceMismatchError(f"{alpha.space} vs {j_struct.space}")
    nums, den = alpha.space.numerators(alpha.coeffs)
    return _apply_numerators(j_struct, image, alpha.degree, nums, den, power)


def _pullback_image(j_struct: ComplexStructure, mask: int) -> dict:
    """J e^I = J e^{i1} ^ ... ^ J e^{ip}; row i of J is the pullback of e^i."""
    space = j_struct.space
    factors = (
        Form(space, 1, {1 << col: v for col, v in j_struct.sparse_rows[i - 1].items()})
        for i in mask_to_indices(mask)
    )
    return reduce(wedge, factors, Form(space, 0, {0: space.scalar(1)})).coeffs


def _curly_j_image(j_struct: ComplexStructure, mask: int) -> dict:
    """cal-J e^I: each index i of I in turn is replaced by the pullback of e^i.

    e^I is e^i ^ e^(I-i) up to the sign of the indices of I-i below i, and
    sorting a new index c into I-i gives the sign of those below c.
    """
    image: dict = {}
    for i in mask_to_indices(mask):
        rest = mask ^ (1 << (i - 1))
        below = (rest & ((1 << (i - 1)) - 1)).bit_count()
        for col, v in j_struct.sparse_rows[i - 1].items():
            if not rest >> col & 1:
                target = rest | (1 << col)
                sign = below + (rest & ((1 << col) - 1)).bit_count()
                image[target] = image.get(target, 0) + (-v if sign & 1 else v)
    return image


def j_pullback(j_struct: ComplexStructure, alpha: Form) -> Form:
    """(J alpha)(v1, ..., vp) = alpha(J v1, ..., J vp); an isometry with
    J(J alpha) = (-1)^p alpha."""
    return _apply_compiled(j_struct, _pullback_image, alpha)


def curly_j(j_struct: ComplexStructure, alpha: Form) -> Form:
    """The derivation extension: J is applied to one argument slot at a time."""
    return _apply_compiled(j_struct, _curly_j_image, alpha)


def curly_j_squared(j_struct: ComplexStructure, alpha: Form) -> Form:
    """curly_j twice, on the integer numerators between the two steps."""
    return _apply_compiled(j_struct, _curly_j_image, alpha, 2)


def eigen_residual(j_struct: ComplexStructure, degree: int, nums: dict, den, p: int, q: int) -> Form:
    """curly_j^2(alpha) + (p-q)^2 alpha for alpha = nums / den of the given
    degree: zero iff alpha is pure of bidegree (p, q).  Computed on integers
    as (T^2 nums + (p-q)^2 tden^2 nums) / (tden^2 den), with (T, tden) the
    compiled curly_j table; only the nonzero entries divide."""
    return _apply_numerators(j_struct, _curly_j_image, degree, nums, den, 2, (p - q) ** 2)


def bidegree_project(j_struct: ComplexStructure, alpha: Form, p: int, q: int) -> Form:
    """Component of alpha in the -(p-q)^2 eigenspace of the squared derivation.

    Realized as exact Lagrange interpolation in curly_j^2 over the spectrum
    {-(s-2j)^2 : 0 <= j <= s//2} of degree s = p+q; the components over all
    (p, q) with p >= q sum back to alpha and are mutually orthogonal.
    """
    if p < q or q < 0:
        raise DegreeMismatchError("need p >= q >= 0")
    if p + q != alpha.degree:
        raise DegreeMismatchError(f"p+q = {p + q} does not match degree {alpha.degree}")
    s = alpha.degree
    target = -((p - q) ** 2)
    result = alpha
    for j in range(s // 2 + 1):
        ev = -((s - 2 * j) ** 2)
        if ev == target:
            continue
        num = curly_j_squared(j_struct, result) - ev * result
        result = num * alpha.space.ratio(1, target - ev)
    return result


def _is_lambda_eigen(alpha: Form, squared: Form) -> bool:
    """Whether squared = curly_j^2 alpha equals -p^2 alpha: on degree p the
    type-(p,0)+(0,p) forms are exactly that eigenspace."""
    target = alpha * -(alpha.degree**2)
    if alpha.space.backend == "exact":
        return squared == target
    return squared.isclose(target)


def in_lambda_p(j_struct: ComplexStructure, alpha: Form) -> bool:
    return _is_lambda_eigen(alpha, curly_j_squared(j_struct, alpha))


def bb_j(j_struct: ComplexStructure, alpha: Form) -> Form:
    """The complex-structure action on type-(p,0)+(0,p) forms: (1/p) curly_j.

    Coincides with inserting J into the first argument slot and squares to -1
    on that subspace.  The image curly_j alpha also serves the membership
    test, so curly_j runs twice per call.
    """
    if alpha.is_zero():
        return alpha
    if alpha.degree == 0:
        raise DegreeUnderflowError("bb_j needs degree >= 1")
    image = curly_j(j_struct, alpha)
    if not _is_lambda_eigen(alpha, curly_j(j_struct, image)):
        raise NotInLambdaPError("form is not of type (p,0)+(0,p)")
    return image * alpha.space.ratio(1, alpha.degree)


def _lambda_dim(dim: int, degree: int) -> int:
    """Dimension of the type-(p,0)+(0,p) forms of degree p on R^dim:
    2 C(dim/2, p) for 1 <= p <= dim/2, 1 for p = 0 and 0 above dim/2."""
    if degree == 0:
        return 1
    return 2 * comb(dim // 2, degree)


def _lambda_candidate(j_struct: ComplexStructure, mask: int) -> dict:
    """A nonzero multiple of bidegree_project(e^I, p, 0) for the mask I, as
    {mask: int}; empty when the projection vanishes.

    With ``(T, den)`` the compiled cal-J table, T = den cal-J is an integer
    operator, and each Lagrange factor (cal-J^2 - ev)/(-p^2 - ev) of
    ``bidegree_project`` is (T^2 - den^2 ev) up to a nonzero scalar.  The
    product of those integer factors is applied to e^I, and the content is
    divided out after each one.
    """
    degree = mask.bit_count()
    table, den = _compiled(j_struct, _curly_j_image, degree)
    vec = {mask: 1}
    for j in range(1, degree // 2 + 1):
        twice = compose(compose([vec], table), table)[0]
        vec = add_scaled(twice, (den * (degree - 2 * j)) ** 2, vec)
        if not vec:
            break
        _make_primitive(vec)
    return vec


class LambdaBasis:
    """Deterministic orthogonal basis of a type-(p,0)+(0,p) subspace.

    The increasing-multi-index basis is projected in lexicographic order and
    orthogonalized, all on integers: ``_lambda_candidate`` gives each
    projection up to a nonzero integer, and fraction-free Gram-Schmidt
    (Erlingsson, Kaltofen and Musser, ISSAC 1996) replaces a candidate c by
    (ns/g) c - (<c, b>/g) b with ns = <b, b> and g = gcd(ns, <c, b>), a
    nonzero multiple of c - (<c, b>/ns) b.  A surviving candidate is scaled
    to its primitive integer form (coprime, positive lead), so each basis
    form is the one rational Gram-Schmidt gives after the same scaling, and
    expansion coefficients are <f, b>/<b, b>.  Normalization to unit length
    is impossible over the rationals, which is why the basis is orthogonal
    rather than orthonormal.  The projection stops once the basis reaches
    ``_lambda_dim``: every later candidate would reduce to zero.
    """

    def __init__(self, j_struct: ComplexStructure, degree: int):
        self.j = j_struct
        self.degree = degree
        space = j_struct.space
        rank = _lambda_dim(space.dim, degree)
        self.forms: list[Form] = []
        self.norms_sq: list = []
        for mask in basis_masks(space.dim, degree):
            if len(self.forms) == rank:
                break
            candidate = _lambda_candidate(j_struct, mask)
            for b, ns in zip(self.forms, self.norms_sq):
                x = sum(v * candidate[m] for m, v in b.coeffs.items() if m in candidate)
                if x:
                    g = gcd(ns, x)
                    if ns != g:
                        candidate = {m: v * (ns // g) for m, v in candidate.items()}
                    add_scaled(candidate, -(x // g), b.coeffs)
            if candidate:
                b = _primitive_integer_form(Form(space, degree, candidate))
                self.forms.append(b)
                self.norms_sq.append(inner(b, b))

    @property
    def dim(self) -> int:
        return len(self.forms)

    def expand(self, alpha: Form) -> list:
        """Coefficients of a member form over the orthogonal basis."""
        return [Fraction(inner(alpha, b), ns) for b, ns in zip(self.forms, self.norms_sq)]


def _primitive_integer_form(alpha: Form) -> Form:
    # numerators returns the coefficient dict itself when it holds only ints
    scaled = _make_primitive(dict(alpha.space.numerators(alpha.coeffs)[0]))
    lead = scaled[min(scaled)]
    if lead < 0:
        scaled = {m: -v for m, v in scaled.items()}
    return Form(alpha.space, alpha.degree, scaled)


@per_structure
def lambda_basis(j_struct: ComplexStructure, degree: int) -> LambdaBasis:
    """Cached orthogonal basis of the (p,0)+(0,p) forms of the given degree."""
    if j_struct.space.backend != "exact":
        raise InvariantViolationError("lambda bases are computed on the exact backend")
    return LambdaBasis(j_struct, degree)


@per_structure
def bb_j_matrix(j_struct: ComplexStructure, degree: int) -> list[dict]:
    """{column: value} rows of bb_j over the cached orthogonal basis (cached
    per degree); column d holds the coordinates of curly_j(b_d) / p.

    The basis forms are members by construction, so the membership test of
    ``bb_j`` and its second curly_j are not repeated here; the tests check
    curly_j^2 b = -p^2 b on every basis form.
    """
    basis = lambda_basis(j_struct, degree)
    pairs = list(zip(basis.forms, basis.norms_sq))
    cols = [
        [Fraction(inner(image, c), ns * degree) for c, ns in pairs]
        for image in (curly_j(j_struct, b) for b in basis.forms)
    ]
    return sparse_rows(zip(*cols))
