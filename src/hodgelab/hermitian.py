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
on it.  A rational J is held as integer rows over one denominator, so every
table compiled from it holds ints, and a form divides once, where it is read.
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
    basis_masks,
    inner,
    mask_to_indices,
    wedge,
)
from .harmonic import SkewEndo
from .linalg import _make_primitive, add_scaled, combine, compose, integer_rows, sparse_rows


class ComplexStructure(SkewEndo):
    """An orthogonal complex structure: a skew map J with J^2 = -I on an
    even-dimensional space.  For a skew J, J^T J = -J^2, so the inherited
    skew check and J^2 + I = 0 make J orthogonal; no J^T J is formed.

    ``rows`` is the matrix acting on column vectors of components, so the
    image of the i-th basis vector is column i; ``sparse_rows`` holds the
    same rows as {column: value} dicts, and row i is the pullback of e^i.
    ``num_rows`` holds N = den J as {column: int} rows, ``den`` > 0 (on float
    ``sparse_rows``, den 1); J^2 = -I is checked as N N + den^2 I = 0.
    ``_cache`` holds the tables built by ``per_structure`` functions.
    """

    __slots__ = ("sparse_rows", "num_rows", "den", "_cache")

    def __init__(self, space: Space, rows):
        if space.dim % 2:
            raise InvariantViolationError("complex structure needs even dimension")
        super().__init__(space, rows)
        j = self.sparse_rows = sparse_rows(self.rows)
        entries = ((r, c, v) for r, row in enumerate(j) for c, v in row.items())
        num, den = integer_rows(entries, space.dim) if space.backend == "exact" else (j, 1)
        self.num_rows, self.den = num, den
        sq_plus_id = combine(compose(num, num), [{i: den * den} for i in range(space.dim)])
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

    def basis_image(self, i: int) -> Form:
        """J e_i as a 1-form (column i of the matrix), 1-based."""
        return Form(self.space, 1, {1 << r: row[i - 1] for r, row in enumerate(self.rows)})

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
    """``(table, tden)``: the sparse table mask -> {mask: numerator} of the
    operator with basis images ``image(j_struct, mask)`` on one degree; the
    images read N, so tden = den^p for the pullback and den for the rest."""
    table = {m: image(j_struct, m) for m in basis_masks(j_struct.space.dim, degree)}
    return table, j_struct.den ** (degree if image is _pullback_image else 1)


def _numerators_on(j_struct: ComplexStructure, alpha: Form) -> tuple:
    """``(nums, den)`` of alpha, which must live on the space of J."""
    if alpha.space != j_struct.space:
        raise SpaceMismatchError(f"{alpha.space} vs {j_struct.space}")
    return alpha.space.numerators(alpha.coeffs)


def _apply_compiled(j_struct: ComplexStructure, image, alpha: Form) -> tuple:
    """``(nums, den)`` of A alpha, A with basis images ``image(j_struct, mask)``.

    With ``(T, tden)`` the table of A compiled once per (J, image, degree),
    T = tden A, the numerators of alpha = nums / den go through T as one row
    of ``linalg.compose``, over tden den; the caller divides once.
    """
    nums, den = _numerators_on(j_struct, alpha)
    table, tden = _compiled(j_struct, image, alpha.degree)
    return compose([nums], table)[0], tden * den


def _lagrange(j_struct: ComplexStructure, degree: int, nums: dict, shifts) -> tuple:
    """``(out, scale)``: the product of the factors (curly_j^2 + k), k in
    ``shifts``, applied to nums of the given degree, as integer numerators
    over scale, so the result is out / scale times whatever nums is over.

    With ``(T, tden)`` the compiled curly_j table, T = tden curly_j, each
    factor is out -> T(T out) + tden^2 k out, so scale = tden^(2 len(shifts)).
    nums is never modified here, but with no shifts out is nums itself.
    """
    table, tden = _compiled(j_struct, _curly_j_image, degree)
    out = nums
    for k in shifts:
        twice = compose(compose([out], table), table)[0]
        out = add_scaled(twice, tden * tden * k, out) if k else twice
    return out, tden ** (2 * len(shifts))


def _pullback_image(j_struct: ComplexStructure, mask: int) -> dict:
    """den^p J e^I = (den J e^{i1}) ^ ... ^ (den J e^{ip}); row i of
    ``num_rows`` is den times the pullback of e^i."""
    space = j_struct.space
    factors = (
        Form(space, 1, {1 << col: v for col, v in j_struct.num_rows[i - 1].items()})
        for i in mask_to_indices(mask)
    )
    return reduce(wedge, factors, Form(space, 0, {0: space.scalar(1)})).coeffs


def _curly_j_image(j_struct: ComplexStructure, mask: int) -> dict:
    """den cal-J e^I: each index i of I in turn is replaced by row i of N = ``num_rows``.

    e^I is e^i ^ e^(I-i) up to the sign of the indices of I-i below i, and
    sorting a new index c into I-i gives the sign of those below c.
    """
    image: dict = {}
    for i in mask_to_indices(mask):
        rest = mask ^ (1 << (i - 1))
        below = (rest & ((1 << (i - 1)) - 1)).bit_count()
        for col, v in j_struct.num_rows[i - 1].items():
            if not rest >> col & 1:
                target = rest | (1 << col)
                sign = below + (rest & ((1 << col) - 1)).bit_count()
                image[target] = image.get(target, 0) + (-v if sign & 1 else v)
    return image


def j_pullback(j_struct: ComplexStructure, alpha: Form) -> Form:
    """(J alpha)(v1, ..., vp) = alpha(J v1, ..., J vp); an isometry with
    J(J alpha) = (-1)^p alpha."""
    nums, den = _apply_compiled(j_struct, _pullback_image, alpha)
    return alpha.space.from_numerators(alpha.degree, nums, den)


def curly_j(j_struct: ComplexStructure, alpha: Form) -> Form:
    """The derivation extension: J is applied to one argument slot at a time."""
    nums, den = _apply_compiled(j_struct, _curly_j_image, alpha)
    return alpha.space.from_numerators(alpha.degree, nums, den)


def eigen_residual(j_struct: ComplexStructure, degree: int, nums: dict, den, p: int, q: int) -> Form:
    """curly_j^2(alpha) + (p-q)^2 alpha for alpha = nums / den of the given
    degree: zero iff alpha is pure of bidegree (p, q).  One ``_lagrange``
    factor on the integers; only the nonzero entries divide."""
    out, scale = _lagrange(j_struct, degree, nums, [(p - q) ** 2])
    return j_struct.space.from_numerators(degree, out, scale * den)


def bidegree_project(j_struct: ComplexStructure, alpha: Form, p: int, q: int) -> Form:
    """Component of alpha in the -(p-q)^2 eigenspace of the squared derivation.

    Realized as exact Lagrange interpolation in curly_j^2 over the spectrum
    {-(s-2i)^2 : 0 <= i <= s//2} of degree s = p+q; the components over all
    (p, q) with p >= q sum back to alpha and are mutually orthogonal.  Each
    factor (curly_j^2 + (s-2i)^2) / ((s-2i)^2 - (p-q)^2), i != q, is an
    ``eigen_residual`` on the numerators of the running result.
    """
    if p < q or q < 0:
        raise DegreeMismatchError("need p >= q >= 0")
    if p + q != alpha.degree:
        raise DegreeMismatchError(f"p+q = {p + q} does not match degree {alpha.degree}")
    if alpha.space != j_struct.space:
        raise SpaceMismatchError(f"{alpha.space} vs {j_struct.space}")
    s, space, result = alpha.degree, alpha.space, alpha
    for i in range(s // 2 + 1):
        if i != q:
            scale = space.ratio(1, (s - 2 * i) ** 2 - (p - q) ** 2)
            result = eigen_residual(j_struct, s, *space.numerators(result.coeffs), s - i, i) * scale
    return result


def _lambda_image(j_struct: ComplexStructure, alpha: Form) -> tuple:
    """``(image, scale)``, curly_j alpha = image / scale, for alpha in the
    -p^2 eigenspace of curly_j^2 (type (p,0)+(0,p)), else NotInLambdaPError:
    with T = tden curly_j and alpha = nums / den, T(T nums) = -p^2 tden^2 nums
    on ints, or ``Form.isclose`` on float."""
    space, p = alpha.space, alpha.degree
    image, scale = _apply_compiled(j_struct, _curly_j_image, alpha)
    twice, tden = _apply_compiled(j_struct, _curly_j_image, Form(space, p, image))
    if space.backend == "exact":
        member = not add_scaled(twice, p * p * tden * tden, space.numerators(alpha.coeffs)[0])
    else:
        member = Form(space, p, twice).isclose(alpha * -(p * p))
    if not member:
        raise NotInLambdaPError("form is not of type (p,0)+(0,p)")
    return image, scale


def in_lambda_p(j_struct: ComplexStructure, alpha: Form) -> bool:
    """Whether alpha is of type (p,0)+(0,p)."""
    try:
        _lambda_image(j_struct, alpha)
    except NotInLambdaPError:
        return False
    return True


def bb_j(j_struct: ComplexStructure, alpha: Form) -> Form:
    """The complex-structure action on type-(p,0)+(0,p) forms: (1/p) curly_j.

    Coincides with inserting J into the first argument slot and squares to -1
    on that subspace.  The image of the membership test ``_lambda_image`` is
    divided once by its scale times p, or times 1/p on float.
    """
    if alpha.is_zero():
        return alpha
    if alpha.degree == 0:
        raise DegreeUnderflowError("bb_j needs degree >= 1")
    space, p = alpha.space, alpha.degree
    image, scale = _lambda_image(j_struct, alpha)
    if space.backend == "exact":
        return space.from_numerators(p, image, scale * p)
    return Form(space, p, image) * space.ratio(1, p)


def _lambda_dim(dim: int, degree: int) -> int:
    """Dimension of the type-(p,0)+(0,p) forms of degree p on R^dim:
    2 C(dim/2, p) for 1 <= p <= dim/2, 1 for p = 0 and 0 above dim/2."""
    if degree == 0:
        return 1
    return 2 * comb(dim // 2, degree)


class LambdaBasis:
    """Deterministic orthogonal basis of a type-(p,0)+(0,p) subspace.

    The increasing-multi-index basis is projected in lexicographic order and
    orthogonalized, all on integers.  Each projection bidegree_project(e^I,
    p, 0) is, up to a nonzero scalar, the ``_lagrange`` product of the
    factors (curly_j^2 + (p-2i)^2), 1 <= i <= p//2, applied to e^I, with its
    content divided out.  Fraction-free Gram-Schmidt
    (Erlingsson, Kaltofen and Musser, ISSAC 1996) replaces a candidate c by
    (ns/g) c - (<c, b>/g) b with ns = <b, b> and g = gcd(ns, <c, b>), a
    nonzero multiple of c - (<c, b>/ns) b.  A surviving candidate is scaled
    to its primitive integer form (coprime, positive lead), so each basis
    form is the one rational Gram-Schmidt gives after the same scaling, and
    expansion coefficients are <f, b>/<b, b>.  Normalization to unit length
    is impossible over the rationals, which is why the basis is orthogonal
    rather than orthonormal.  The projection stops once the basis reaches
    ``_lambda_dim``: every later candidate would reduce to zero.

    ``_by_mask`` is the coordinate table of the basis, filled once: each
    mask of the degree maps to {d: b_d[mask]} over the forms b_d with a
    term on it.  ``pairings`` reads every <alpha, b_d> off that table in
    one walk over alpha's terms; ``bb_j_matrix`` and the ``FormValuedMap``
    constructors go through it, and divide by <b, b> themselves.
    """

    def __init__(self, j_struct: ComplexStructure, degree: int):
        self.j = j_struct
        self.degree = degree
        space = j_struct.space
        rank = _lambda_dim(space.dim, degree)
        shifts = [(degree - 2 * i) ** 2 for i in range(1, degree // 2 + 1)]
        self.forms: list[Form] = []
        self.norms_sq: list = []
        for mask in basis_masks(space.dim, degree):
            if len(self.forms) == rank:
                break
            candidate = _make_primitive(_lagrange(j_struct, degree, {mask: 1}, shifts)[0])
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
        self._by_mask: dict = {m: {} for m in basis_masks(space.dim, degree)}
        for d, b in enumerate(self.forms):
            for m, v in b.coeffs.items():
                self._by_mask[m][d] = v

    @property
    def dim(self) -> int:
        return len(self.forms)

    def pairings(self, alpha: Form) -> dict:
        """{d: <alpha, b_d>} for the basis forms b_d that share a term with
        alpha; a missing d pairs to zero.  Raises like ``inner`` when alpha
        lives on another space or has another degree."""
        if alpha.space != self.j.space:
            raise SpaceMismatchError(f"{alpha.space} vs {self.j.space}")
        if alpha.degree != self.degree:
            raise DegreeMismatchError(f"degree {alpha.degree} vs {self.degree}")
        table = self._by_mask
        out: dict = {}
        for m, c in alpha.coeffs.items():
            for d, v in table[m].items():
                out[d] = out.get(d, 0) + c * v
        return out


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
def bb_j_matrix(j_struct: ComplexStructure, degree: int):
    """``(rows, den)``: bb_j over the cached orthogonal basis (cached per
    degree) as {column: int} rows over one positive ``den``, 1 on the
    standard J; column d holds den times the coordinates of curly_j(b_d) / p.

    Each b_d passes the membership test of ``_lambda_image``, whose integer
    image is paired with the basis.
    """
    basis = lambda_basis(j_struct, degree)
    images = (_lambda_image(j_struct, b) for b in basis.forms)
    entries = (
        (r, d, Fraction(v, basis.norms_sq[r] * degree * scale))
        for d, (image, scale) in enumerate(images)
        for r, v in basis.pairings(Form(j_struct.space, degree, image)).items()
    )
    return integer_rows(entries, basis.dim)
