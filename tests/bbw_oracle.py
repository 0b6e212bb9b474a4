"""The generic Borel-Bott-Weil algorithm: sort weight + rho, count the
inversions (type A) or the positive roots made negative (type C), and take
Weyl's dimension product over all pairs.  `igq.bbw` reads the same answers
off the two leading entries in closed form; this is its oracle."""

from igq.bbw import CohomologyResult


def weyl_dimension_gl(hw) -> int:
    """Dimension of the GL irrep with the given highest weight."""
    m = len(hw)
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= hw[i] - hw[j] + j - i
            den *= j - i
    d, r = divmod(num, den)
    if r or d <= 0:
        raise ArithmeticError("Weyl dimension of %r is %d/%d" % (hw, num, den))
    return d


def weyl_dimension_sp(hw) -> int:
    """Dimension of the Sp(2k) irrep with the given highest weight."""
    k = len(hw)
    rho = [k - i for i in range(k)]
    l = [hw[i] + rho[i] for i in range(k)]
    num = den = 1
    for i in range(k):
        num *= l[i]
        den *= rho[i]
        for j in range(i + 1, k):
            num *= l[i] ** 2 - l[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    d, r = divmod(num, den)
    if r or d <= 0:
        raise ArithmeticError("Weyl dimension of %r is %d/%d" % (hw, num, den))
    return d


def bbw_gl(weight, m: int) -> CohomologyResult:
    """Cohomology of the irreducible homogeneous bundle on G(2,m) with the
    given length-m weight."""
    weight = tuple(weight)
    if len(weight) != m:
        raise ValueError("weight must have length %d" % m)
    rho = tuple(m - 1 - i for i in range(m))
    mu = tuple(w + r for w, r in zip(weight, rho))
    if len(set(mu)) != m:
        return CohomologyResult(True)
    inversions = sum(
        1 for i in range(m) for j in range(i + 1, m) if mu[i] < mu[j]
    )
    if inversions > m * (m - 1) // 2:
        raise ArithmeticError("length %d exceeds the full flag bound" % inversions)
    hw = tuple(x - r for x, r in zip(sorted(mu, reverse=True), rho))
    return CohomologyResult(False, inversions, weyl_dimension_gl(hw))


def bbw_sp(weight, k: int) -> CohomologyResult:
    """Cohomology of the irreducible homogeneous bundle on IG(2,2k) with the
    given length-k weight."""
    weight = tuple(weight)
    if len(weight) != k:
        raise ValueError("weight must have length %d" % k)
    rho = tuple(k - i for i in range(k))
    mu = tuple(w + r for w, r in zip(weight, rho))
    if 0 in mu or len({abs(x) for x in mu}) != k:
        return CohomologyResult(True)
    length = (
        sum(1 for i in range(k) for j in range(i + 1, k) if mu[i] < mu[j])
        + sum(1 for i in range(k) for j in range(i + 1, k) if mu[i] + mu[j] < 0)
        + sum(1 for x in mu if x < 0)
    )
    if length > k * k:
        raise ArithmeticError("length %d exceeds the full flag bound" % length)
    hw = tuple(x - r for x, r in zip(sorted((abs(x) for x in mu), reverse=True), rho))
    return CohomologyResult(False, length, weyl_dimension_sp(hw))
