"""Containers for binary programs and the exact reformulations between them.

Two program forms are supported: objectives ``c'x + x'Fx`` over ``{0,1}^n``
with integer equality/inequality constraints, and the same objective over
``{-1,1}^n`` with equality constraints only.  The transforms here are exact:
objective values and feasibility are preserved pointwise, with additive
constants carried explicitly instead of being dropped.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

EQ = "EQ"
LE = "LE"


class InstanceFormatError(ValueError):
    """Raised when instance data violates the schema or its invariants."""


class InfeasibleRowError(ValueError):
    """An LE row whose slack range M_j is negative can never hold over {0,1}^n."""

    def __init__(self, row: int, m_value: int):
        self.row = row
        self.m_value = m_value
        super().__init__(
            f"inequality row {row} infeasible over {{0,1}}^n: slack range M={m_value} < 0"
        )


def _numbers(x, name: str) -> np.ndarray:
    # numpy would read the strings "1" and "2e0" and the booleans as numbers
    leaves = [x]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, (list, tuple)):
            leaves.extend(leaf)
        elif isinstance(leaf, (str, bytes, bool, np.bool_)):
            raise InstanceFormatError(f"{name} must be numeric, not {type(leaf).__name__}")
        elif isinstance(leaf, np.ndarray) and leaf.dtype.kind in "bSU":
            raise InstanceFormatError(f"{name} must be numeric, not {leaf.dtype}")
    try:
        return np.array(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"{name} must be numeric: {exc}") from exc


def _scalar(x, name: str) -> float:
    v = _numbers(x, name)
    if v.shape != () or not np.isfinite(v):
        raise InstanceFormatError(f"{name} must be one finite number")
    return float(v)


def _float_vector(x, n: int, name: str) -> np.ndarray:
    v = _numbers(x, name).reshape(-1)
    if v.shape != (n,):
        raise InstanceFormatError(f"{name} must have length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InstanceFormatError(f"{name} contains non-finite entries")
    return v


def _symmetric_matrix(F, n: int, name: str) -> np.ndarray:
    if F is None:
        return np.zeros((n, n))
    M = _numbers(F, name)
    if M.shape != (n, n):
        raise InstanceFormatError(f"{name} must be {n}x{n}, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InstanceFormatError(f"{name} contains non-finite entries")
    if not np.array_equal(M, M.T):
        raise InstanceFormatError(f"{name} must be exactly symmetric")
    return M


def _integers(v: np.ndarray, name: str) -> np.ndarray:
    # beyond 2**53 a float no longer tells integers apart, and the int64 cast
    # of larger values overflows
    if not np.all(np.abs(v) < 2.0**53) or not np.array_equal(v, np.round(v)):
        raise InstanceFormatError(f"{name} must be integer-valued (rational data is rejected)")
    return v.astype(np.int64)


def _int_matrix(A, n: int, name: str) -> np.ndarray:
    M = _numbers(A, name)
    if M.size == 0:
        M = M.reshape(0, n)
    if M.ndim != 2 or M.shape[1] != n:
        raise InstanceFormatError(f"{name} must be m x {n}, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InstanceFormatError(f"{name} contains non-finite entries")
    return _integers(M, name)


def _int_vector(b, m: int, name: str) -> np.ndarray:
    v = _numbers(b, name).reshape(-1)
    if v.shape != (m,):
        raise InstanceFormatError(f"{name} must have length {m}, got shape {v.shape}")
    return _integers(v, name)


@dataclass(frozen=True)
class _Program:
    """The data both program forms share: objective c'x + x'Fx, rows A x vs b.

    c is finite, F exactly symmetric (None stands for zero), and A and b are
    integer: the penalty reduction's unit margin rests on integer rows.  The
    validated arrays are read-only.
    """

    n: int
    c: np.ndarray
    F: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise InstanceFormatError("n must be a nonnegative integer")
        object.__setattr__(self, "c", _float_vector(self.c, self.n, "c"))
        object.__setattr__(self, "F", _symmetric_matrix(self.F, self.n, "F"))
        object.__setattr__(self, "A", _int_matrix(self.A, self.n, "A"))
        object.__setattr__(self, "b", _int_vector(self.b, self.m, "b"))
        for a in (self.c, self.F, self.A, self.b):
            a.setflags(write=False)

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ZeroOneProgram(_Program):
    """min c'x + x'Fx + constant  s.t.  Ax = b (EQ rows), Ax <= b (LE rows), x in {0,1}^n.

    ``constant`` is an additive objective term produced by transforms (a 0/1
    objective cannot absorb it).
    """

    row_sense: tuple[str, ...]
    constant: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "row_sense", tuple(self.row_sense))
        if len(self.row_sense) != self.m:
            raise InstanceFormatError(f"row_sense must have length {self.m}")
        for s in self.row_sense:
            if s not in (EQ, LE):
                raise InstanceFormatError(f"unknown row sense {s!r}")

    @property
    def all_eq(self) -> bool:
        return all(s == EQ for s in self.row_sense)

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.c @ x + x @ self.F @ x + self.constant)

    def is_feasible(self, x) -> bool:
        """Exact integer feasibility check of a 0/1 point."""
        r = self.A @ np.asarray(np.round(x), dtype=np.int64) - self.b
        le = np.asarray(self.row_sense, dtype=str) == LE
        return bool(np.all(np.where(le, r <= 0, r == 0)))


@dataclass(frozen=True)
class SignProgram(_Program):
    """min c'x + x'Fx  s.t.  Ax = b, x in {-1,1}^n, with A, b integer.

    Objective values in the originating problem's units are recovered via
    ``scale * raw_value + offset`` (scale > 0), so every bound computed on the
    sign form maps back exactly.
    """

    offset: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.scale > 0):
            raise InstanceFormatError("scale must be positive")

    def raw_objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.c @ x + x @ self.F @ x)

    def to_original(self, value: float) -> float:
        """Map a sign-form objective value (or bound) to original-problem units."""
        if math.isinf(value):
            return value
        return self.scale * value + self.offset

    def objective(self, x) -> float:
        return self.to_original(self.raw_objective(x))

    def is_feasible(self, x) -> bool:
        xi = np.asarray(np.round(x), dtype=np.int64)
        return bool(np.array_equal(self.A @ xi, self.b))


def to_sign_form(p: ZeroOneProgram) -> SignProgram:
    """Change of variables x -> 2x - e, mapping {0,1}^n onto {-1,1}^n.

    The transformed constraint system is kept integer: the naive change of
    variables halves A, so the row form is multiplied back by 2, giving the
    equivalent system A x~ = 2b - Ae.
    """
    if not p.all_eq:
        raise ValueError("program has LE rows: run slack_expand first")
    e = np.ones(p.n)
    c_s = (p.c + p.F @ e) / 2.0
    F_s = p.F / 4.0
    b_s = 2 * p.b - p.A @ np.ones(p.n, dtype=np.int64)
    offset = float(p.c @ e / 2.0 + e @ p.F @ e / 4.0 + p.constant)
    return SignProgram(n=p.n, c=c_s, F=F_s, A=p.A, b=b_s, offset=offset, scale=1.0)


def to_zero_one(q: SignProgram) -> ZeroOneProgram:
    """Inverse domain change x~ -> (x~ + e)/2, producing an equivalent 0/1 program.

    Constraint rows are 2A x = b + Ae, reduced by the gcd of each row's
    entries so data produced by ``to_sign_form`` round-trips exactly.  The
    scale/offset bookkeeping folds into the 0/1 objective and its constant:
    ``p.objective(x) == q.to_original(q.raw_objective(2x - e))`` pointwise.
    """
    e = np.ones(q.n)
    s = q.scale
    F01 = 4.0 * s * q.F
    c01 = s * (2.0 * q.c - 4.0 * (q.F @ e))
    const = q.offset + s * float(e @ q.F @ e - q.c @ e)

    rows = np.column_stack([2 * q.A, q.b + q.A.sum(axis=1)])
    g = np.gcd.reduce(rows, axis=1)
    rows //= np.where(g == 0, 1, g)[:, None]  # an all-zero row has gcd 0
    return ZeroOneProgram(
        n=q.n, c=c01, F=F01, A=rows[:, :-1], b=rows[:, -1],
        row_sense=(EQ,) * q.m, constant=const,
    )


def slack_bit_count(m_value: int) -> int:
    """Number of slack bits for an LE row with slack range [0, m_value].

    Smallest count k such that 2^k - 1 >= m_value (bit weights 1, 2, ..., 2^(k-1)).
    The equality row itself caps the slack value, so over-coverage is harmless.
    """
    if m_value <= 0:
        return 0
    return max(1, int(m_value).bit_length())


def slack_expand(p: ZeroOneProgram) -> ZeroOneProgram:
    """Rewrite every LE row as an equality using a binary expansion of its slack.

    Row j gains bits z_jk with weights 2^k so that A_j x + sum_k 2^k z_jk = b_j;
    the representable slack range covers [0, M_j] with M_j = b_j - sum_i min(0, A_ji).
    M_j < 0 raises InfeasibleRowError; M_j = 0 converts the row to EQ with no bits.
    Optimal values of the original and expanded programs coincide.
    """
    le_rows = [j for j, s in enumerate(p.row_sense) if s == LE]
    bit_weights: list[list[int]] = []
    for j in le_rows:
        m_j = int(p.b[j] - np.minimum(p.A[j], 0).sum())
        if m_j < 0:
            raise InfeasibleRowError(j, m_j)
        bit_weights.append([2 ** k for k in range(slack_bit_count(m_j))])

    s_total = sum(len(w) for w in bit_weights)
    n_new = p.n + s_total
    A_new = np.zeros((p.m, n_new), dtype=np.int64)
    A_new[:, : p.n] = p.A
    col = p.n
    for j, weights in zip(le_rows, bit_weights):
        for w in weights:
            A_new[j, col] = w
            col += 1

    c_new = np.concatenate([p.c, np.zeros(s_total)])
    F_new = np.zeros((n_new, n_new))
    F_new[: p.n, : p.n] = p.F
    return ZeroOneProgram(
        n=n_new, c=c_new, F=F_new, A=A_new, b=p.b,
        row_sense=(EQ,) * p.m, constant=p.constant,
    )


# --- JSON instance documents -------------------------------------------------
#
# Schema: {"n": int, "c": [...], "F": [[...]] or null, "A": [[...]], "b": [...],
#          "sense": ["EQ"|"LE", ...], "domain": "zero_one"|"sign"}
# plus optional keys "offset"/"scale" (sign) and "constant" (zero_one).


def program_to_dict(prog: ZeroOneProgram | SignProgram) -> dict:
    F = None if np.count_nonzero(prog.F) == 0 else prog.F.tolist()
    doc = {
        "n": prog.n,
        "c": prog.c.tolist(),
        "F": F,
        "A": prog.A.tolist(),
        "b": prog.b.tolist(),
    }
    if isinstance(prog, ZeroOneProgram):
        doc["domain"] = "zero_one"
        doc["sense"] = list(prog.row_sense)
        if prog.constant != 0.0:
            doc["constant"] = prog.constant
    else:
        doc["domain"] = "sign"
        doc["sense"] = [EQ] * prog.m
        if prog.offset != 0.0:
            doc["offset"] = prog.offset
        if prog.scale != 1.0:
            doc["scale"] = prog.scale
    return doc


def program_from_dict(doc: dict) -> ZeroOneProgram | SignProgram:
    if not isinstance(doc, dict):
        raise InstanceFormatError("an instance must be a JSON object")
    try:
        domain = doc["domain"]
        n = _scalar(doc["n"], "n")
        c = doc["c"]
        A = doc["A"]
        b = doc["b"]
        sense = doc["sense"]
    except KeyError as exc:
        raise InstanceFormatError(f"missing required key {exc}") from exc
    if n != int(n):
        raise InstanceFormatError("n must be an integer")
    n = int(n)
    if not isinstance(sense, (list, tuple)):
        raise InstanceFormatError("sense must be a list")
    F = doc.get("F")
    if domain == "zero_one":
        return ZeroOneProgram(
            n=n, c=c, F=F, A=A, b=b,
            row_sense=tuple(sense),
            constant=_scalar(doc.get("constant", 0.0), "constant"),
        )
    if domain == "sign":
        if any(s != EQ for s in sense):
            raise InstanceFormatError("sign-domain instances must have all-EQ rows")
        prog = SignProgram(
            n=n, c=c, F=F, A=A, b=b,
            offset=_scalar(doc.get("offset", 0.0), "offset"),
            scale=_scalar(doc.get("scale", 1.0), "scale"),
        )
        if len(sense) != prog.m:
            raise InstanceFormatError(f"sense must have length {prog.m}")
        return prog
    raise InstanceFormatError(f"unknown domain {domain!r}")


def dumps_instance(prog: ZeroOneProgram | SignProgram) -> str:
    return json.dumps(program_to_dict(prog), indent=2, sort_keys=True) + "\n"


def save_instance(prog: ZeroOneProgram | SignProgram, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_instance(prog))


def load_instance(path) -> ZeroOneProgram | SignProgram:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return program_from_dict(doc)
