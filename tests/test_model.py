import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxcut_bridge.instances import knapsack_random
from maxcut_bridge.model import (
    EQ,
    LE,
    InfeasibleRowError,
    InstanceFormatError,
    SignProgram,
    ZeroOneProgram,
    dumps_instance,
    load_instance,
    program_from_dict,
    program_to_dict,
    slack_bit_count,
    slack_expand,
    to_sign_form,
    to_zero_one,
)
from strategies import hypercube, optimum

# Example-1 knapsack data (n=4): min c'x s.t. a'x = b over {-1,1}^4.
C4 = (13.0, 11.0, 7.0, 3.0)
A4 = (3, 7, 11, 13)


def random_sign_program(rng, n, m, with_f=True, scale=1.0, offset=0.0):
    c = rng.normal(size=n)
    F = np.zeros((n, n))
    if with_f:
        U = np.triu(rng.normal(size=(n, n)), k=1)
        F = U + U.T
    A = rng.integers(-3, 4, size=(m, n))
    b = rng.integers(-4, 5, size=m)
    return SignProgram(n=n, c=c, F=F, A=A, b=b, offset=offset, scale=scale)


class TestToSignForm:
    def test_single_variable_identity_case(self):
        p = ZeroOneProgram(n=1, c=[2.0], F=None, A=[[1]], b=[1], row_sense=(EQ,))
        q = to_sign_form(p)
        assert q.c.tolist() == [1.0]
        assert q.A.tolist() == [[1]]
        assert q.b.tolist() == [1]
        assert q.offset == 1.0
        # x = 1 <-> x~ = 1: objective 2 on both sides
        assert p.objective([1]) == 2.0
        assert q.objective([1]) == 2.0

    def test_two_variable_quadratic_all_points(self):
        p = ZeroOneProgram(
            n=2, c=[0.0, 0.0], F=[[0, 1], [1, 0]], A=[[1, 1]], b=[1], row_sense=(EQ,)
        )
        q = to_sign_form(p)
        np.testing.assert_allclose(q.c, [0.5, 0.5])
        np.testing.assert_allclose(q.F, [[0, 0.25], [0.25, 0]])
        assert q.A.tolist() == [[1, 1]]
        assert q.b.tolist() == [0]
        assert q.offset == 0.5
        for x in hypercube(2, binary=True):
            xs = 2 * x - 1
            assert q.objective(xs) == pytest.approx(p.objective(x), abs=1e-14)
            assert q.is_feasible(xs) == p.is_feasible(x)

    def test_example1_round_trip_all_16_points(self):
        q = SignProgram(n=4, c=C4, F=None, A=[A4], b=[0])
        p = to_zero_one(q)
        q2 = to_sign_form(p)
        for xs in hypercube(4):
            x = (xs + 1) // 2
            assert p.objective(x) == pytest.approx(q.objective(xs), rel=1e-12)
            assert q2.objective(xs) == pytest.approx(q.objective(xs), rel=1e-12)
            assert p.is_feasible(x) == q.is_feasible(xs)
            assert q2.is_feasible(xs) == q.is_feasible(xs)

    def test_le_rows_rejected(self):
        p = ZeroOneProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1], row_sense=(LE,))
        with pytest.raises(ValueError, match="slack_expand"):
            to_sign_form(p)

    def test_integrality_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, 3))
            A = rng.integers(-5, 6, size=(m, n))
            b = rng.integers(-5, 6, size=m)
            p = ZeroOneProgram(
                n=n, c=rng.normal(size=n), F=None, A=A, b=b, row_sense=(EQ,) * m
            )
            q = to_sign_form(p)
            assert q.A.dtype == np.int64 and q.b.dtype == np.int64


class TestToZeroOne:
    def test_round_trip_exact_on_sign_form_output(self):
        p = ZeroOneProgram(n=1, c=[2.0], F=None, A=[[1]], b=[1], row_sense=(EQ,))
        q = to_sign_form(p)
        p2 = to_zero_one(q)
        assert p2.A.tolist() == p.A.tolist()
        assert p2.b.tolist() == p.b.tolist()
        np.testing.assert_allclose(p2.c, p.c)
        assert p2.constant == 0.0

    def test_example1_n10_objective_agreement(self):
        a10 = (3, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        c10 = (37.0, 31.0, 29.0, 23.0, 19.0, 17.0, 13.0, 11.0, 7.0, 3.0)
        q = SignProgram(n=10, c=c10, F=None, A=[a10], b=[34])
        p = to_zero_one(q)
        rng = np.random.default_rng(0)
        for _ in range(50):
            xs = rng.choice([-1, 1], size=10)
            x = (xs + 1) // 2
            assert p.objective(x) == pytest.approx(q.objective(xs), rel=1e-12)
            assert p.is_feasible(x) == q.is_feasible(xs)

    def test_quadratic_with_scale_and_offset(self):
        rng = np.random.default_rng(3)
        q = random_sign_program(rng, n=5, m=2, with_f=True, scale=0.25, offset=-1.75)
        p = to_zero_one(q)
        for _ in range(50):
            xs = rng.choice([-1, 1], size=5)
            x = (xs + 1) // 2
            assert p.objective(x) == pytest.approx(q.objective(xs), rel=1e-12, abs=1e-12)
            assert p.is_feasible(x) == q.is_feasible(xs)


class TestSlackExpand:
    def test_single_bit_row(self):
        # x1 + x2 <= 1 has slack range M = 1, hence exactly one bit.
        p = ZeroOneProgram(
            n=2, c=[-1.0, -1.0], F=None, A=[[1, 1]], b=[1], row_sense=(LE,)
        )
        p2 = slack_expand(p)
        assert p2.n == 3
        assert p2.row_sense == (EQ,)
        assert p2.A.tolist() == [[1, 1, 1]]
        assert p2.b.tolist() == [1]

    def test_negative_coefficient_slack_range(self):
        # -x1 <= 0: M = 0 - (-1) = 1, one bit.
        p = ZeroOneProgram(n=1, c=[1.0], F=None, A=[[-1]], b=[0], row_sense=(LE,))
        p2 = slack_expand(p)
        assert p2.n == 2
        assert p2.A.tolist() == [[-1, 1]]

    def test_optimum_preserved(self):
        # min -x1 - x2 s.t. x1 + 2 x2 <= 2: optimum -1, and (1,1) stays cut off.
        p = ZeroOneProgram(
            n=2, c=[-1.0, -1.0], F=None, A=[[1, 2]], b=[2], row_sense=(LE,)
        )
        p2 = slack_expand(p)
        assert optimum(p)[0] == optimum(p2)[0] == -1.0

    def test_zero_slack_becomes_equality(self):
        p = ZeroOneProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1]], b=[0], row_sense=(LE,))
        p2 = slack_expand(p)
        assert p2.n == 2
        assert p2.row_sense == (EQ,)

    def test_infeasible_row_rejected(self):
        p = ZeroOneProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1]], b=[-1], row_sense=(LE,))
        with pytest.raises(InfeasibleRowError) as exc:
            slack_expand(p)
        assert exc.value.row == 0

    def test_eq_rows_pass_through(self):
        p = ZeroOneProgram(
            n=2, c=[1.0, 0.0], F=None, A=[[1, 0], [0, 1]], b=[1, 1],
            row_sense=(EQ, LE),
        )
        p2 = slack_expand(p)
        assert p2.A[0].tolist() == [1, 0] + [0] * (p2.n - 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs_preserve_optimum(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        A = rng.integers(-2, 3, size=(m, n))
        # choose b so every LE row has nonnegative slack range
        b = [int(np.minimum(A[j], 0).sum() + rng.integers(0, 4)) for j in range(m)]
        sense = tuple(rng.choice([EQ, LE], size=m))
        p = ZeroOneProgram(n=n, c=rng.normal(size=n), F=None, A=A, b=b, row_sense=sense)
        p2 = slack_expand(p)
        assert optimum(p)[0] == pytest.approx(optimum(p2)[0], rel=1e-12, abs=1e-12)

    def test_bit_counts(self):
        assert slack_bit_count(0) == 0
        assert slack_bit_count(1) == 1
        assert slack_bit_count(2) == 2
        assert slack_bit_count(3) == 2
        assert slack_bit_count(4) == 3
        assert slack_bit_count(7) == 3
        assert slack_bit_count(8) == 4


@st.composite
def integer_programs(draw):
    """An all-EQ 0/1 program whose rows mix signs; each row and its b are
    multiplied by a drawn factor: 0 gives an all-zero row, 2 and 3 a common factor."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 4))
    A = draw(hnp.arrays(np.int64, (m, n), elements=st.integers(-4, 4)))
    b = draw(hnp.arrays(np.int64, m, elements=st.integers(-6, 6)))
    factor = draw(hnp.arrays(np.int64, m, elements=st.integers(0, 3)))
    c = draw(hnp.arrays(float, n, elements=st.floats(-5, 5)))
    U = draw(hnp.arrays(float, (n, n), elements=st.floats(-5, 5)))
    return ZeroOneProgram(n=n, c=c, F=np.triu(U) + np.triu(U).T, A=A * factor[:, None],
                          b=b * factor, row_sense=(EQ,) * m)


def per_row_feasible(p: ZeroOneProgram, x) -> bool:
    r = p.A @ np.asarray(x, dtype=np.int64) - p.b
    return all(r[j] <= 0 if s == LE else r[j] == 0 for j, s in enumerate(p.row_sense))


class TestWholeArrayConversions:
    @settings(max_examples=150, deadline=None)
    @given(p=integer_programs())
    def test_round_trip_reduces_each_row_by_its_gcd(self, p):
        p2 = to_zero_one(to_sign_form(p))
        for j in range(p.m):
            g = math.gcd(*p.A[j].tolist(), int(p.b[j])) or 1  # an all-zero row has gcd 0
            assert p2.A[j].tolist() == (p.A[j] // g).tolist()
            assert int(p2.b[j]) == int(p.b[j]) // g
            if g == 1:  # a primitive or all-zero row comes back exactly
                assert p2.A[j].tolist() == p.A[j].tolist() and p2.b[j] == p.b[j]
        assert p2.A.shape == p.A.shape and p2.A.dtype == p2.b.dtype == np.int64
        for x in hypercube(p.n, binary=True):
            assert p2.objective(x) == pytest.approx(p.objective(x), rel=1e-12, abs=1e-9)
            assert p2.is_feasible(x) == p.is_feasible(x) == to_sign_form(p).is_feasible(2 * x - 1)

    @settings(max_examples=150, deadline=None)
    @given(p=integer_programs(), data=st.data())
    def test_is_feasible_matches_per_row_reference(self, p, data):
        sense = tuple(data.draw(st.lists(st.sampled_from((EQ, LE)), min_size=p.m,
                                         max_size=p.m)))
        p = ZeroOneProgram(n=p.n, c=p.c, F=p.F, A=p.A, b=p.b, row_sense=sense)
        for x in hypercube(p.n, binary=True):
            assert p.is_feasible(x) == per_row_feasible(p, x)

    @settings(max_examples=50, deadline=None)
    @given(p=integer_programs())
    def test_slack_expand_without_le_rows_is_the_same_program(self, p):
        p2 = slack_expand(p)
        assert (p2.n, p2.row_sense, p2.constant) == (p.n, p.row_sense, p.constant)
        for name in ("c", "F", "A", "b"):
            assert np.array_equal(getattr(p2, name), getattr(p, name))


class TestValidation:
    def test_asymmetric_f_rejected(self):
        with pytest.raises(InstanceFormatError, match="symmetric"):
            ZeroOneProgram(n=2, c=[0, 0], F=[[0, 1], [0, 0]], A=[[1, 1]], b=[1], row_sense=(EQ,))

    def test_non_integer_constraints_rejected(self):
        with pytest.raises(InstanceFormatError, match="integer"):
            ZeroOneProgram(n=1, c=[0.0], F=None, A=[[0.5]], b=[1], row_sense=(EQ,))
        with pytest.raises(InstanceFormatError, match="integer"):
            SignProgram(n=1, c=[0.0], F=None, A=[[1]], b=[0.5])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InstanceFormatError):
            ZeroOneProgram(n=2, c=[1.0], F=None, A=[[1, 1]], b=[1], row_sense=(EQ,))
        with pytest.raises(InstanceFormatError):
            ZeroOneProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1]], b=[1], row_sense=(EQ, EQ))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(InstanceFormatError, match="^F contains non-finite entries$"):
            ZeroOneProgram(n=2, c=[0, 0], F=[[0, bad], [bad, 0]], A=[[1, 1]], b=[1],
                           row_sense=(EQ,))
        with pytest.raises(InstanceFormatError, match="^A contains non-finite entries$"):
            SignProgram(n=2, c=[0, 0], F=None, A=[[1, bad]], b=[1])

    def test_unknown_row_sense_rejected(self):
        with pytest.raises(InstanceFormatError, match="^unknown row sense 'GE'$"):
            ZeroOneProgram(n=1, c=[0.0], F=None, A=[[1]], b=[1], row_sense=("GE",))

    @pytest.mark.parametrize("scale", [0.0, -0.5, np.nan])
    def test_scale_must_be_positive(self, scale):
        with pytest.raises(InstanceFormatError, match="^scale must be positive$"):
            SignProgram(n=1, c=[0.0], F=None, A=[[1]], b=[1], scale=scale)

    def test_arrays_locked(self):
        p = ZeroOneProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1], row_sense=(EQ,))
        with pytest.raises(ValueError):
            p.c[0] = 2.0


class TestJson:
    def test_round_trip_zero_one(self):
        p = ZeroOneProgram(
            n=2, c=[1.0, -0.5], F=[[0, 2], [2, 0]], A=[[1, 1]], b=[1], row_sense=(LE,)
        )
        doc = json.loads(dumps_instance(p))
        p2 = program_from_dict(doc)
        assert isinstance(p2, ZeroOneProgram)
        np.testing.assert_array_equal(p2.F, p.F)
        assert p2.row_sense == (LE,)

    def test_round_trip_sign_with_offset_scale(self):
        q = SignProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, -1]], b=[0], offset=2.5, scale=0.25)
        q2 = program_from_dict(program_to_dict(q))
        assert isinstance(q2, SignProgram)
        assert q2.offset == 2.5 and q2.scale == 0.25

    def test_null_f_means_zero(self):
        doc = {"n": 1, "c": [1.0], "F": None, "A": [[1]], "b": [1],
               "sense": ["EQ"], "domain": "zero_one"}
        p = program_from_dict(doc)
        assert np.count_nonzero(p.F) == 0
        doc.pop("F")
        p = program_from_dict(doc)
        assert np.count_nonzero(p.F) == 0

    def test_sign_domain_rejects_le(self):
        doc = {"n": 1, "c": [1.0], "F": None, "A": [[1]], "b": [1],
               "sense": ["LE"], "domain": "sign"}
        with pytest.raises(InstanceFormatError, match="all-EQ"):
            program_from_dict(doc)

    def test_unknown_domain_rejected(self):
        doc = {"n": 1, "c": [1.0], "F": None, "A": [[1]], "b": [1],
               "sense": ["EQ"], "domain": "spin"}
        with pytest.raises(InstanceFormatError, match="domain"):
            program_from_dict(doc)

    def test_dump_is_deterministic(self):
        q = SignProgram(n=3, c=[1, 2, 3], F=None, A=[[1, 1, 1]], b=[1])
        assert dumps_instance(q) == dumps_instance(q)

    VALID = (
        {"n": 2, "c": [1.0, -0.5], "F": [[0, 2], [2, 0]], "A": [[1, 1]], "b": [1],
         "sense": ["LE"], "domain": "zero_one", "constant": 1.5},
        {"n": 2, "c": [1.0, 1.0], "F": None, "A": [[1, -1]], "b": [0],
         "sense": ["EQ"], "domain": "sign", "offset": 2.5, "scale": 0.25},
    )
    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
        max_leaves=8,
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_field_value_loads_or_is_rejected(self, data):
        doc = dict(data.draw(st.sampled_from(self.VALID)))
        doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(self.JSON_VALUES)
        try:
            prog = program_from_dict(doc)
        except InstanceFormatError:
            return
        assert isinstance(prog, (ZeroOneProgram, SignProgram))

    def test_round_trip_zero_one_with_constant(self):
        # program_to_dict writes the constant only when it is nonzero, as here
        p = to_zero_one(knapsack_random(5, 3, 12, 3))
        assert p.constant == pytest.approx(-44.7842007547)
        doc = json.loads(dumps_instance(p))
        assert doc["constant"] == p.constant
        p2 = program_from_dict(doc)
        assert p2.constant == p.constant and p2.row_sense == p.row_sense
        for name in ("c", "F", "A", "b"):
            assert np.array_equal(getattr(p2, name), getattr(p, name))
        assert "constant" not in program_to_dict(dataclasses.replace(p, constant=0.0))

    @pytest.mark.parametrize("key", ["domain", "n", "c", "A", "b", "sense"])
    def test_missing_key_rejected(self, key):
        doc = dict(self.VALID[0])
        del doc[key]
        with pytest.raises(InstanceFormatError, match=f"^missing required key '{key}'$"):
            program_from_dict(doc)

    @pytest.mark.parametrize("n", [2.5, -0.5])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(InstanceFormatError, match="^n must be an integer$"):
            program_from_dict(dict(self.VALID[0], n=n))

    @pytest.mark.parametrize("doc, key, value, message", [
        (0, "n", "2", "n must be numeric, not str"),
        (0, "n", True, "n must be numeric, not bool"),
        (0, "n", -1, "n must be a nonnegative integer"),
        (0, "c", ["1", "2e0"], "c must be numeric, not str"),
        (0, "F", [[0, "2"], [2, 0]], "F must be numeric, not str"),
        (0, "A", [[True, True]], "A must be numeric, not bool"),
        (0, "b", [False], "b must be numeric, not bool"),
        (0, "constant", "1.5", "constant must be numeric, not str"),
        (1, "scale", "2", "scale must be numeric, not str"),
    ], ids=["n_text", "n_bool", "n_negative", "c_text", "F_text", "A_bool", "b_bool",
            "constant_text", "scale_text"])
    def test_text_booleans_and_negative_n_rejected(self, doc, key, value, message):
        # numpy reads "2", "2e0" and true as numbers; the loader must not
        with pytest.raises(InstanceFormatError, match=f"^{message}$"):
            program_from_dict(dict(self.VALID[doc], **{key: value}))

    def test_no_variables_load(self):
        q = program_from_dict({"n": 0, "c": [], "A": [], "b": [], "sense": [], "domain": "sign"})
        assert (q.n, q.m, q.c.shape, q.F.shape) == (0, 0, (0,), (0, 0))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,')
        with pytest.raises(InstanceFormatError, match="^invalid JSON: "):
            load_instance(path)

    @pytest.mark.parametrize("doc", [[1, 2], "x", None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(InstanceFormatError, match="JSON object"):
            program_from_dict(doc)

    @pytest.mark.parametrize("sense", [[], ["EQ", "EQ", "EQ"]])
    def test_sign_sense_length_must_match_rows(self, sense):
        doc = dict(self.VALID[1], sense=sense)
        with pytest.raises(InstanceFormatError, match="sense must have length 1"):
            program_from_dict(doc)


class TestObjectiveCorrespondence:
    @pytest.mark.parametrize("seed", range(8))
    def test_pointwise_exact(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 3))
        A = rng.integers(-3, 4, size=(m, n))
        b = rng.integers(-3, 4, size=m)
        U = np.triu(rng.normal(size=(n, n)))
        p = ZeroOneProgram(
            n=n, c=rng.normal(size=n), F=U + U.T, A=A, b=b, row_sense=(EQ,) * m
        )
        q = to_sign_form(p)
        for x in hypercube(n, binary=True):
            xs = 2 * x - 1
            rel = abs(p.objective(x)) + 1.0
            assert abs(q.objective(xs) - p.objective(x)) <= 1e-12 * rel
            assert q.is_feasible(xs) == p.is_feasible(x)
