"""The classical matrix Lie algebras, the three tensor-space LY families,
their enveloping algebras and the stated coincidences between them."""

import hashlib
from fractions import Fraction

import pytest

from lyalg import io
from lyalg import linalg as la
from lyalg.algebra import LYAlgebra
from lyalg.buildtools import batch, subalgebra_on_indices
from lyalg.checks import check_lie, check_ly
from lyalg.envelope import build_enveloping
from lyalg.matrixalg import (SL2_OPS, SL2_WEIGHTS, BilinForm, build_matrix_lie,
                             check_coincidence, lts_orthosymplectic_sum,
                             ly_sl_tensor_sl, ly_sp_tensor_sym, sl_ops,
                             split_skew_form, split_sym_form, sym0_basis)
from lyalg.roots import classify, saturate_torus, verify_weights
from test_invariants import commutant_dim, coords_reference
from test_tits import inner_maps, load_known, saturated_sha256, sha256, sp_commutator

fr = Fraction


def test_matrix_lie_dimensions():
    assert build_matrix_lie("sl", 2).dim == 3
    assert build_matrix_lie("so", 5).dim == 10
    assert build_matrix_lie("sp", 6).dim == 21
    assert build_matrix_lie("gl", 3).dim == 9


def test_matrix_lie_types():
    for kind, n, want in [("sl", 2, "A1"), ("sl", 4, "A3"), ("so", 5, "C2"),
                          ("so", 7, "B3"), ("so", 8, "D4"), ("sp", 6, "C3")]:
        g = build_matrix_lie(kind, n)
        assert check_lie(g).passed
        assert classify(g) == want


def test_matrix_lie_bad_kind():
    with pytest.raises(ValueError):
        build_matrix_lie("su", 3)
    with pytest.raises(ValueError):
        build_matrix_lie("sp", 5)


def test_form_validation():
    with pytest.raises(ValueError):
        BilinForm([[fr(0), fr(1)], [fr(1), fr(0)]], -1)
    with pytest.raises(ValueError):
        BilinForm([[fr(1), fr(0)], [fr(0), fr(0)]], 1)


def env_type(ly):
    pair = build_enveloping(ly)
    return pair, classify(saturate_torus(pair.g))


def test_lts_ortho_3_5():
    ly = lts_orthosymplectic_sum(split_sym_form(3, tail=1),
                                 split_sym_form(5, tail=-1),
                                 name="lts-so(3,5)")
    assert ly.dim == 15
    assert not ly.binary
    assert ly.notes == []
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 28 and label == "D4"
    dsub = subalgebra_on_indices(pair.g, pair.h_index)
    assert dsub.dim == 13
    assert classify(saturate_torus(dsub)) == "A1+C2"
    dops = list(inner_maps(ly).values())
    assert commutant_dim(dops, ly.dim, weights=ly.weights) == 1


def test_lts_sp_2_2():
    ly = lts_orthosymplectic_sum(split_skew_form(2), split_skew_form(2),
                                 name="lts-sp(2,2)")
    assert ly.dim == 4 and not ly.binary
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 10 and label == "C2"


def test_lts_ortho_reducible_flag():
    ly = lts_orthosymplectic_sum(split_sym_form(1), split_sym_form(2, tail=-1))
    assert ly.notes and "reducible" in ly.notes[0]
    dops = list(inner_maps(ly).values())
    assert commutant_dim(dops, ly.dim) > 1


def test_sp2_sym_3_1():
    ly = ly_sp_tensor_sym(3, 1, name="ly-sp2-sym(3,1)")
    assert ly.dim == 15
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 21 and label == "C3"


def test_sp2_sym_6_skew():
    ly = ly_sp_tensor_sym(6, -1, name="ly-sp2-sym(6,-1)")
    assert ly.dim == 42
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 66 and label == "D6"


def test_sp2_sym_4_zero_binary():
    ly = ly_sp_tensor_sym(4, -1)
    assert ly.dim == 15
    assert not ly.binary
    assert check_ly(ly).passed


def test_sp2_sym_bad_params():
    with pytest.raises(ValueError):
        ly_sp_tensor_sym(2, -1)
    with pytest.raises(ValueError):
        ly_sp_tensor_sym(2, 1)


def test_sl_tensor_sl_2_3():
    ly = ly_sl_tensor_sl(2, 3, name="ly-sl(2,3)")
    assert ly.dim == 24
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 35 and label == "A5"
    dsub = subalgebra_on_indices(pair.g, pair.h_index)
    assert dsub.dim == 11
    dops = list(inner_maps(ly).values())
    assert commutant_dim(dops, ly.dim, weights=ly.weights) == 1


def test_sl_tensor_sl_3_3_dims():
    ly = ly_sl_tensor_sl(3, 3)
    assert ly.dim == 64
    pair = build_enveloping(ly)
    assert pair.g.dim == 80


def test_sl_tensor_sl_bad_params():
    with pytest.raises(ValueError):
        ly_sl_tensor_sl(1, 3)
    with pytest.raises(ValueError):
        ly_sl_tensor_sl(3, 2)


ORTHO_SUMS = {
    "so3xso5": lambda: (split_sym_form(3), split_sym_form(5)),
    "sp2xsp2": lambda: (split_skew_form(2), split_skew_form(2)),
    "so1xso2(-1)": lambda: (split_sym_form(1), split_sym_form(2, tail=-1)),
    "sp4xsp6": lambda: (split_skew_form(4), split_skew_form(6)),
}

PINNED_SHA256 = [
    (lambda: ly_sl_tensor_sl(2, 3),
     "743741b46b5aa216686fe15819e69041473930507d1ddc84eba16c3a0f706c2d"),
    (lambda: ly_sp_tensor_sym(3, 1),
     "2a77cb59f46741c7cccae624e5c06b5dce738a1388cce846e555f376ea3a5a89"),
    (lambda: ly_sp_tensor_sym(4, -1),
     "58ce3f6dbe46244f9c5ff2ca97345d8351efab58fd3981e2e2ab837ade0d56a5"),
    (lambda: build_matrix_lie("sl", 4),
     "8ac32434eab8ba0d9a8c8dba3c65c30f5c82d3af2e7fbacde61b17830d2d73c5"),
    (lambda: build_matrix_lie("so", 7),
     "8562f5e1ace36d45ebc024361baa5a928d22e3cddb40182aee9d20c8e9b72ac9"),
    (lambda: build_matrix_lie("sp", 6),
     "67e1015a52fa3235ed62c904dcddea47cccf65c7a5850f1a75ee73f85a60e237"),
    (lambda: lts_orthosymplectic_sum(*ORTHO_SUMS["so3xso5"]()),
     "c01d3568ea505a57c420f66c2b92709a51d4ad21511cfe67ab4f4ce9090eb7c3"),
    (lambda: lts_orthosymplectic_sum(*ORTHO_SUMS["sp2xsp2"]()),
     "feb04fa623ce8f17dba76fa0da26a4908a59091af800ea1a7c88d14409c86da4"),
    (lambda: lts_orthosymplectic_sum(*ORTHO_SUMS["so1xso2(-1)"]()),
     "9b7f362c7149548e62c450f3ad89b0815023c826932a1fbfe1a1ba786580e28f"),
    (lambda: lts_orthosymplectic_sum(*ORTHO_SUMS["sp4xsp6"]()),
     "e86552acdec0f9903425ff0e3600a0a5bd3b630b5a1cbbd9e6980082f0974dca"),
]


@pytest.mark.parametrize("build, want", PINNED_SHA256,
                         ids=["sl2xsl3", "sl2xsym0(3,1)", "sl2xsym0(4,-1)",
                              "sl4", "so7", "sp6", *ORTHO_SUMS])
def test_builders_canonical_bytes_pinned(build, want):
    """The canonical JSON of each builder's output, byte for byte."""
    alg = build()
    obj = (io.ly_to_obj(alg) if isinstance(alg, LYAlgebra)
           else io.algebra_to_obj(alg))
    assert hashlib.sha256(io.dumps(obj).encode()).hexdigest() == want


FAMILY_JOBS = {"families.ly_sp_sym(6,-1)": lambda: ly_sp_tensor_sym(6, -1),
               "families.ly_sl_sl(3,3)": lambda: ly_sl_tensor_sl(3, 3)}

# saturated_sha256 of saturate_torus of the envelope and of its h
SATURATED_FAMILY_SHA256 = {
    "families.ly_sp_sym(6,-1)": (
        "35d5c7e396760a145115323bcf8043a187a31adc79ef8a6842e4a34eeb82a145",
        "5d6930c856191030da1b9c34f34e159a4c4497ad2e57644bd0a6c2f3868c5145"),
    "families.ly_sl_sl(3,3)": (
        "8d8b5e45a11669a5c1b59f1de251e9e832c74ba4522e37d6c393a275c7cdb5d0",
        "3462c80d179f3ff1af5b39791afd218e59b8f1ba9114e20844f69f4fd68188a4"),
}


@pytest.mark.parametrize("job", FAMILY_JOBS)
def test_families_workload_keeps_its_known_bytes(job):
    """The LY algebra and its envelope, as perfbench/known.py pins them,
    and the saturated envelope and h."""
    want = load_known().ANSWERS[job]
    ly = FAMILY_JOBS[job]()
    assert sha256(ly) == want["sha256"]
    env = build_enveloping(ly)
    assert sha256(env.g) == want["env_sha256"]
    h = subalgebra_on_indices(env.g, env.h_index)
    assert (saturated_sha256(saturate_torus(env.g)), saturated_sha256(saturate_torus(h))
            ) == SATURATED_FAMILY_SHA256[job]


# Fraction references: the tensor families as per-index triple loops over
# exact coordinates, one basis pair (and triple) at a time


def trace_mul(a, b):
    """tr(a b) of sparse Fraction matrices."""
    return sum((v * b[(c, r)] for (r, c), v in a.items() if (c, r) in b), fr(0))


def sp_mul(a, b):
    """a b of sparse Fraction matrices, zeros dropped."""
    out = {}
    for (r, m), v in a.items():
        for (m2, c), w in b.items():
            if m == m2:
                out[(r, c)] = out.get((r, c), fr(0)) + v * w
    return {k: v for k, v in out.items() if v}


class FactorReference:
    """Trace form, anticommutator, double-bracket and half-commutator
    coordinates of one factor, as sparse (index, Fraction) lists, from
    coords_reference over the factor's matrices."""

    def __init__(self, mats, weights, n):
        nb = self.dim = len(mats)
        self.weights, self.inv, self.mats, self.n = weights, fr(1, n), mats, n
        self.basis = self.dense(mats)
        self.tr = [[trace_mul(a, b) for b in mats] for a in mats]
        keys, queries = [], []
        for a in range(nb):
            for b in range(nb):
                m = sp_mul(mats[a], mats[b])
                for k, v in sp_mul(mats[b], mats[a]).items():
                    m[k] = m.get(k, fr(0)) + v
                for d in range(n):
                    m[(d, d)] = m.get((d, d), fr(0)) - 2 * self.inv * self.tr[a][b]
                keys.append(("anti", a, b))
                queries.append(m)
                comm = sp_commutator(mats[a], mats[b])
                for c in range(nb):
                    keys.append(("dbl", a, b, c))
                    queries.append(sp_commutator(comm, mats[c]))
        self.anti, self.dbl, self.half = {}, {}, {}
        for (kind, *key), co in zip(keys, self.coords(queries)):
            getattr(self, kind)[tuple(key)] = co

    def dense(self, ms):
        return [[m.get((r, c), fr(0)) for r in range(self.n) for c in range(self.n)]
                for m in ms]

    def coords(self, ms):
        return [[(c, v) for c, v in enumerate(row) if v]
                for row in coords_reference(self.basis, self.dense(ms))]

    def half_comm(self, a, b):
        # solved on first use: [f, f'] need not lie in the span (sym0)
        if (a, b) not in self.half:
            comm = sp_commutator(self.mats[a], self.mats[b])
            self.half[a, b] = [(c, v / 2) for c, v in self.coords([comm])[0]]
        return self.half[a, b]


def add_tensor(acc, ca, cf, nf):
    for s, va in ca:
        for t, vf in cf:
            acc[s * nf + t] = acc.get(s * nf + t, fr(0)) + va * vf


def tensor_ly_reference(left, right):
    """The closed product formulas of matrixalg._tensor_ly, index by index."""
    na, nf = left.dim, right.dim
    dim = na * nf
    binary, ternary = {}, {}
    for i in range(dim):
        s1, t1 = divmod(i, nf)
        for j in range(i + 1, dim):
            s2, t2 = divmod(j, nf)
            acc = {}
            add_tensor(acc, left.half_comm(s1, s2), right.anti[t1, t2], nf)
            if left.anti[s1, s2]:
                add_tensor(acc, left.anti[s1, s2], right.half_comm(t1, t2), nf)
            binary[(i, j)] = sorted((l, v) for l, v in acc.items() if v)
            cl, cr = right.tr[t1][t2] * right.inv, left.tr[s1][s2] * left.inv
            for k in range(dim):
                s3, t3 = divmod(k, nf)
                acc = {}
                add_tensor(acc, [(s, cl * v) for s, v in left.dbl[s1, s2, s3]], [(t3, 1)], nf)
                add_tensor(acc, [(s3, 1)], [(t, cr * v) for t, v in right.dbl[t1, t2, t3]], nf)
                ternary[(i, j, k)] = sorted((l, v) for l, v in acc.items() if v)
    ly = LYAlgebra(dim, binary, ternary,
                   labels=["a%d*f%d" % divmod(i, nf) for i in range(dim)])
    ly.weights = [wl + wr for wl in left.weights for wr in right.weights]
    return ly


def sl_reference(n):
    mats, _, weights, _ = sl_ops(n)
    return FactorReference(mats, weights, n)


def ortho_reference(form1, form2):
    """The orthosymplectic Lie triple system, one basis triple at a time."""
    eps, n2 = form1.eps, form2.dim
    g1, g2 = form1.gram, form2.gram
    dim = form1.dim * n2
    ternary = {}
    for i in range(dim):
        a1, b1 = divmod(i, n2)
        for j in range(i + 1, dim):
            a2, b2 = divmod(j, n2)
            for k in range(dim):
                a3, b3 = divmod(k, n2)
                acc = {}
                for l, v in ((a2 * n2 + b3, g2[b1][b2] * g1[a1][a3]),
                             (a1 * n2 + b3, -eps * g2[b1][b2] * g1[a2][a3]),
                             (a3 * n2 + b2, g1[a1][a2] * g2[b1][b3]),
                             (a3 * n2 + b1, -eps * g1[a1][a2] * g2[b2][b3])):
                    acc[l] = acc.get(l, fr(0)) + v
                ternary[(i, j, k)] = sorted((l, v) for l, v in acc.items() if v)
    return LYAlgebra(dim, {}, ternary,
                     labels=["x%d*y%d" % divmod(i, n2) for i in range(dim)])


def sp_sym_reference(n2, eps2):
    form = split_sym_form(n2) if eps2 == 1 else split_skew_form(n2)
    fmats, fweights = sym0_basis(form)
    return tensor_ly_reference(FactorReference(SL2_OPS, SL2_WEIGHTS, 2),
                               FactorReference(fmats, fweights, n2))


REFERENCES = (
    [("sl(%d,%d)" % nn, lambda nn=nn: ly_sl_tensor_sl(*nn),
      lambda nn=nn: tensor_ly_reference(*map(sl_reference, nn)))
     for nn in [(2, 2), (2, 3), (2, 4), (3, 3)]]
    + [("sl2xsym0(%d,%d)" % ne, lambda ne=ne: ly_sp_tensor_sym(*ne),
        lambda ne=ne: sp_sym_reference(*ne))
       for ne in [(3, 1), (4, -1), (5, 1), (6, -1)]]
    + [(key, lambda f=forms: lts_orthosymplectic_sum(*f()),
        lambda f=forms: ortho_reference(*f()))
       for key, forms in ORTHO_SUMS.items()])


@pytest.mark.parametrize("build, reference", [r[1:] for r in REFERENCES],
                         ids=[r[0] for r in REFERENCES])
def test_kronecker_builders_match_the_fraction_loops(build, reference):
    ly, ref = build(), reference()
    assert io.dumps(io.ly_to_obj(ly)) == io.dumps(io.ly_to_obj(ref))
    assert ly.binary == ref.binary
    assert list(ly.ternary.items()) == list(ref.ternary.items())
    if ref.weights is not None:
        assert ly.weights == ref.weights


def test_batch_of_no_parts_is_empty():
    code, val, scale = batch([])
    assert code.tolist() == val.tolist() == [] and scale == 1


@pytest.mark.parametrize("build", [
    lambda: ly_sp_tensor_sym(3, 1), lambda: ly_sl_tensor_sl(2, 3),
    lambda: lts_orthosymplectic_sum(*ORTHO_SUMS["so3xso5"]())],
    ids=["sl2xsym0(3,1)", "sl2xsl3", "so3xso5"])
def test_families_never_build_the_fraction_ternary_dict(build, monkeypatch):
    def refuse(ly):
        raise AssertionError("the Fraction ternary dict was read")

    monkeypatch.setattr(LYAlgebra, "ternary", property(refuse))
    ly = build()
    assert check_ly(ly).passed
    assert build_enveloping(ly).g.dim > ly.dim
    assert io.ly_to_obj(ly)["ternary"].text != "[]"
    monkeypatch.undo()
    assert "ternary" not in vars(ly)


def trace_gram(mats, scale):
    return [[scale * trace_mul(a, b) for b in mats] for a in mats]


def test_coincidence_sp2sym_4_with_ortho_3_5():
    a = ly_sp_tensor_sym(4, -1)
    fmats, _ = sym0_basis(split_skew_form(4))
    g1 = BilinForm(trace_gram(SL2_OPS, fr(1)), 1)
    g2 = BilinForm(trace_gram(fmats, fr(-1, 2)), 1)
    b = lts_orthosymplectic_sum(g1, g2)
    assert check_coincidence(a, b, la.eye(15))


def test_coincidence_sl22_with_ortho_3_3():
    a = ly_sl_tensor_sl(2, 2)
    amats, _, _, _ = sl_ops(2)
    g1 = BilinForm(trace_gram(amats, fr(1)), 1)
    g2 = BilinForm(trace_gram(amats, fr(-1)), 1)
    b = lts_orthosymplectic_sum(g1, g2)
    assert check_coincidence(a, b, la.eye(9))


def test_coincidence_identity_and_failure():
    a = ly_sl_tensor_sl(2, 2)
    assert check_coincidence(a, a, la.eye(a.dim))
    twisted = la.eye(a.dim)
    twisted[0][0] = fr(2)
    assert not check_coincidence(a, a, twisted)
    with pytest.raises(ValueError):
        bad = la.zeros(a.dim, a.dim)
        check_coincidence(a, a, bad)


def test_family_weights_verify():
    for kind, n in [("sl", 3), ("so", 6), ("sp", 4)]:
        g = build_matrix_lie(kind, n)
        assert verify_weights(g) == len(g.cartan)
