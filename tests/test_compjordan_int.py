"""The integer ingredient paths of compjordan against Fraction references.

The references below are the earlier Fraction implementations, kept here
verbatim in substance: the basis-tuple composition verifier, the
hermitian product table built from Fraction matrix products, and the two
pair-table paths (the Fraction one for small ambients, the int64 one for
the 27-dimensional ones) with the view builder that chose between them.
The integer code must give the same tables, the same view attributes and
the same rejection messages.  The views hold only int64 tensors, so
the reference view is a namespace of Fraction attributes, compared with
the forms viewforms.fraction_forms renders from those tensors.  The
reference selects and solves on the Fraction routines of linalg
(test_invariants.first_independent and coords_reference), not on the
span engine it checks.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import lyalg.compjordan as cj
from lyalg import buildtools as bt
from lyalg import linalg as la
from lyalg.linalg import F0, F1
from test_invariants import coords_reference, eigenbasis_reference, first_independent
from viewforms import fraction_forms

HALF = Fraction(1, 2)


# ---------------------------------------------------------------- references

def verify_composition_reference(c):
    n = c.dim
    for i in range(n):
        for j in range(n):
            if c.gram[i][j] != c.gram[j][i]:
                raise ValueError("norm polar form is not symmetric")
    if la.rank(c.gram) != n:
        raise ValueError("norm form is degenerate")
    for i in range(n):
        e = la.basis_vec(n, i)
        if c.mul(c.unit, e) != e or c.mul(e, c.unit) != e:
            raise ValueError("unit law fails")
    trv = [c.trace(la.basis_vec(n, i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            v = la.vec_add(c.tab[i][j], c.tab[j][i])
            v[j] -= trv[i]
            v[i] -= trv[j]
            v = la.vec_add(v, la.vec_scale(c.gram[i][j], c.unit))
            if any(v):
                raise ValueError("degree two equation fails")
    ap = [[la.mat_vec(c.gram, c.tab[r][s]) for s in range(n)] for r in range(n)]
    for i in range(n):
        for j in range(n):
            gij = c.gram[i][j]
            for k in range(n):
                for l in range(n):
                    s = la.dot(c.tab[i][k], ap[j][l]) + la.dot(c.tab[i][l], ap[j][k])
                    if s != gij * c.gram[k][l]:
                        raise ValueError("norm is not multiplicative")
    tf = [[c.trace(c.tab[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if tf[i][j] != tf[j][i]:
                raise ValueError("trace form is not symmetric")
            for k in range(n):
                lhs = sum((c.tab[i][j][s2] * tf[s2][k] for s2 in range(n)), F0)
                rhs = sum((c.tab[j][k][s2] * tf[i][s2] for s2 in range(n)), F0)
                if lhs != rhs:
                    raise ValueError("trace form is not associative")
    aso = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                aso[(i, j, k)] = c.associator(la.basis_vec(n, i),
                                              la.basis_vec(n, j),
                                              la.basis_vec(n, k))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if any(la.vec_add(aso[(i, j, k)], aso[(j, i, k)])):
                    raise ValueError("algebra is not left alternative")
                if any(la.vec_add(aso[(i, j, k)], aso[(i, k, j)])):
                    raise ValueError("algebra is not right alternative")


def _herm_mat_mul_reference(c, x, y, n):
    z = [[la.zero_vec(c.dim) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for t in range(n):
            xv = x[r][t]
            if not any(xv):
                continue
            for s in range(n):
                yv = y[t][s]
                if any(yv):
                    z[r][s] = la.vec_add(z[r][s], c.mul(xv, yv))
    return z


def _herm_coords_reference(c, n, signs, z):
    co = []
    uidx = next(i for i, uv in enumerate(c.unit) if uv != 0)
    for i in range(n):
        d = z[i][i]
        lam = d[uidx] / c.unit[uidx]
        if la.vec_sub(d, la.vec_scale(lam, c.unit)) != la.zero_vec(c.dim):
            raise ValueError("diagonal entry is not a scalar multiple of 1")
        co.append(lam)
    for i in range(n):
        for j in range(i + 1, n):
            mirror = la.vec_scale(Fraction(signs[i] * signs[j]), c.conj(z[i][j]))
            if z[j][i] != mirror:
                raise ValueError("product left the hermitian subspace")
            co.extend(z[i][j])
    return co


def hermitian_table_reference(c, n, signs, mats):
    dim = len(mats)
    tab = [[None] * dim for _ in range(dim)]
    for a in range(dim):
        for b2 in range(a, dim):
            zf = _herm_mat_mul_reference(c, mats[a], mats[b2], n)
            zb = _herm_mat_mul_reference(c, mats[b2], mats[a], n)
            sym = [[la.vec_scale(HALF, la.vec_add(zf[r][s], zb[r][s]))
                    for s in range(n)] for r in range(n)]
            v = _herm_coords_reference(c, n, signs, sym)
            tab[a][b2] = v
            tab[b2][a] = v
    return tab


def pair_tables_small_reference(amb, tl, vecs, dpair):
    n0 = len(vecs)
    prows = []
    tform = la.zeros(n0, n0)
    for i in range(n0):
        for j in range(n0):
            p = amb.mul(vecs[i], vecs[j])
            tv = la.dot(tl, p)
            tform[i][j] = tv
            prows.append(la.vec_sub(p, la.vec_scale(tv, amb.unit)))
    sco = coords_reference(vecs, prows)
    stab = [[sco[i * n0 + j] for j in range(n0)] for i in range(n0)]
    prs = [(i, j) for i in range(n0) for j in range(i + 1, n0)]
    damb = {}
    imgs = []
    for (i, j) in prs:
        m = dpair(vecs[i], vecs[j])
        damb[(i, j)] = m
        for v in vecs:
            imgs.append(la.mat_vec(m, v))
    dtfull = {}
    if prs:
        ico = coords_reference(vecs, imgs)
        for idx, (i, j) in enumerate(prs):
            dtfull[(i, j)] = la.transpose(ico[idx * n0:(idx + 1) * n0])
    return stab, tform, dtfull, damb.__getitem__


def pair_tables_big_reference(amb, tl, vecs):
    tint, s = amb._int
    n = amb.dim
    n0 = len(vecs)
    b, sb = bt.int_rows(vecs)
    r = tint.transpose(1, 2, 0)
    rb = np.einsum('ia,arc->irc', b, r)
    m = np.einsum('irs,jst->ijrt', rb, rb)
    dt = m - m.transpose(1, 0, 2, 3)
    sdt = (s * sb) ** 2
    p2 = np.einsum('ia,jb,abc->ijc', b, b, tint, optimize=True)
    sp2 = sb * sb * s
    tli, st = bt.int_rows([tl])
    tvals = np.einsum('ijc,c->ij', p2, tli[0])
    ui, su = bt.int_rows([amb.unit])
    star = p2 * (st * su) - tvals[:, :, None] * ui[0][None, None, :]
    co = coords_reference(vecs, star.reshape(n0 * n0, n).tolist())
    cs = sp2 * st * su
    stab = [[[x / cs for x in co[i * n0 + j]] for j in range(n0)] for i in range(n0)]
    tform = [[Fraction(int(tvals[i, j]), sp2 * st) for j in range(n0)]
             for i in range(n0)]
    # column k of D(i, j), i < j, is the image of v_k = b[k] / sb
    iu, ju = np.triu_indices(n0, 1)
    img = np.einsum('prc,kc->pkr', dt[iu, ju], b)
    co2 = coords_reference(vecs, img.reshape(-1, n).tolist())
    cs2 = sdt * sb
    dtfull = {(int(i), int(j)): la.transpose([[x / cs2 for x in row]
                                              for row in co2[p * n0:(p + 1) * n0]])
              for p, (i, j) in enumerate(zip(iu, ju))}

    def damb(p):
        i, j = p
        return [[Fraction(int(dt[i, j, rr, cc]), sdt) for cc in range(n)]
                for rr in range(n)]

    return stab, tform, dtfull, damb


def _flat(m):
    return [v for row in m for v in row]


def _offdiag(m):
    n = len(m)
    return any(m[r][c] != 0 for r in range(n) for c in range(n) if r != c)


def _mat_combo(mats, co):
    terms = [(c, m) for c, m in zip(co, mats) if c != 0]
    return [[sum((c * m[r][k] for c, m in terms), F0) for k in range(len(mats[0][0]))]
            for r in range(len(mats[0]))]


def _vec_combo(vecs, co):
    out = la.zero_vec(len(vecs[0]))
    for c, v in zip(co, vecs):
        if c != 0:
            out = la.vec_add(out, la.vec_scale(c, v))
    return out


def _toral_search(dspan0):
    for co in (la.basis_vec(len(dspan0), i) for i in range(len(dspan0))):
        try:
            split = bt.rational_eigensplit(_mat_combo(dspan0, co))
        except ArithmeticError:
            continue
        if len(split) >= 2:
            return [co]
    raise ArithmeticError("no split torus found in the derivation span")


def _diagonal_coeffs(dspan0, n0):
    rows = []
    for rr in range(n0):
        for cc in range(n0):
            if rr != cc:
                rows.append([m[rr][cc] for m in dspan0])
    return la.kernel_basis(rows, len(dspan0))


def build_view_reference(amb, tag, tl, vecs, labels, dpair, tor_amb, depth):
    assert depth <= 2
    n0 = len(vecs)
    big = isinstance(amb, cj.JordanAlg) and amb.form is None and amb.dim >= 15
    if big:
        stab, tform, dtfull, damb = pair_tables_big_reference(amb, tl, vecs)
    else:
        stab, tform, dtfull, damb = pair_tables_small_reference(amb, tl, vecs, dpair)
    pairs = sorted(dtfull)
    flats = {p: _flat(dtfull[p]) for p in pairs}
    nzpairs = [p for p in pairs if any(flats[p])]
    span_pairs = []
    if nzpairs:
        sel = first_independent([flats[p] for p in nzpairs])
        span_pairs = [nzpairs[i] for i in sel]
    dspan0 = [dtfull[p] for p in span_pairs]
    if tor_amb is not None:
        tor_res = []
        for t in tor_amb:
            colco = coords_reference(vecs, [la.mat_vec(t, v) for v in vecs])
            tor_res.append(la.transpose(colco))
        assert not any(_offdiag(t) for t in tor_res)
    else:
        coeffs = _diagonal_coeffs(dspan0, n0) if dspan0 else []
        if not coeffs and dspan0:
            coeffs = _toral_search(dspan0)
        tor_res = [_mat_combo(dspan0, co) for co in coeffs]
        if any(_offdiag(t) for t in tor_res):
            vnew, _ = eigenbasis_reference(tor_res)
            newvecs = [la.normalize_primitive(_vec_combo(vecs, co))
                       for co in vnew]
            toramb = [_mat_combo([damb(p) for p in span_pairs], co)
                      for co in coeffs]
            newlabels = ["%s0_%d" % (tag, i) for i in range(n0)]
            return build_view_reference(amb, tag, tl, newvecs, newlabels,
                                        dpair, toramb, depth + 1)
    weights = [tuple(t[i][i] for t in tor_res) for i in range(n0)]
    dspan, dweights = [], []
    dcoords = {p: [] for p in pairs}
    if dspan0:
        byclass = {}
        for a in range(n0):
            for b in range(n0):
                mu = tuple(wa - wb for wa, wb in zip(weights[a], weights[b]))
                byclass.setdefault(mu, []).append((a, b))
        for mu in sorted(byclass):
            pos = byclass[mu]
            rows = [r for r in ([m[a][b] for (a, b) in pos] for m in dspan0)
                    if any(r)]
            if not rows:
                continue
            for i in first_independent(rows):
                piece = la.zeros(n0, n0)
                for (a, b), v in zip(pos, rows[i]):
                    piece[a][b] = v
                dspan.append(piece)
                dweights.append(mu)
        allco = coords_reference([_flat(m) for m in dspan], [flats[p] for p in pairs])
        dcoords = {p: allco[idx] for idx, p in enumerate(pairs)}
    return SimpleNamespace(tag=tag, vecs=vecs, n0=n0, labels=labels, weights=weights,
                           rank=len(weights[0]) if weights else 0, stab=stab,
                           tform=tform, dt=dtfull, dcoords=dcoords, dspan=dspan,
                           dweights=dweights)


def view_reference(amb):
    if isinstance(amb, cj.CompAlg):
        tl = [amb.trace(la.basis_vec(amb.dim, i)) * HALF for i in range(amb.dim)]

        def dpair(x, y):
            return cj.comp_derivation(amb, x, y)
    elif amb.form is not None:
        tl = [tv / amb.degree for tv in amb.tracev]

        def dpair(x, y):
            return cj._spin_pair_map(amb, x, y)
    else:
        tl = [tv / amb.degree for tv in amb.tracev]

        def dpair(x, y):
            return cj.jordan_derivation(amb, x, y)
    vecs = la.kernel_basis([tl], amb.dim)
    if not vecs:
        return SimpleNamespace(tag=amb.kind, vecs=[], n0=0, labels=[], weights=[], rank=0,
                               stab=[], tform=[], dt={}, dcoords={}, dspan=[],
                               dweights=[])
    labels = cj._x0_labels(amb.kind, amb.labels, vecs)
    return build_view_reference(amb, amb.kind, tl, vecs, labels, dpair, None, 0)


# ---------------------------------------------------------------- tests

VIEW_ATTRS = ("tag", "vecs", "n0", "labels", "weights", "rank", "dweights")
FORMS = ("stab", "tform", "dt", "dcoords", "dspan")

AMBIENTS = [("comp", "k"), ("comp", "K"), ("comp", "Q"), ("comp", "O"),
            ("jordan", "H2(Q)"), ("jordan", "H2(O)"), ("jordan", "H3(k)"),
            ("jordan", "H3(K)"), ("jordan", "H3(Q)"), ("jordan", "H3(O)"),
            ("jordan", "H4(K)"), ("jordan", "H4(Q)"), ("jordan", "H4(k)"),
            ("jordan", "H5(k)"), ("jordan", "JV(3)"), ("jordan", "JV(5)")]


def assert_view_matches(v, ref):
    """The view's attributes and the Fraction forms rendered from its
    tensors equal the reference's."""
    forms = fraction_forms(v)
    for attr in VIEW_ATTRS:
        assert getattr(v, attr) == getattr(ref, attr), attr
    for attr in FORMS:
        assert getattr(forms, attr) == getattr(ref, attr), attr


def ambient(kind, spec):
    return cj.build_composition(spec) if kind == "comp" else cj.build_jordan(spec)


def test_composition_tables_pass_the_reference_verifier():
    tables = {"k": cj._table_k, "K": cj._table_K, "Q": cj._table_Q,
              "O": cj._table_O}
    for kind, make in tables.items():
        c = cj.build_composition(kind)
        tab, gram, unit, labels = make()
        assert (c.tab, c.gram, c.unit, c.labels) == (tab, gram, unit, labels)
        verify_composition_reference(c)
        t, s = c._int
        assert s == 1 and t.tolist() == [[[int(v) for v in cell] for cell in row]
                                         for row in tab]


@pytest.mark.parametrize("spec", ["H2(Q)", "H2(O)", "H3(k)", "H3(K)", "H3(Q)",
                                  "H3(O)", "H4(K)", "H4(Q)"])
def test_hermitian_table_matches_fraction_reference(spec):
    j = cj.build_jordan(spec)
    ck = spec[3]
    c = cj.build_composition(ck)
    mats, labels = cj._herm_basis(c, j.degree, j.signs)
    assert j.labels == labels
    assert j.tab == hermitian_table_reference(c, j.degree, j.signs, mats)


@pytest.mark.parametrize("kind,spec", AMBIENTS)
def test_view_attributes_match_reference(kind, spec):
    amb = ambient(kind, spec)
    v = cj.trace_admissible_view(amb)
    ref = view_reference(amb)
    assert_view_matches(v, ref)


def rescaled(kind, d):
    """The composition algebra `kind` on the basis f_i = d[i] e_i, whose
    table, polar form and unit carry denominators."""
    tab, gram, unit, labels = {"K": cj._table_K, "Q": cj._table_Q,
                               "O": cj._table_O}[kind]()
    n = len(tab)
    d = [Fraction(x) for x in d]
    tab = [[[d[i] * d[j] * tab[i][j][k] / d[k] for k in range(n)]
            for j in range(n)] for i in range(n)]
    gram = [[d[i] * d[j] * gram[i][j] for j in range(n)] for i in range(n)]
    unit = [unit[k] / d[k] for k in range(n)]
    return cj.CompAlg(kind + "'", tab, gram, unit, labels)


RESCALINGS = [("K", (Fraction(1, 2), 3)),
              ("Q", (2, Fraction(1, 3), 1, Fraction(3, 2))),
              ("O", (1, 2, Fraction(1, 2), 1, 3, 1, Fraction(1, 3), 2))]


@pytest.mark.parametrize("kind,d", RESCALINGS)
def test_rescaled_compositions_match_reference(kind, d):
    c = rescaled(kind, d)
    verify_composition_reference(c)
    cj._verify_composition(c)
    assert c._int[1] > 1
    v = cj.trace_admissible_view(c)
    ref = view_reference(c)
    assert_view_matches(v, ref)
    # a unit off by a factor is refused by both, with one message
    bad = rescaled(kind, d)
    bad.unit = [x / 2 for x in bad.unit]
    with pytest.raises(ValueError) as e_ref:
        verify_composition_reference(bad)
    with pytest.raises(ValueError) as e_new:
        cj._verify_composition(bad)
    assert str(e_new.value) == str(e_ref.value) == "unit law fails"


@pytest.mark.parametrize("kind,d", RESCALINGS[1:])
def test_hermitian_table_over_a_rescaled_composition(kind, d):
    c = rescaled(kind, d)
    cj._verify_composition(c)
    mats, labels = cj._herm_basis(c, 3, (1, 1, 1))
    tab = cj._herm_table(c, 3, (1, 1, 1), mats)
    n = len(tab[0])
    j = cj.JordanAlg("H3(%s')" % kind, tab, 3, [F1] * 3 + [F0] * (n - 3),
                     [F1] * 3 + [F0] * (n - 3), labels)
    assert j.tab == hermitian_table_reference(c, 3, (1, 1, 1), mats)
    cj._verify_jordan(j)
    v = cj.trace_admissible_view(j)
    ref = view_reference(j)
    assert_view_matches(v, ref)


def test_every_view_certifies_the_leibniz_rule(monkeypatch):
    seen = []
    real = cj._leibniz_check
    monkeypatch.setattr(cj, "_leibniz_check",
                        lambda t, es: seen.append(len(es)) or real(t, es))
    for kind, spec in [("comp", "O"), ("jordan", "H3(k)"), ("jordan", "JV(3)")]:
        v = cj.trace_admissible_view.__wrapped__(ambient(kind, spec))
        assert seen[-1] == v.nspan > 0
    assert len(seen) == 3


def _flipped_octonions(*entries):
    tab, gram, unit, labels = cj._table_O()
    for i, j, k in entries:
        tab[i][j][k] = -tab[i][j][k]
    return cj.CompAlg("O", tab, gram, unit, labels)


CROSS_TERMS = [(u, w, x) for u in range(8) for w in range(8) for x in range(8)
               if ({u, w} <= {1, 2, 3} or {u, w} <= {4, 5, 6}) and u != w
               and cj._table_O()[0][u][w][x] != 0]


def test_cross_terms_are_the_twelve_u_u_and_v_v_slots():
    assert len(CROSS_TERMS) == 12


@pytest.mark.parametrize("entry", CROSS_TERMS)
def test_flipped_octonion_cross_term_rejected_with_reference_message(entry):
    with pytest.raises(ValueError) as ref:
        verify_composition_reference(_flipped_octonions(entry))
    with pytest.raises(ValueError) as new:
        cj._verify_composition(_flipped_octonions(entry))
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("entry", [e for e in CROSS_TERMS if e[0] < e[1]])
def test_flipped_octonion_cross_pair_rejected_with_reference_message(entry):
    # flipping both e_u e_w and e_w e_u keeps the degree two equation
    i, j, k = entry

    def broken():
        return _flipped_octonions(entry, (j, i, k))

    with pytest.raises(ValueError) as ref:
        verify_composition_reference(broken())
    with pytest.raises(ValueError) as new:
        cj._verify_composition(broken())
    assert str(new.value) == str(ref.value) == "norm is not multiplicative"


def test_other_broken_compositions_match_reference_messages():
    cases = []
    tab, gram, unit, labels = cj._table_Q()
    gram[0][3] = Fraction(2)                  # asymmetric polar form
    cases.append(cj.CompAlg("Q", tab, gram, unit, labels))
    tab, gram, unit, labels = cj._table_Q()
    tab[0][0][0] = Fraction(2)                # E11 E11 = 2 E11 breaks the unit
    cases.append(cj.CompAlg("Q", tab, gram, unit, labels))
    tab, gram, unit, labels = cj._table_K()
    gram[0][1] = gram[1][0] = Fraction(2)     # norm no longer multiplicative
    cases.append(cj.CompAlg("K", tab, gram, unit, labels))
    for c in cases:
        with pytest.raises(ValueError) as ref:
            verify_composition_reference(c)
        with pytest.raises(ValueError) as new:
            cj._verify_composition(c)
        assert str(new.value) == str(ref.value)


def test_hermitian_checks_match_reference_messages():
    # a sign twist the basis does not carry leaves the hermitian subspace
    c = cj.build_composition("Q")
    mats, _ = cj._herm_basis(c, 3, (1, 1, 1))
    with pytest.raises(ValueError) as ref:
        hermitian_table_reference(c, 3, (1, -1, 1), mats)
    with pytest.raises(ValueError) as new:
        cj._herm_table(c, 3, (1, -1, 1), mats)
    assert str(new.value) == str(ref.value) == "product left the hermitian subspace"
    # over a broken octonion table, x conj(x) is no longer a scalar
    bad = _flipped_octonions(CROSS_TERMS[0])
    mats, _ = cj._herm_basis(bad, 2, (1, 1))
    with pytest.raises(ValueError) as ref:
        hermitian_table_reference(bad, 2, (1, 1), mats)
    with pytest.raises(ValueError) as new:
        cj._herm_table(bad, 2, (1, 1), mats)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("kind,spec", [("comp", "O"), ("jordan", "H3(K)"),
                                       ("jordan", "JV(3)")])
def test_spot_check_rejects_a_wrong_pair_map(monkeypatch, kind, spec):
    amb = ambient(kind, spec)
    real = cj._pair_maps

    def broken(amb, b, sb):
        dt, sdt = real(amb, b, sb)
        # D(0, 1) + D(0, 2) still maps the slice into itself
        assert dt[0, 2].any()
        dt = dt.copy()
        dt[0, 1] += dt[0, 2]
        dt[1, 0] -= dt[0, 2]
        return dt, sdt

    monkeypatch.setattr(cj, "_pair_maps", broken)
    with pytest.raises(ArithmeticError, match="direct pair map"):
        cj.trace_admissible_view.__wrapped__(amb)


def test_leibniz_check_reads_the_ambient_tensor():
    j = cj.build_jordan("H3(K)")
    t, _ = j._int
    b, sb = bt.int_rows(cj.trace_admissible_view(j).vecs)
    dt, _ = cj._pair_maps(j, b, sb)
    cj._leibniz_check(t, dt[[0, 1], [1, 2]])
    bad = dt[[0, 1], [1, 2]].copy()
    bad[0, 0, 0] += 1
    with pytest.raises(ArithmeticError, match="Leibniz"):
        cj._leibniz_check(t, bad)
    # the composition, hermitian and spin ambients, each with one nonzero
    # of its first spanning map (the first nonzero pair map) perturbed
    for kind, spec in [("comp", "O"), ("jordan", "H3(K)"), ("jordan", "JV(3)")]:
        amb = ambient(kind, spec)
        t, _ = amb._int
        b, sb = bt.int_rows(cj.trace_admissible_view(amb).vecs)
        dt, _ = cj._pair_maps(amb, b, sb)
        n0 = len(b)
        pairs = [(i, k) for i in range(n0) for k in range(i + 1, n0) if dt[i, k].any()]
        es = dt[tuple(np.array(pairs[:3]).T)]
        cj._leibniz_check(t, es)
        bad = es.copy()
        bad[(0, *np.argwhere(es[0])[0])] += 1
        with pytest.raises(ArithmeticError, match="Leibniz"):
            cj._leibniz_check(t, bad)
