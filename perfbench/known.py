"""Known answers for every job of the three workloads.

Dimensions and types come from the literature, not from the code:

- The magic square (Freudenthal 1964, Tits 1966; tabulated in Baez,
  "The Octonions", Bull. AMS 39 (2002), section 4.3, and Barton and
  Sudbery, "Magic squares and matrix models of Lie algebras", Adv. Math.
  180 (2003), table 1): the cell of composition algebra C and H3(D) is
  3/A1, 8/A2, 21/C3, 52/F4; 8/A2, 16/A2+A2, 35/A5, 78/E6; 21/C3, 35/A5,
  66/D6, 133/E7; 52/F4, 78/E6, 133/E7, 248/E8, and it is symmetric.
- The 182-dim LY algebra inside O x H3(O): its standard enveloping
  algebra is E8 (248) with h = F4 + G2 (52 + 14 = 66), since
  182 = 248 - 66 (Benito, Elduque, Martin-Herce, "Irreducible
  Lie-Yamaguti algebras", arXiv 0810.0440).
- Classical matrix algebras (Humphreys, "Introduction to Lie Algebras
  and Representation Theory", section 1.2): sl(9) = A8 of dim 80,
  so(13) = B6 of dim 78, so(14) = D7 of dim 91, sp(12) = C6 of dim 78.
- The tensor LY families of the same paper, with the values the
  repository's tests/test_matrix_families.py also asserts: sp(2) (x) the
  trace-zero part of the symmetric operators of a 6-dim symplectic space
  has dim 3 * 14 = 42 and envelope D6 (dim 66); sl(3) (x) sl(3) has dim
  64 and envelope sl(9) = A8 (dim 80).
- The 2x2 TKK row: TKK(J) for J = H3(Q) is so(12) = D6 (dim 66) and for
  J = H_n(K) it is sl(2n), so H4(K) gives sl(8) = A7 (dim 63).
- so(3) + so(5) acting on V3 (x) V5: the equivariant brackets form a
  one-parameter family; at parameter 1 both candidate coefficients are
  1, the algebra has dim 13 + 15 = 28 and its LY part is the
  orthosymplectic Lie triple system on V3 (x) V5 (as in
  tests/test_tits.py).
- Negative controls: a perturbed structure constant must be caught with
  a witness whose defect is nonzero; gl(3) is not semisimple, so
  classify raises; O with H4(K) violates closure condition iii, because
  the octonion row exists only in degree three.

The sha256 values are of ``io.dumps`` of each built algebra as the code
at the benchmark's first commit produced them.  They pin the exact
structure constants, basis order and labels, so a change that alters
the output bytes shows as a failed job.
"""

SQUARE_TYPES = {
    "k": [(3, "A1"), (8, "A2"), (21, "C3"), (52, "F4")],
    "K": [(8, "A2"), (16, "A2+A2"), (35, "A5"), (78, "E6")],
    "Q": [(21, "C3"), (35, "A5"), (66, "D6"), (133, "E7")],
    "O": [(52, "F4"), (78, "E6"), (133, "E7"), (248, "E8")],
}

SQUARE_SHA256 = {
    ("k", "k"): "1d98faf13dade1d8e2586fb5303ea363dbcc6e4a8ddc4f61e30380bba722b039",
    ("k", "K"): "47154813b3a904124dcb453f39283229b3fe35979ffb183de3723737e49ffeba",
    ("k", "Q"): "569b1f9dd4a787f245a992e208d244f24f5e7f62e9a80cc594e3f5bd28a2eb17",
    ("k", "O"): "0c04fe2f7ac7ae02284e4993c0000f415a9db0e956e0f31230962966b83cab21",
    ("K", "k"): "010253b6353bbb68f9386728af3479a836dbb4be4960c371285a4f5b036625d9",
    ("K", "K"): "c537cec22928fbe41de60c9072e5b8db39d15aab9e71ca14303dd3650c11628a",
    ("K", "Q"): "da250c05afcfd6fa02db7617f56b235120ce922305b219a1a4647b07987958e4",
    ("K", "O"): "fd0c27c770285f5f36d8bb1f5dfd8e886a99dc6c5f60f41241cba71dd45a230f",
    ("Q", "k"): "9c613eebf36e2b92e36ec723ef8f04fa125e26052b1c27528ab443fde8027d0a",
    ("Q", "K"): "615e6cbe3c414f5d0ab5ae1c97a294d669a87922dde0845fb40843b15b1214ef",
    ("Q", "Q"): "d9003291a96be455ed25028b8a9bc98f53f2267c79387c223d67060fd83bb3f6",
    ("Q", "O"): "51ea8ec096750f626368b1d56b68c8376e6913f974d704fc3e04480e49f102df",
    ("O", "k"): "78687c57456377b28e4a74eb81d7eb524894619f8b9b1f98f1a01149cba19149",
    ("O", "K"): "72e5e48d1f32519802941c9dcf34cf1c1726a17b81a6226a314dbf2d4d4d4baa",
    ("O", "Q"): "0f1faedaa175feb7dd0e87c81014acf6595cbc978232d7682336f3b46758a758",
    ("O", "O"): "ac11b3fc8bdd87e5c9c9ae8f0b34d2227de7422fbdf11dce2a776840b8a7bd7e",
}

ANSWERS = {
    "square.%s.H3(%s)" % (cx, cy): {
        "dim": dim, "type": typ, "verdict": "lie", "witness": None,
        "sha256": SQUARE_SHA256[(cx, cy)]}
    for cx, row in SQUARE_TYPES.items()
    for cy, (dim, typ) in zip("kKQO", row)
}

ANSWERS.update({
    "e8-ly.ly182": {
        "dim": 182, "verdict": "pass", "witness": None,
        "sha256": "6c49f573873dc70b4587da684f5a0a29ed80284d8fbdd07662ac0b8c507caf4f"},
    "e8-ly.envelope": {
        "dim": 248, "type": "E8",
        "sha256": "d4c594417d02b5fa3d9289a01f9c5d809618d41b8e68bbbb954acb950f17f8ec"},
    "e8-ly.h": {
        "dim": 66, "type": "F4+G2",
        "sha256": "4146f9589f6de225d1553041282f7c3dad00e532a3fa1cb9f280ca7406887aa5"},

    "families.sl9": {
        "dim": 80, "type": "A8", "verdict": "pass", "witness": None,
        "sha256": "e0ede29b9cbdde798f4da72e008e4567a0f19bc18fcd6d8f0a415a82b0fef7f0"},
    "families.so13": {
        "dim": 78, "type": "B6", "verdict": "pass", "witness": None,
        "sha256": "2b99a998c127bbe9d19b54cebc6b01615cfb3a4c963dcda657b28a69a103d69a"},
    "families.so14": {
        "dim": 91, "type": "D7", "verdict": "pass", "witness": None,
        "sha256": "0aa79a7ae2a4b7ad1038cc4f5dec2e67ea8cf3135d0104b51341a1d4264699c5"},
    "families.sp12": {
        "dim": 78, "type": "C6", "verdict": "pass", "witness": None,
        "sha256": "f51c7656143f4d72b21777180b2a2664abb670dd985932c48a0d118868a4430b"},
    "families.ly_sp_sym(6,-1)": {
        "dim": 42, "verdict": "pass", "witness": None, "env_dim": 66, "type": "D6",
        "sha256": "e1b36a39ee26c93f161204ef079e1b9cf20e39093f957c548deb5e699a8d2b22",
        "env_sha256": "e80b89281c1c1718e6ff6ed33cfd7285af794add66f80efdb16d55dcbae43a20"},
    "families.ly_sl_sl(3,3)": {
        "dim": 64, "verdict": "pass", "witness": None, "env_dim": 80, "type": "A8",
        "sha256": "98e294df4d34fce36c3dc6be57813161c63b177e3224de589599488318c2ec65",
        "env_sha256": "e5a35592e2f64c7dc80791248a114d672a64ba376ce13e0b82da864822a6eee5"},
    "families.tkk.H3(Q)": {
        "dim": 66, "type": "D6", "verdict": "lie", "witness": None, "transport": True,
        "sha256": "2367f3a6da384354cc6fbb10c8b47cf74329d5849623589ed1dd9d10f04354a6"},
    "families.tkk.H4(K)": {
        "dim": 63, "type": "A7", "verdict": "lie", "witness": None, "transport": True,
        "sha256": "888372fd7c5b5661bb8eea1fd9d38794e4b16e15610bb8f23090800c7fa8d0bd"},
    "families.solve.so3+so5": {
        "dim": 28, "verdict": "pass", "witness": None, "family_dim": 1,
        "coefficients": ["1", "1"], "coincides": True,
        "sha256": "f8be6015bd27435c0fbfbc293d1d3d9d10ea554df4cad41ed706d886c4ced9e9"},
    "families.control.so13": {"verdict": "fail", "witness_defect": True},
    "families.control.ly_sp_sym(3,1)": {"verdict": "fail", "witness_defect": True},
    "families.control.gl3": {"verdict": "ClassifyError"},
    "families.control.O_H4(K)": {"verdict": "iii", "witness_iii": True},
})
