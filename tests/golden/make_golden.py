"""Write the golden CLI outputs that tests/test_golden.py locks.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Writes one input file per matrix under inputs/, the standard output of each
CLI invocation under expected/, and manifest.json, which lists every
invocation with its expected output file and exit code.  Regenerate only
when an output is meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from skewdg.cli import main
from skewdg.linalg import Mat
from skewdg.qpl import QplMatrix, chi

HERE = os.path.dirname(os.path.abspath(__file__))

CASE_4 = [[1, 1, 1], [1, 1, 1], [-1, -1, -1]]


def _image(rows, permutation, scales):
    """chi(rows, C) as strings, for C with the given permutation and scales."""
    return [[str(x) for x in row] for row in
            chi(Mat(rows), QplMatrix(permutation, scales)).data]


# One matrix per taxonomy leaf, the six equality representatives, a NOT_CY
# matrix, an n = 2 case, the images used by the isomorphism pairs, a pair
# whose scale systems all fail only at the closure condition, three more
# chi-images with non-integer entries, and one n = 4 and one n = 5 input.
MATRICES = {
    "rank3": [[1, -1, 0], [1, 1, 1], [1, -1, 1]],
    "rank2_nondeg": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    "sub_1_1": [[1, 0, 1], [1, 1, 1], [1, 0, 1]],
    "sub_1_2_1": [[1, 1, 0], [1, 0, 1], [1, 1, 0]],
    "sub_1_2_2": [[1, 1, 1], [1, 0, 1], [1, 1, 1]],
    "sub_1_2_3": [[1, 1, 1], [0, 0, 0], [1, 0, 1]],
    "sub_1_2_4": [[0, 1, 1], [0, 0, 1], [0, 0, 0]],
    "sub_1_3_1": [[1, 0, 1], [1, 1, 1], [0, 1, 0]],
    "sub_1_3_2": [[1, 1, 0], [1, 1, 0], [0, 1, 0]],
    "rank1_case4": CASE_4,
    "rank1_case5": [[-1, 2, -2], [0, 0, 0], [2, -4, 4]],
    "rank1_case6": [[0, -2, 2], [0, -4, 4], [0, -4, 4]],
    "rank1_case7": [[1, 1, 1], [-1, -1, -1], [0, 0, 0]],
    "rank1_case8": [[0, 2, 0], [0, 0, 0], [0, 3, 0]],
    "rank1_case9": [[0, 2, -1], [0, 0, 0], [0, 0, 0]],
    "rank0": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "M1": [[0, 1, 1], [0, 0, 0], [0, 0, 0]],
    "M2": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    "M3": [[1, 1, 1], [1, 1, 1], [0, 0, 0]],
    "M4": [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
    "M5": [[1, 1, 0], [1, 1, 0], [0, 0, 0]],
    "M6": [[1, 1, 0], [0, 0, 0], [1, 1, 0]],
    "not_cy": [[1, 1, 1], [1, 1, 1], [2, 2, 2]],
    "n2": [[0, 1], [0, 0]],
    "n2_image": [[0, "1/3"], [0, 0]],
    "case4_image": _image(CASE_4, (1, 2, 0), (2, -1, "1/3")),
    "closure_a": [[1, 1, 0], [0, 0, 0], [0, 0, 0]],
    "closure_b": [[1, 2, 0], [0, 0, 0], [0, 0, 0]],
    "residual_a": [[1, 1, 0], [0, 1, 0], [0, 0, 0]],
    "residual_b": [[1, 2, 0], [0, 1, 0], [0, 0, 0]],
    "M1_image": _image([[0, 1, 1], [0, 0, 0], [0, 0, 0]], (2, 0, 1), (2, -1, "1/3")),
    "sub_1_2_4_image": _image([[0, 1, 1], [0, 0, 1], [0, 0, 0]], (0, 2, 1), (3, "1/2", 2)),
    "not_cy_image": _image([[1, 1, 1], [1, 1, 1], [2, 2, 2]], (1, 0, 2), ("1/2", 3, -1)),
    "n4": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]],
    "n5": [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [0, 0, 0, 0, 0]],
}


def _algebra(dim, unit, products):
    """A structure-constant file whose products b_i b_j = b_k are the pairs
    (i, j): k of `products`; every other product is zero."""
    flat = [0] * dim ** 3
    for (i, j), k in products.items():
        flat[(i * dim + j) * dim + k] = 1
    return {"dim": dim, "unit": [str(u) for u in unit], "structure": [str(x) for x in flat]}


def _unital(dim, products):
    """_algebra with b_0 as its unit, on top of the radical products."""
    return _algebra(dim, [1] + [0] * (dim - 1),
                    {**{(0, i): i for i in range(dim)}, **{(i, 0): i for i in range(dim)},
                     **products})


# Inputs of `frobenius`: k[x]/(x^4) on 1, x, x^2, x^3; the algebra of
# reference_finalg.ref_sklyanin_table(1, 1, 0) on 1, e1, e2, e3; k + the
# strictly upper triangular 3 x 3 matrices on 1, E01, E02, E12 (local, not
# commutative: the randomized path); and M_2(k) on E00, E01, E10, E11 (not
# local).
ALGEBRAS = {
    "alg_trunc4": _unital(4, {(i, j): i + j for i in range(1, 4) for j in range(1, 4) if i + j < 4}),
    "alg_sklyanin_110": _unital(4, {(1, 1): 3, (2, 2): 3}),
    "alg_unipotent3": _unital(4, {(1, 3): 2}),
    "alg_m2": _algebra(4, [1, 0, 0, 1], {(2 * a + b, 2 * b + c): 2 * a + c
                                         for a in range(2) for b in range(2) for c in range(2)}),
}

PER_INPUT = (
    ["validate"],
    ["classify"],
    ["probe"],
    ["aut"],
    ["cohomology"],
    ["resolve", "--verify", "5"],
)
ISO_PAIRS = (
    ("rank1_case4", "case4_image"),  # Witness
    ("closure_a", "closure_b"),  # ClosureOnly
    ("M1", "M2"),  # NotIsomorphic
    ("n2", "n2_image"),  # n = 2
    ("M1", "M1_image"),  # Witness through a 3-cycle
    ("sub_1_2_4", "sub_1_2_4_image"),  # Witness through a transposition
    ("not_cy", "not_cy_image"),  # Witness at the identity permutation
    ("residual_a", "residual_b"),  # NotIsomorphic at the closure condition
)


def invocations():
    for name in MATRICES:
        for argv in PER_INPUT:
            yield name + "." + argv[0], [argv[0], "inputs/%s.json" % name] + argv[1:]
        for cmd in ("ext", "report"):
            yield name + "." + cmd, [cmd, "inputs/%s.json" % name]
    for a, b in ISO_PAIRS:
        yield "iso.%s.%s" % (a, b), ["iso", "inputs/%s.json" % a, "inputs/%s.json" % b]
    # Presented dimensions checked against the brute force past degree 10.
    yield "M1.report.max_degree_12", ["report", "inputs/M1.json", "--max-degree", "12"]
    for name in ALGEBRAS:
        yield name + ".frobenius", ["frobenius", "inputs/%s.json" % name]


def run(argv, root=HERE):
    """(exit code, standard output) of cli.main with input paths under root."""
    argv = [os.path.join(root, a) if a.startswith("inputs/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def write():
    os.makedirs(os.path.join(HERE, "inputs"), exist_ok=True)
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    for name, rows in MATRICES.items():
        with open(os.path.join(HERE, "inputs", name + ".json"), "w") as handle:
            json.dump({"n": len(rows), "matrix": [[str(x) for x in r] for r in rows]}, handle)
            handle.write("\n")
    for name, data in ALGEBRAS.items():
        with open(os.path.join(HERE, "inputs", name + ".json"), "w") as handle:
            json.dump(data, handle)
            handle.write("\n")
    manifest = []
    for key, argv in invocations():
        code, text = run(argv)
        path = "expected/%s.out" % key
        with open(os.path.join(HERE, path), "w") as handle:
            handle.write(text)
        manifest.append({"argv": argv, "exit": code, "stdout": path})
    with open(os.path.join(HERE, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    write()
