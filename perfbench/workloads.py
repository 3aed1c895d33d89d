"""The benchmark's three workloads: inputs made from a seed, one op, and the
check of the op's answer.

Every input is an orbit image chi(M, C) of a base matrix M under a seeded
quasi-permutation matrix C, so each op sees a fresh matrix while every
expected answer is still known exactly: it is a fact from the expected
table (expected.json), an invariant that must equal the one of M, or an
agreement between two routes of the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from skewdg import cli
from skewdg.classify import classify, presentation_of, presented_dims, theorem_c
from skewdg.dg import DgSpec, cy_probe
from skewdg.finalg import frobenius, recognize_truncated, socle_dim
from skewdg.linalg import Mat
from skewdg.qpl import QplMatrix, aut_group, chi, iso_solve
from skewdg.resolution import (
    InfinitePattern,
    SemifreeResolution,
    UnsupportedCase,
    build_resolution,
    eilenberg_moore,
    ext_algebra,
    verify_resolution,
)
from skewdg.skew import SkewElement, graded_basis
from spans import Untraced

HERE = os.path.dirname(os.path.abspath(__file__))

# Scales of C as in the acceptance tests (criterion 2): numerators and
# denominators of at most 3, so radicands stay far below the float range
# where qpl._nth_root goes wrong.
SCALE_NUMERATORS = (1, 2, 3, -1, -2)
SCALE_DENOMINATORS = (1, 2, 3)

_UNTRACED = Untraced()  # warm-up ops run untraced


def load_table() -> dict:
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)


def random_qpl(rng: random.Random, n: int) -> QplMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return QplMatrix(tuple(perm), tuple(
        Fraction(rng.choice(SCALE_NUMERATORS), rng.choice(SCALE_DENOMINATORS))
        for _ in range(n)))


def coefficient_bits(m: Mat) -> int:
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for row in m.data for x in row)


def class_key(label) -> tuple:
    """The orbit-invariant part of a classification: rank, branch, subcase.
    (The rank-1 cohomology-case number is not invariant; see README.md.)"""
    return label.rank, label.branch, label.subcase


def branch_name(label) -> str:
    return label.branch + ("/" + label.subcase if label.subcase else "")


def describe_exception(exc: Exception) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    where = " at %s:%d" % (os.path.basename(frames[-1].filename), frames[-1].lineno) \
        if frames else ""
    return "%s: %s%s" % (type(exc).__name__, exc, where)


@dataclass
class Item:
    """One op's input: a base matrix, the orbit image the op runs on and
    the C that made it."""

    name: str
    base: Mat
    c: QplMatrix
    image: Mat
    degree: int = 0  # deep_verify: cohomology degree
    path: Optional[str] = None  # staircase_ext: the input file

    def describe(self) -> str:
        return "%s M=%s C=(perm %s, scales %s) image=%s" % (
            self.name, _rows(self.base), list(self.c.permutation),
            [str(d) for d in self.c.scales], _rows(self.image))


def _rows(m: Mat) -> list:
    return [[str(x) for x in row] for row in m.data]


class Workload:
    """A round of inputs runs in a seeded random order, so that a slow spell
    of the machine is spread over all kinds of input instead of hitting one."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, round_no: int) -> random.Random:
        return random.Random("%s:%d:%d" % (self.name, self.seed, round_no))

    def setup(self) -> list:
        """Everything before the first timed op: reference answers, the
        first round's inputs and a warm-up op.  Returns those inputs."""
        self.prepare()
        inputs = self.inputs(0)
        self.warm_up()
        return inputs

    def prepare(self):
        pass

    def inputs(self, round_no: int) -> list:
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def op(self, item: Item, ctx):
        raise NotImplementedError

    def traced_op(self, item: Item, ctx):
        return self.op(item, ctx)

    def check(self, item: Item, out) -> list:
        raise NotImplementedError

    def properties(self, item: Item, out) -> tuple:
        """(branch name, resolution size or 0) of a checked op."""
        raise NotImplementedError


# -- staircase_ext ---------------------------------------------------------------


def replay_analyze(m: Mat, ctx, dmax: int = 6, verify_depth: int = 4, truncate: int = 8):
    """report.analyze for n = 3, as the same sequence of public calls with
    the same arguments, each call in its own span.  The traced run checks
    that the JSON emitted from this payload equals the CLI's byte for byte,
    so the replay cannot drift from the real report unnoticed."""
    spec = DgSpec(m)
    brute = ctx.call("dg.cohomology", spec.cohomology, max(dmax, 2))
    payload = {
        "n": 3,
        "matrix": [[str(x) for x in row] for row in m.data],
        "rank": ctx.call("linalg.rank", m.rank),
        "cohomology_dims": brute.dims[: dmax + 1],
    }
    problems = []
    label = ctx.call("classify.classify", classify, m)
    verdict = ctx.call("classify.theorem_c", theorem_c, m)
    probe = ctx.call("dg.cy_probe", cy_probe, spec)
    pres = ctx.call("classify.presentation_of", presentation_of, label)
    payload["classification"] = label.as_dict()
    payload["verdict"] = verdict.as_dict()
    payload["cy_probe"] = probe.as_dict()
    cy_votes = [verdict.calabi_yau, probe.calabi_yau]
    smooth = verdict.homologically_smooth
    if pres is not None:
        cap = min(dmax, 10)
        pdims = ctx.call("classify.presented_dims", presented_dims, pres, cap)
        payload["presentation"] = pres.as_dict()
        payload["presented_dims"] = pdims
        if not smooth:
            payload["presentation_check"] = "skipped-degenerate-family"
        elif pdims != brute.dims[: cap + 1]:
            problems.append("presented dimensions disagree with brute force")
        else:
            payload["presentation_check"] = "match"
    else:
        payload["presentation"] = None

    try:
        built = ctx.call("resolution.build_resolution", build_resolution, m, truncate)
    except UnsupportedCase as exc:
        built = None
        resolution_info = {"available": False, "reason": str(exc)}
    if isinstance(built, InfinitePattern):
        resolution_info = built.as_dict()
        resolution_info["available"] = True
        cy_votes.append(False)
        if built.truncation is not None:
            ctx.count("resolution.size_sum", built.truncation.size)
    elif isinstance(built, SemifreeResolution):
        check = ctx.call("resolution.verify_resolution", verify_resolution,
                         built.spec, built, verify_depth)
        ext = ctx.call("resolution.ext_algebra", ext_algebra, built)
        frob = ctx.call("finalg.frobenius", frobenius, ext)
        ctx.count("resolution.size_sum", built.size)
        ctx.count("finalg.algebra_dim_sum", ext.dim)
        resolution_info = {
            "available": True,
            "homologically_smooth": True,
            "resolution": built.as_dict(),
            "verified": check.passed,
            "ext": {
                "dim": ext.dim,
                "socle_dim": (ctx.call("finalg.socle_dim", socle_dim, ext)
                              if ctx.call("finalg.is_local", ext.is_local) else None),
                "truncated_polynomial": ctx.call("finalg.recognize_truncated",
                                                 recognize_truncated, ext),
                "frobenius": frob.as_dict(),
            },
        }
        if not check.passed:
            problems.append("resolution failed verification: %s" % check.failures)
        cy_votes.append(bool(frob.frobenius and frob.symmetric))
    payload["resolution"] = resolution_info

    if len(set(cy_votes)) > 1:
        problems.append("calabi-yau routes disagree: %s" % cy_votes)
    payload["cy_routes"] = cy_votes
    payload["problems"] = problems
    payload["consistent"] = not problems
    return payload


class StaircaseExt(Workload):
    """One op is `skewdg report <file>` in-process, default flags."""

    name = "staircase_ext"

    def prepare(self):
        table = load_table()
        self.images = table[self.name]  # base name -> orbit images per round
        self.expected = {name: table["bases"][name] for name in self.images}
        # The M side of orbit invariance, computed once on each base.
        self.reference = {}
        for name, entry in self.expected.items():
            m = Mat(entry["matrix"])
            self.reference[name] = (class_key(classify(m)), DgSpec(m).cohomology(6).dims)

    def inputs(self, round_no):
        rng = self.rng(round_no)
        items = []
        for name, count in self.images.items():
            base = Mat(self.expected[name]["matrix"])
            for _ in range(count):
                c = random_qpl(rng, 3)
                image = chi(base, c)
                path = os.path.join(self.workdir, "r%d-%02d.json" % (round_no, len(items)))
                with open(path, "w") as handle:
                    json.dump({"n": 3, "matrix": _rows(image)}, handle)
                items.append(Item(name, base, c, image, path=path))
        rng.shuffle(items)
        return items

    def warm_up(self):
        path = os.path.join(self.workdir, "warm-up.json")
        with open(path, "w") as handle:
            json.dump({"n": 3, "matrix": self.expected["1.1/a"]["matrix"]}, handle)
        self.op(Item("warm-up", None, None, None, path=path), _UNTRACED)

    def op(self, item, ctx):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.call("cli.main", cli.main, ["report", item.path])
        return code, out.getvalue(), err.getvalue()

    def traced_op(self, item, ctx):
        m = ctx.call("cli.load_matrix", cli.load_matrix, item.path)
        with ctx.span("report.analyze"):
            payload = replay_analyze(m, ctx)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ctx.call("cli.emit", cli.emit, {"check": "report", **payload}, False)
        return (0 if payload["consistent"] else 3), out.getvalue(), ""

    def check(self, item, out):
        code, text, err = out
        if code != 0:
            return ["cli exit code %d: %s" % (code, err.strip())]
        try:
            rec = json.loads(text)
        except ValueError as exc:
            return ["cli output is not JSON: %s" % exc]
        want = self.expected[item.name]
        ref_class, ref_dims = self.reference[item.name]
        problems = []
        if rec.get("problems") or not rec.get("consistent"):
            problems.append("report inconsistent: %s" % rec.get("problems"))
        got = rec["classification"]
        if (got["rank"], got["branch"], got.get("subcase")) != ref_class:
            problems.append("classification %s differs from M's %s" % (got, ref_class))
        if "subcase" in want and got.get("subcase") != want["subcase"]:
            problems.append("subcase %s, table says %s" % (got.get("subcase"), want["subcase"]))
        if rec["cohomology_dims"] != ref_dims:
            problems.append("cohomology dims %s differ from M's %s"
                            % (rec["cohomology_dims"], ref_dims))
        if rec["verdict"]["calabi_yau"] != want["calabi_yau"]:
            problems.append("calabi_yau %s, table says %s"
                            % (rec["verdict"]["calabi_yau"], want["calabi_yau"]))
        res = rec["resolution"]
        if not want["calabi_yau"]:
            if res.get("homologically_smooth") is not False:
                problems.append("not-CY input reported homologically smooth")
            return problems
        ext = res.get("ext", {})
        size = res.get("resolution", {}).get("size")
        if size != want["size"]:
            problems.append("resolution size %s, table says %s" % (size, want["size"]))
        if res.get("verified") is not True:
            problems.append("resolution not verified")
        if ext.get("dim") != want["ext_dim"]:
            problems.append("Ext dim %s, table says %s" % (ext.get("dim"), want["ext_dim"]))
        if ext.get("socle_dim") != 1 or ext.get("frobenius", {}).get("symmetric") is not True:
            problems.append("Ext algebra not local symmetric Frobenius with 1-dim socle: %s"
                            % ext)
        if "subcase" in want and ext.get("truncated_polynomial") != want["ext_dim"]:
            problems.append("Ext algebra not k[x]/(x^%d): %s"
                            % (want["ext_dim"], ext.get("truncated_polynomial")))
        return problems

    def properties(self, item, out):
        rec = json.loads(out[1])
        res = rec["resolution"]
        size = res["resolution"]["size"] if "resolution" in res else res["truncation"]["size"]
        cls = rec["classification"]
        return cls["branch"] + ("/" + cls["subcase"] if "subcase" in cls else ""), size


def _verdict_flags(v) -> tuple:
    return v.calabi_yau, v.koszul, v.homologically_smooth


# -- verdict_sweep ---------------------------------------------------------------

# Ranks of the factors A (3 x r) and B (r x 3) of M = A B, one round cycling
# through them: mostly rank-1 and rank-2 nondegenerate matrices, some rank 3,
# and a few rank-2 degenerate, equality and zero ones.
FACTOR_RANKS = (1, 1, 2, 2, 3)
VERDICT_ROUND = 500


def product_matrix(rng: random.Random, r: int) -> Mat:
    a = [[rng.choice((-1, 0, 1, 2)) for _ in range(r)] for _ in range(3)]
    b = [[rng.choice((-1, 0, 1, 2)) for _ in range(3)] for _ in range(r)]
    return Mat([[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(3)]
                for i in range(3)])


class VerdictSweep(Workload):
    """One op is a pair (M, chi(M, C)): classify, theorem_c and cy_probe on
    both, iso_solve between them and aut_group of M."""

    name = "verdict_sweep"

    def inputs(self, round_no, count=VERDICT_ROUND):
        rng = self.rng(round_no)
        items = []
        for k in range(count):
            base = product_matrix(rng, FACTOR_RANKS[k % len(FACTOR_RANKS)])
            c = random_qpl(rng, 3)
            items.append(Item("pair", base, c, chi(base, c)))
        return items

    def warm_up(self):
        for item in self.inputs(-1, count=20):
            self.op(item, _UNTRACED)

    def op(self, item, ctx):
        out = {}
        for side, m in (("m", item.base), ("image", item.image)):
            out[side] = (ctx.call("classify.classify", classify, m),
                         ctx.call("classify.theorem_c", theorem_c, m),
                         ctx.call("dg.cy_probe", cy_probe, DgSpec(m)))
        iso = out["iso"] = ctx.call("qpl.iso_solve", iso_solve, item.base, item.image)
        aut = out["aut"] = ctx.call("qpl.aut_group", aut_group, item.base)
        ctx.count("qpl.iso_solve.witnesses", iso.status == "Witness")
        ctx.count("qpl.aut_group.families", len(aut))
        return out

    def check(self, item, out):
        problems = []
        (l1, v1, p1), (l2, v2, p2) = out["m"], out["image"]
        if class_key(l1) != class_key(l2):
            problems.append("classify: %s for M, %s for the image"
                            % (class_key(l1), class_key(l2)))
        if _verdict_flags(v1) != _verdict_flags(v2):
            problems.append("theorem_c: %s for M, %s for the image" % (v1, v2))
        if (p1.calabi_yau, p1.branch) != (p2.calabi_yau, p2.branch):
            problems.append("cy_probe: %s for M, %s for the image" % (p1, p2))
        for side, v, p in (("M", v1, p1), ("the image", v2, p2)):
            if v.calabi_yau != p.calabi_yau:
                problems.append("theorem_c and cy_probe disagree on %s" % side)
        iso = out["iso"]
        if iso.status != "Witness":
            problems.append("iso_solve on an orbit pair returned %s" % iso.status)
        elif chi(item.base, iso.witness) != item.image:
            problems.append("iso_solve witness %s fails the chi re-check" % (iso.witness,))
        if not any(f.permutation == (0, 1, 2) for f in out["aut"]):
            problems.append("aut_group has no identity-permutation family")
        return problems

    def properties(self, item, out):
        return branch_name(out["m"][0]), 0


# -- deep_verify -----------------------------------------------------------------

VALIDATE_DEGREE = 6  # `skewdg validate` default --max-degree
VERIFY_DEPTH = 6


def validate(spec: DgSpec, ctx) -> tuple:
    """The `skewdg validate` check: d^2 = 0 on every monomial up to degree 6
    and the Leibniz rule on degrees 1 and 2, with the calls batched per
    layer."""
    n = spec.n
    monos = [SkewElement(n, {mono: 1})
             for d in range(VALIDATE_DEGREE + 1) for mono in graded_basis(n, d)]
    with ctx.span("dg.differential", calls=2 * len(monos)):
        square_zero = all(spec.differential(spec.differential(e)).is_zero() for e in monos)
    low = [(d, SkewElement(n, {mono: 1})) for d in (1, 2) for mono in graded_basis(n, d)]
    with ctx.span("dg.differential", calls=len(low)):
        diffs = [spec.differential(a) for _, a in low]
    with ctx.span("skew.mul", calls=len(low) ** 2):
        products = [a * b for _, a in low for _, b in low]
    with ctx.span("dg.differential", calls=len(products)):
        lhs = [spec.differential(p) for p in products]
    with ctx.span("skew.mul", calls=2 * len(products)):
        rhs = [da * b + (a * db).scale(-1 if d % 2 else 1)
               for (d, a), da in zip(low, diffs) for (_, b), db in zip(low, diffs)]
    return square_zero, lhs == rhs


class DeepVerify(Workload):
    """One op on one matrix: the validate check, cohomology to a high
    degree and, for n = 3, eilenberg_moore then verify_resolution."""

    name = "deep_verify"

    def prepare(self):
        table = load_table()
        self.expected = {name: dict(table["bases"][name], degree=degree)
                         for name, degree in table[self.name].items()}
        # Orbit invariance is checked against the first image of each base
        # seen in the run; every round holds two images of every base.
        self.reference = {}

    def inputs(self, round_no):
        rng = self.rng(round_no)
        items = []
        for name, entry in self.expected.items():
            base = Mat(entry["matrix"])
            for _ in range(2):
                c = random_qpl(rng, base.rows)
                items.append(Item(name, base, c, chi(base, c), degree=entry["degree"]))
        rng.shuffle(items)
        return items

    def warm_up(self):
        base = Mat(self.expected["rank3"]["matrix"])
        c = random_qpl(self.rng(-1), 3)
        self.op(Item("rank3", base, c, chi(base, c), degree=4), _UNTRACED)

    def op(self, item, ctx):
        m = item.image
        square_zero, leibniz = validate(DgSpec(m), ctx)
        spec = DgSpec(m)
        with ctx.span("dg.boundary_matrix", calls=item.degree + 1):
            mats = [spec.boundary_matrix(d) for d in range(item.degree + 1)]
        if ctx.enabled:
            ctx.count("dg.boundary_matrix.entries",
                      sum(1 for b in mats for row in b.data for x in row if x))
            with ctx.span("linalg.rank", calls=len(mats), extra=True):
                for b in mats:
                    b.rank()
            ctx.maximum("linalg.rank.max_rows", max(b.rows for b in mats))
            ctx.maximum("linalg.rank.max_cols", max(b.cols for b in mats))
        coh = ctx.call("dg.cohomology", spec.cohomology, item.degree)
        out = {"square_zero": square_zero, "leibniz": leibniz, "dims": coh.dims,
               "h1": len(coh.h1_basis), "h2": len(coh.h2_data[0])}
        if m.rows == 3:
            label = ctx.call("classify.classify", classify, m)
            grid, complete = ctx.call("resolution.eilenberg_moore", eilenberg_moore, spec)
            res = SemifreeResolution(spec, grid, label)
            report = ctx.call("resolution.verify_resolution", verify_resolution,
                              spec, res, VERIFY_DEPTH)
            ctx.count("resolution.size_sum", len(grid))
            out.update({"class": class_key(label), "branch": branch_name(label),
                        "size": len(grid), "complete": complete, "verified": report.passed})
        return out

    def check(self, item, out):
        want = self.expected[item.name]
        problems = []
        if not (out["square_zero"] and out["leibniz"]):
            problems.append("validate: square_zero=%s leibniz=%s"
                            % (out["square_zero"], out["leibniz"]))
        dims = out["dims"]
        if dims[0] != 1 or out["h1"] != dims[1] or out["h2"] != dims[2]:
            problems.append("cohomology routes disagree: dims %s, %d H^1 and %d H^2 "
                            "representatives" % (dims, out["h1"], out["h2"]))
        if "size" in want and out.get("size") != want["size"]:
            problems.append("eilenberg_moore size %s, table says %s"
                            % (out.get("size"), want["size"]))
        # NOT_CY inputs get orbit invariance only: their resolutions pass
        # verification although the verdict is not smooth (see README.md).
        if out.get("verified") is False and want.get("calabi_yau", True):
            problems.append("eilenberg_moore resolution failed verification")
        ref = self.reference.setdefault(item.name, out)
        for key in ("dims", "class", "size", "complete", "verified"):
            if out.get(key) != ref.get(key):
                problems.append("%s %s differs from another image's %s"
                                % (key, out.get(key), ref.get(key)))
        return problems

    def properties(self, item, out):
        return out.get("branch", "n=%d" % item.image.rows), out.get("size", 0)


WORKLOADS = {w.name: w for w in (StaircaseExt, VerdictSweep, DeepVerify)}
