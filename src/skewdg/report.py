"""Full cross-checked analysis of a defining matrix.

The report runs every route to the Calabi-Yau verdict the package has --
the case classification, the cohomological probe, and (when a finite
verified resolution exists) the symmetric-Frobenius test on the Ext
algebra -- plus the two independent dimension engines, and flags any
disagreement instead of averaging it away.
"""

from __future__ import annotations

from typing import Optional

from .classify import (
    GradedPresentation,
    classify,
    degenerate_presentation,
    presentation_of,
    presented_dims,
    theorem_c,
)
from .dg import DgSpec, cy_probe, koszul_dims
from .finalg import frobenius, recognize_truncated, socle_dim
from .linalg import Mat
from .resolution import InfinitePattern, UnsupportedCase, _resolve, ext_algebra, verify_resolution


def n2_presentation(m: Mat) -> Optional[GradedPresentation]:
    """Cohomology presentation for the seven published n = 2 families."""
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    det = a * d - b * c
    if det != 0:
        return GradedPresentation([], [])
    if a != 0 and b == 0 and c == 0 and d == 0:
        return GradedPresentation([("z", 1)], [])
    if b != 0 and a == 0 and c == 0 and d == 0:
        return degenerate_presentation()
    if a != 0 and b != 0 and c == 0 and d == 0:
        return GradedPresentation([("z", 1)], [])
    if a != 0 and c != 0 and b == 0 and d == 0:
        return GradedPresentation([("z", 1)], [])
    if all(x != 0 for x in (a, b, c, d)) and a * a != c * d:
        return GradedPresentation([("z", 1)], [])
    if all(x != 0 for x in (a, b, c, d)) and a * a == c * d:
        return degenerate_presentation()
    return None


# The built resolution is checked exact below degree 4.  Exactness through
# degree n + 1 would prove H(F) = k in every degree; ROADMAP item 2 derives
# the depth n + 2 together with that certificate.
VERIFY_DEPTH = 4


def analyze(m: Mat, dmax: int = 6, truncate: int = 8) -> dict:
    """Aggregate all analyses of a defining matrix with cross-checks."""
    n = m.rows
    if n not in (2, 3):
        raise UnsupportedCase("reports cover n = 2 and n = 3")
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    spec = DgSpec(m)
    brute = spec.cohomology_dims(dmax)
    payload = {
        "n": n,
        "matrix": [[str(x) for x in row] for row in m.data],
        "rank": m.rank(),
        "cohomology_dims": brute,
    }
    problems = []
    if brute != koszul_dims(n, payload["rank"], dmax):
        problems.append("cohomology dimensions disagree with the Koszul closed form")

    pres = None
    if n == 2:
        pres = n2_presentation(m)
        payload["calabi_yau"] = True
        payload["reason"] = "quantum-plane"
        cy_votes = [True]
        smooth = True
    else:
        label = classify(m)
        verdict = theorem_c(m)
        probe = cy_probe(spec)
        pres = presentation_of(label)
        payload["classification"] = label.as_dict()
        payload["verdict"] = verdict.as_dict()
        payload["cy_probe"] = probe.as_dict()
        cy_votes = [verdict.calabi_yau, probe.calabi_yau]
        smooth = verdict.homologically_smooth

    if pres is not None:
        pdims = presented_dims(pres, dmax)
        payload["presentation"] = pres.as_dict()
        payload["presented_dims"] = pdims
        if not smooth:
            # The displayed quadric presentations of the degenerate families
            # are incomplete (extra relations appear from degree 3 on), so
            # the two dimension engines are not expected to agree there.
            payload["presentation_check"] = "skipped-degenerate-family"
        elif pdims != brute:
            problems.append("presented dimensions disagree with brute force")
        else:
            payload["presentation_check"] = "match"
    else:
        payload["presentation"] = None

    if n == 3:
        built = _resolve(spec, label, smooth, truncate)
        if isinstance(built, InfinitePattern):
            resolution_info = built.as_dict()
            resolution_info["available"] = True
            cy_votes.append(False)
        else:
            check = verify_resolution(built.spec, built, dmax=VERIFY_DEPTH)
            ext = ext_algebra(built)
            frob = frobenius(ext)
            resolution_info = {
                "available": True,
                "homologically_smooth": True,
                "resolution": built.as_dict(),
                "verified": check.passed,
                "ext": {
                    "dim": ext.dim,
                    "socle_dim": socle_dim(ext) if ext.is_local() else None,
                    "truncated_polynomial": recognize_truncated(ext),
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
