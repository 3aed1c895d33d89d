"""Test-only reference for skewdg.classify: presented dimensions by ranking
the whole ideal span in each degree.

presented_dims_by_rank spans the degree-d component of the two-sided ideal
by one row per (left word, relation, right word) and subtracts its rank from
the word count.  The package counts the normal words of a truncated Gröbner
basis instead; the two share no code beyond sparse_rank, so comparing them
is an independent check.  The cost grows with the number of words, which is
exponential in the degree, so keep dmax small.
"""

from skewdg.linalg import sparse_rank


def presented_dims_by_rank(pres, dmax):
    """Dimensions of the presented graded algebra up to dmax, each degree
    on its own: word count minus the rank of the ideal's span."""
    degrees = [d for _, d in pres.generators]
    if any(d not in (1, 2) for d in degrees):
        raise ValueError("generator degrees outside {1, 2} are unsupported")
    ngens = len(degrees)

    words_by_degree = [[()]]
    for d in range(1, dmax + 1):
        layer = []
        for g in range(ngens):
            dg = degrees[g]
            if dg <= d:
                for w in words_by_degree[d - dg]:
                    layer.append(w + (g,))
        words_by_degree.append(sorted(layer))

    dims = []
    for d in range(dmax + 1):
        words = words_by_degree[d]
        index = {w: i for i, w in enumerate(words)}
        rows = []
        for rel in pres.relations:
            rel_deg = sum(degrees[g] for g in rel[0][1]) if rel else 0
            if rel_deg > d or not rel:
                continue
            for a in range(0, d - rel_deg + 1):
                b = d - rel_deg - a
                for left in words_by_degree[a]:
                    for right in words_by_degree[b]:
                        row = {}
                        for coeff, w in rel:
                            k = index[left + w + right]
                            row[k] = row.get(k, 0) + coeff
                        rows.append({k: c for k, c in row.items() if c})
        dims.append(len(words) - sparse_rank(rows))
    return dims
