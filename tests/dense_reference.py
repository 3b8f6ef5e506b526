"""A small dense exact elimination over field scalars: the independent
reference that the tests hold eliminate_block to.

DenseSpan takes dense vectors of scalars of one field, one at a time, and
does plain field arithmetic on them.  Each vector is reduced by the pivot
rows kept so far.  It either becomes a new pivot row, scaled to lead with
1 in its first nonzero column, or comes back as its exact combination over
the earlier pivots.  DenseSpan uses nothing from nichols.linalg; the
helpers below call eliminate_block, on its default path and with its
mod-p path refused, to compare it with DenseSpan."""

from unittest import mock

from nichols import linalg


class DenseSpan:
    """Greedy elimination: the pivots are the first independent
    subsequence of the vectors inserted."""

    def __init__(self, field):
        self.field = field
        self.leads = []   # the lead column of each pivot row
        self.rows = []    # pivot rows: lead 1, zero in earlier rows' leads
        self.exprs = []   # each pivot row as a combination of the pivots

    def insert(self, vector):
        """("pivot", ordinal), or ("combo", [scalar per earlier pivot])."""
        field = self.field
        row = list(vector)
        combo = [field.zero()] * len(self.rows)
        # row k is zero in the lead columns of rows 0..k-1, so reducing in
        # pivot order never refills a lead column already cleared
        for lead, pivot, expr in zip(self.leads, self.rows, self.exprs):
            f = row[lead]
            if f:
                row = [x + -(f * y) for x, y in zip(row, pivot)]
                for p, e in enumerate(expr):
                    combo[p] = combo[p] + f * e
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            return "combo", combo
        inv = field.inverse(row[lead])
        self.leads.append(lead)
        self.rows.append([inv * x for x in row])
        self.exprs.append([-(inv * a) for a in combo] + [inv])
        return "pivot", len(self.rows) - 1


def reference_sequence(field, vectors, track=True):
    """What eliminate_block(field, vectors, track) must return for these
    sparse vectors: DenseSpan over their columns in sort order, each
    combination as a sparse {ordinal: scalar} dict without zeros."""
    cols = sorted({c for v in vectors for c in v})
    pos = {c: i for i, c in enumerate(cols)}
    span = DenseSpan(field)
    out = []
    for v in vectors:
        row = [field.zero()] * len(cols)
        for c, x in v.items():
            row[pos[c]] = x
        kind, data = span.insert(row)
        if kind == "combo":
            data = {o: x for o, x in enumerate(data) if x} if track else None
        out.append((kind, data))
    return out


def exact_path(field, vectors, track=True):
    """eliminate_block with the mod-p path refused, so that every block,
    over Q too, is eliminated exactly."""
    with mock.patch.object(linalg, "_eliminate_mod_p",
                           lambda vectors, track: "forced"):
        return linalg.eliminate_block(field, vectors, track)


def agree(field, vectors, track=True):
    """The reference sequence, after checking that eliminate_block returns
    it on both of its paths: its default path (mod p over Q) and the exact
    one."""
    want = reference_sequence(field, vectors, track)
    assert linalg.eliminate_block(field, vectors, track) == want
    assert exact_path(field, vectors, track) == want
    return want
