"""CSV rows of float columns as bytes, every cell exactly repr(float(x)).

A table is made one block of ``CHUNK`` rows at a time: the block's float
cells, stacked row-major, are written by one call of orjson's shortest
round-trip writer, and every width-th comma of its output ends a row.
Where repr writes plain decimals (0 and 1e-4 <= |x| < 1e16) both write the
same shortest digits the same way.  The other cells, whose repr has an
exponent or is not finite, are spelled for the whole table at once: one
orjson dump of them all, put into repr's layout by a few vectorised byte
edits, gives the text of each, which is then written over a stand-in of
the same length in its block's dump.  No Python object is made per cell.
Text cells that are the same on every row (a sweep point's value, the
solve table's ``top``) are part of the row separator.

gaussbath.scenario imports this module where it first makes a table, so
importing gaussbath.cli does not compile it.
"""

import numpy as np

# the text of a nan, the one mark of a value that is not available
NA = "NA"
# rows per block of a table: bounds the arrays and texts alive besides the
# finished blocks, so formatting memory does not grow with the table
CHUNK = 512


def _dump(cells):
    """orjson's text of float cells as a writable byte array, each cell ended
    by a comma: the shortest round-trip digits of each finite cell, null for
    the others."""
    # imported on first use, like this module, so importing gaussbath.cli does not pay for it
    import orjson

    data = np.frombuffer(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY), np.uint8, offset=1)
    data = data.copy()
    # the closing bracket becomes the comma that ends the last cell
    data[-1] = ord(",")
    return data


# inf and -inf in the four bytes of orjson's null; a 0 byte is deleted
_INF = np.frombuffer(b"inf\0-inf", np.uint8).reshape(2, 4)
# _STAND_IN[n] is a float whose orjson text is n bytes long, for every length
# n = 3 ... 24 of an odd cell's text: 1.0, 10.0, ... 1000000000000000.0, then
# -1.23456789012e-300 and one more digit at a time
_STAND_IN = np.array([np.nan] * 3 + [10.0**k for k in range(16)]
                     + [-float(f"1.{'2345678901234567'[:j]}e-300") for j in range(11, 17)])


def _spell(values):
    """The text of ``values``, cells whose repr is no plain decimal, as
    (the cells' bytes back to back, the bounds of each cell in them).  Each
    cell is repr(float(x)), but a nan is null.

    orjson writes the same shortest digits as repr and differs only in
    layout, so a few byte edits at the cells' spans turn its text into
    repr's: a one-digit negative exponent gets a leading 0 (e-7 -> e-07), a
    positive one a + (e16 -> e+16), and a cell of 1e-5 <= |x| < 1e-4, which
    orjson writes 0.0000ddd, becomes d.dde-05."""
    data = _dump(values)
    ends = np.flatnonzero(data == ord(","))
    starts = np.concatenate(([0], ends[:-1] + 1))
    inf = np.flatnonzero(np.isinf(values))
    data[starts[inf, None] + np.arange(4)] = _INF[(values[inf] < 0).astype(int)]
    # the first digit of a finite cell is 0 only in 0.0000ddd
    first = starts + (data[starts] == ord("-"))
    decade = np.flatnonzero(data[first] == ord("0"))
    point = first[decade]
    data[point[:, None] + np.arange(6)] = 0
    exponent = np.flatnonzero(data == ord("e"))
    positive = exponent[data[exponent + 1] != ord("-")]
    short = exponent[(data[exponent + 1] == ord("-")) & (data[exponent + 3] == ord(","))]
    # a cell of one digit, 0.0000d, takes no decimal point
    dotted = point[data[point + 7] != ord(",")]
    data = np.insert(
        data,
        np.concatenate((positive + 1, short + 2, dotted + 7, np.repeat(ends[decade], 4))),
        np.concatenate((
            np.full(positive.size, ord("+")), np.full(short.size, ord("0")),
            np.full(dotted.size, ord(".")), np.tile(np.frombuffer(b"e-05", np.uint8), decade.size),
        )).astype(np.uint8),
    )
    data = data[data != 0]
    ends = np.flatnonzero(data == ord(","))
    return data[data != ord(",")], np.concatenate(([0], ends - np.arange(ends.size)))


def _odd(cells):
    """The indices of the cells whose repr is no plain decimal: exponent
    form, inf or nan."""
    size = np.abs(cells)
    return np.flatnonzero(~((size >= 1e-4) & (size < 1e16) | (size == 0)))


def table(columns, lead=(), tail=()):
    """CSV rows of equal-length float columns as bytes, one block per CHUNK
    rows: each row is the text cells of ``lead``, its float cells and the
    text cells of ``tail``, joined by commas and ended by a newline.  Each
    float cell is repr(float(x)), or NA for a nan.

    A block without odd cells (see ``_odd``) is done in one pass.  The odd
    cells of all the others are spelled by one ``_spell`` call; each such
    block is then dumped with a stand-in of the same length in place of
    each odd cell, and the text of each is written over its stand-in.  A
    nan, spelled null, then becomes NA."""
    width = len(columns)
    lead = "".join(f"{cell}," for cell in lead).encode()
    stop = "".join(f",{cell}" for cell in tail).encode() + b"\n"

    def rows(cells, odd):
        # the dump of a block with its row ends, and the end of each odd cell
        data = _dump(cells)
        commas = np.flatnonzero(data == ord(","))
        data[commas[width - 1 :: width]] = ord("\n")
        return data, commas[odd]

    def finish(text):
        if lead or tail:
            text = lead + text[:-1].replace(b"\n", stop + lead) + stop
        return text

    def stacked(lo):
        return np.stack([column[lo : lo + CHUNK] for column in columns], axis=1).ravel()

    # a block with odd cells waits, as (its index, its start row, its odd cells)
    blocks, pending, values = [], [], []
    for lo in range(0, len(columns[0]), CHUNK):
        cells = stacked(lo)
        odd = _odd(cells)
        if odd.size:
            pending.append((len(blocks), lo, odd))
            values.append(cells[odd])
            blocks.append(None)
        else:
            blocks.append(finish(rows(cells, odd)[0].tobytes()))
    if not pending:
        return blocks
    values = np.concatenate(values)
    spelled, bounds = _spell(values)
    first = 0
    for index, lo, odd in pending:
        last = first + odd.size
        lengths = np.diff(bounds[first : last + 1])
        cells = stacked(lo)
        cells[odd] = _STAND_IN[lengths]
        data, ends = rows(cells, odd)
        # each stand-in ends where its cell does, as long as its text
        at = np.repeat(ends - bounds[first + 1 : last + 1], lengths)
        data[at + np.arange(bounds[first], bounds[last])] = spelled[bounds[first] : bounds[last]]
        text = data.tobytes()
        if np.isnan(values[first:last]).any():
            text = text.replace(b"null", NA.encode())
        blocks[index] = finish(text)
        first = last
    return blocks
