"""Independent reference for the benchmark: a standard-library column DP.

Nothing here imports ``bratteli``.  D_k(i, j) counts the +-1 walks of
length j from height 0 that stay in [0, k] and end at height i.  A walk of
length j never climbs above height j, so every column is computed with the
band clamped to min(k, j): the cost depends on the answer, not on an unused
bound k.

The ``check_*`` functions parse what a ``bratteli`` command printed and
return None when it matches the reference, or a one-line reason when not;
``Checker`` applies the right one to a benchmark op.
"""

import hashlib
import json


def columns(k: int, jmax: int):
    """Yield the columns D_k(., j) for j = 0..jmax, each indexed by height."""
    top = min(k, jmax)
    col = [1] + [0] * top
    yield col
    for _ in range(jmax):
        nxt = [0] * (top + 1)
        for h in range(top + 1):
            s = col[h - 1] if h else 0
            if h < top:
                s += col[h + 1]
            nxt[h] = s
        col = nxt
        yield col


def count(k: int, i: int, j: int) -> int:
    """D_k(i, j); zero for unreachable targets."""
    if i > k or i > j or (i + j) % 2:
        return 0
    for col in columns(k, j):
        pass
    return col[i]


def row(k: int, i: int, n: int) -> list:
    """[D_k(i, m) for m = 0..n]."""
    return [col[i] if i < len(col) else 0 for col in columns(k, n)]


def vertices(k: int, jmax: int) -> int:
    """Number of reachable (i, j) with j <= jmax in the level-k diagram."""
    return sum(max(0, (min(k, j) - j % 2) // 2 + 1) for j in range(jmax + 1))


def prefixes(k: int, length: int) -> int:
    """Bounded walks of every length 0..length: the nodes of the enumeration tree."""
    return sum(sum(col) for col in columns(k, length))


# ---------------------------------------------------------------------------
# output checks


def check_count(out: str, k: int, i: int, j: int):
    text = out.strip()
    if not text.isdigit():
        return f"count output {text[:40]!r} is not a decimal integer"
    if int(text) != count(k, i, j):
        return f"count (k={k}, i={i}, j={j}) is wrong"
    return None


def check_verify(out: str, kmax: int, jmax: int, backends: list):
    queries = sum(vertices(k, jmax) for k in range(kmax + 1))
    want = [f"{backends[0]} vs {b}: ok ({queries} queries)" for b in backends[1:]]
    want.append(f"all backends agree (kmax={kmax}, jmax={jmax})")
    if out.splitlines() != want:
        return f"verify (kmax={kmax}, jmax={jmax}) printed an unexpected verdict"
    return None


def _replay(coeffs: list, initial: list, n: int) -> list:
    terms = list(initial[: n + 1])
    while len(terms) <= n:
        terms.append(sum(c * terms[-t] for t, c in enumerate(coeffs, start=1)))
    return terms


def _parse_recurrence(text: str, order: int) -> list:
    # "a_m = 5a_{m-1} - 6a_{m-2} + a_{m-3}" -> [5, -6, 1]
    coeffs = [0] * order
    body = text.split("=", 1)[1].split()
    sign = 1
    for tok in body:
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok == "0":
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        scale, lag = tok.split("a_{m-")
        coeffs[int(lag.rstrip("}")) - 1] = sign * (int(scale) if scale else 1)
        sign = 1
    return coeffs


def check_gf(out: str, k: int, i: int, even: bool):
    """Replay the printed recurrence and series against D_k(i, .)."""
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        fields[key] = value.strip()
    try:
        offset = int(fields.get("offset", "0"))
        num = [int(c) for c in fields["num"].split()] if fields["num"] != "0" else []
        den = [int(c) for c in fields["den"].split()]
        initial = [int(c) for c in fields["initial"].split()]
        coeffs = _parse_recurrence(fields["recurrence"], len(den) - 1)
    except (KeyError, ValueError, IndexError):
        return f"gf (k={k}, i={i}) output does not parse"
    if even != ("offset" in fields) or (den and den[0] != 1):
        return f"gf (k={k}, i={i}) output has the wrong shape"
    n = len(initial) + 2 * len(coeffs) + 8
    step = 2 if even else 1
    ref = row(k, i, step * n + offset)[offset::step][: n + 1]
    if _replay(coeffs, initial, n) != ref:
        return f"gf (k={k}, i={i}) recurrence does not reproduce the counts"
    series = []
    for m in range(n + 1):
        c = num[m] if m < len(num) else 0
        c -= sum(den[t] * series[m - t] for t in range(1, min(m, len(den) - 1) + 1))
        series.append(c)
    if series != ref:
        return f"gf (k={k}, i={i}) num/den series does not match the counts"
    return None


class TableRef:
    """Reference decimal strings of one table, by column, for checking output."""

    def __init__(self, k: int, jmax: int):
        self.k, self.jmax = k, jmax
        self.cols = [[str(c) for c in col[j % 2::2]] for j, col in enumerate(columns(k, jmax))]

    def cell(self, i: int, j: int):
        """Decimal count at (i, j), or None when (i, j) is not a vertex."""
        if i > self.k or i > j or (i + j) % 2:
            return None
        return self.cols[j][i // 2]

    def check(self, out: bytes, fmt: str):
        what = f"table (k={self.k}, jmax={self.jmax}, {fmt})"
        try:
            ok = {"csv": self._csv, "json": self._json, "pretty": self._pretty}[fmt](out)
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        return None if ok else f"{what} does not match the reference"

    def _expected(self):
        for j in range(self.jmax + 1):
            for i in range(j % 2, min(self.k, j) + 1, 2):
                yield i, j, self.cols[j][i // 2]

    def _csv(self, out: bytes) -> bool:
        lines = out.decode("ascii").split("\n")
        if lines[0] != "j,i,count" or lines[-1] != "":
            return False
        body = lines[1:-1]
        n = 0
        for n, (i, j, c) in enumerate(self._expected(), start=1):
            if n > len(body):
                return False
            jj, ii, cc = body[n - 1].split(",")
            if (int(jj), int(ii), cc) != (j, i, c):
                return False
        return n == len(body)

    def _json(self, out: bytes) -> bool:
        data = json.loads(out)
        if (data["k"], data["jmax"]) != (self.k, self.jmax):
            return False
        got = data["entries"]
        want = list(self._expected())
        return len(got) == len(want) and all(
            (e["i"], e["j"], e["count"]) == w for e, w in zip(got, want)
        )

    def _pretty(self, out: bytes) -> bool:
        # rows "  i | c0 c1 ..." for i = k..0, a rule, then "  j | 0 1 ...":
        # every cell is right-justified to one shared width, blanks off the diagram.
        # Lines are sliced one at a time: a pretty table can be tens of MB.
        if not out.endswith(b"\n"):
            return False
        start = out.rfind(b"\n", 0, len(out) - 1) + 1
        head = out[start:-1]
        width, rest = divmod(len(head) - 6 - self.jmax, self.jmax + 1)
        if rest or head[:6] != b"  j | ":
            return False
        for j in range(self.jmax + 1):
            at = 6 + j * (width + 1)
            if head[at:at + width].strip() != str(j).encode():
                return False
        pos = 0
        for i in range(self.k, -1, -1):
            end = out.find(b"\n", pos)
            line, pos = out[pos:end], end + 1
            if end < 0 or line[:6] != f"{i:>3} | ".encode():
                return False
            for j in range(self.jmax + 1):
                at = 6 + j * (width + 1)
                cell = line[at:at + width].strip().decode("ascii")
                if cell != (self.cell(i, j) or ""):
                    return False
        rule = out.find(b"\n", pos)
        return rule + 1 == start and out[pos:pos + 6] == b"----+-"


class Checker:
    """Checks one op's exit code and stdout; None when right, else the reason.

    An output already checked for the same argv is known by its hash, and a
    table's reference is dropped once all three formats of it are checked,
    which keeps the checking process small.
    """

    def __init__(self):
        self.good = set()
        self.tables = {}

    def __call__(self, op: dict, rc, out: bytes):
        if rc is None:
            return "timed out"
        if rc != 0:
            return f"exit code {rc}"
        key = (tuple(op["argv"]), hashlib.sha256(out).digest())
        if key in self.good:
            return None
        kind = op["kind"]
        if kind == "table":
            size = (op["k"], op["jmax"])
            ref, formats = self.tables.setdefault(size, (TableRef(*size), set()))
            err = ref.check(out, op["format"])
            formats.add(op["format"])
            if len(formats) == 3:
                del self.tables[size]
        else:
            text = out.decode("ascii", "replace")
            if kind == "gf":
                err = check_gf(text, op["k"], op["i"], op["even"])
            elif kind == "verify":
                err = check_verify(text, op["kmax"], op["jmax"], op["backends"])
            else:
                err = check_count(text, op["k"], op["i"], op["j"])
        if err is None:
            self.good.add(key)
        return err
