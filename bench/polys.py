"""Integer Laurent polynomials as plain term maps, for the benchmark's own use.

The benchmark generates its inputs and checks the program's outputs without
going through the program's arithmetic, so polynomials here are dicts
``{exponent tuple: int coefficient}`` written to the shared text grammar
(``z`` for one variable, ``z1, z2, ...`` for several).
"""

from __future__ import annotations

import re


def clean(terms: dict) -> dict:
    """Drop zero coefficients."""
    return {e: c for e, c in terms.items() if c}


def to_text(terms: dict, rank: int) -> str:
    """Polynomial text the command line parses back to the same terms."""
    terms = clean(terms)
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms):
        c = terms[e]
        factors = []
        for i, n in enumerate(e):
            if n:
                name = "z" if rank == 1 else f"z{i + 1}"
                factors.append(name if n == 1 else f"{name}^{n}")
        mono = "*".join(factors)
        body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


_TERM = re.compile(r"(\d+)?\*?((?:[zt]\d*(?:\^-?\d+)?\*?)*)$")


def from_text(text: str, rank: int) -> dict:
    """Parse integer-coefficient polynomial text into a term map.

    Only the forms the program prints are needed: signed terms joined by
    ``+``/``-``, integer coefficients, ``*``-joined variable powers.
    """
    compact = "".join(text.split())
    if compact == "0":
        return {}
    pieces = re.split(r"(?<!\^)([+-])", compact)
    if pieces[0] == "":
        pieces = pieces[1:]
    else:
        pieces = ["+"] + pieces
    out: dict = {}
    for sign, body in zip(pieces[0::2], pieces[1::2]):
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"cannot read term {body!r} of {text!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exps = [0] * rank
        for factor in filter(None, m.group(2).split("*")):
            var, _, power = factor.partition("^")
            idx = int(var[1:]) - 1 if len(var) > 1 else 0
            exps[idx] += int(power) if power else 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + (-coeff if sign == "-" else coeff)
    return clean(out)


def span(terms: dict, axis: int) -> int:
    """Width of the support along one axis (0 for constants and monomials)."""
    if not terms:
        return 0
    values = [e[axis] for e in terms]
    return max(values) - min(values)


def matrix_span(entries: list, axis: int) -> int:
    """Width of the combined support of all entries along one axis."""
    values = [e[axis] for row in entries for p in row for e in p]
    return max(values) - min(values) if values else 0


def matrix_json(entries: list, rank: int) -> dict:
    """The command line's matrix file format."""
    return {
        "rank": rank,
        "rows": len(entries),
        "cols": len(entries[0]),
        "entries": [to_text(p, rank) for row in entries for p in row],
    }
