"""qgen-style parameter substitution for the evaluated TPC-H queries.

The query texts come from :mod:`repro.workloads.tpch.queries` unchanged
except for their substitution parameters, which are drawn from the
TPC-H specification's domains (clause 2.4) with a caller-supplied
``random.Random``.  The TPC-H *database* stays fixed per scale factor
(dbgen is deterministic); only the parameters follow the stream seed,
as with qgen.
"""

from __future__ import annotations

import datetime
import random
from typing import Dict, Tuple

from repro.workloads.tpch.generator import (
    MARKET_SEGMENTS,
    NATIONS,
    PART_COLORS,
    REGIONS,
    TYPE_SYLLABLE_1,
    TYPE_SYLLABLE_2,
    TYPE_SYLLABLE_3,
)
from repro.workloads.tpch.queries import query

Params = Dict[str, object]

#: the specification's validation parameters (the values the query
#: texts carry unsubstituted)
VALIDATION: Dict[str, Params] = {
    "Q3": {"segment": "BUILDING", "date": datetime.date(1995, 3, 15)},
    "Q8": {"nation": "BRAZIL", "region": "AMERICA", "type": "ECONOMY ANODIZED STEEL"},
    "Q10": {"date": datetime.date(1993, 10, 1)},
}


def _date(value: datetime.date) -> str:
    return f"DATE '{value.isoformat()}'"


def _add_months(value: datetime.date, months: int) -> datetime.date:
    index = value.month - 1 + months
    return value.replace(year=value.year + index // 12, month=index % 12 + 1)


def draw(name: str, rng: random.Random) -> Params:
    """Draw one parameter set for query ``name`` (``"Q3"`` … ``"Q10"``)."""
    if name == "Q3":
        return {
            "segment": rng.choice(MARKET_SEGMENTS),
            "date": datetime.date(1995, 3, 1)
            + datetime.timedelta(days=rng.randrange(31)),
        }
    if name == "Q5":
        return {
            "region": rng.choice(REGIONS),
            "year": rng.randrange(1993, 1998),
        }
    if name == "Q7":
        first, second = rng.sample(range(len(NATIONS)), 2)
        return {"nation1": NATIONS[first][0], "nation2": NATIONS[second][0]}
    if name == "Q8":
        nation, region = NATIONS[rng.randrange(len(NATIONS))]
        return {
            "nation": nation,
            "region": REGIONS[region],
            "type": " ".join(
                (
                    rng.choice(TYPE_SYLLABLE_1),
                    rng.choice(TYPE_SYLLABLE_2),
                    rng.choice(TYPE_SYLLABLE_3),
                )
            ),
        }
    if name == "Q9":
        return {"color": rng.choice(PART_COLORS)}
    if name == "Q10":
        return {
            "date": _add_months(datetime.date(1993, 2, 1), rng.randrange(24))
        }
    raise ValueError(f"no qgen parameters for {name!r}")


def _substitute(text: str, pairs) -> str:
    """Replace every ``(old, new)`` pair at once (no re-substitution)."""
    slots = []
    for index, (old, new) in enumerate(pairs):
        if old not in text:
            raise ValueError(f"substitution target {old!r} not in query text")
        slot = f"\x00{index}\x00"
        text = text.replace(old, slot)
        slots.append((slot, new))
    for slot, new in slots:
        text = text.replace(slot, new)
    return text


def render(name: str, params: Params) -> str:
    """The SQL text of ``name`` with ``params`` substituted."""
    text = query(name)
    if name == "Q3":
        return _substitute(
            text,
            [
                ("'BUILDING'", f"'{params['segment']}'"),
                ("DATE '1995-03-15'", _date(params["date"])),
            ],
        )
    if name == "Q5":
        year = params["year"]
        return _substitute(
            text,
            [
                ("'ASIA'", f"'{params['region']}'"),
                ("DATE '1994-01-01'", f"DATE '{year}-01-01'"),
                ("DATE '1995-01-01'", f"DATE '{year + 1}-01-01'"),
            ],
        )
    if name == "Q7":
        return _substitute(
            text,
            [
                ("'FRANCE'", f"'{params['nation1']}'"),
                ("'GERMANY'", f"'{params['nation2']}'"),
            ],
        )
    if name == "Q8":
        return _substitute(
            text,
            [
                ("'BRAZIL'", f"'{params['nation']}'"),
                ("'AMERICA'", f"'{params['region']}'"),
                ("'ECONOMY ANODIZED STEEL'", f"'{params['type']}'"),
            ],
        )
    if name == "Q9":
        return _substitute(text, [("'%green%'", f"'%{params['color']}%'")])
    if name == "Q10":
        start, end = q10_window(params)
        return _substitute(
            text,
            [
                ("DATE '1993-10-01'", _date(start)),
                ("DATE '1994-01-01'", _date(end)),
            ],
        )
    raise ValueError(f"no qgen parameters for {name!r}")


def q10_window(params: Params) -> Tuple[datetime.date, datetime.date]:
    """Q10's order-date window ``[start, end)``."""
    start = params["date"]
    return start, _add_months(start, 3)
