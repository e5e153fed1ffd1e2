"""Classification reports: one graph in, one flat record out.

The JSON rendering uses fixed snake_case keys and round-trips exactly;
`timings` (stage wall times in milliseconds) is excluded from equality so
reports for the same graph and options compare equal across runs.  Every
`--json` output of the package goes through `write_json`.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .decomposition import gallai_edmonds, tutte_berge_witness
from .graphs import Graph, VertexSet, is_bipartite
from .matching import has_perfect_matching, is_factor_critical, is_konig
from .polytope import OracleResult, compute_q0
from .rees import RegularityResult, RegularityStatus, regularity


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    m: int
    mat: int
    deficiency: int
    bipartite: bool
    perfect_matching: bool
    factor_critical: bool
    konig: bool
    tutte_berge: bool
    ge_d: VertexSet
    ge_a: VertexSet
    ge_c: VertexSet
    odd_cycle_condition: bool
    rees_normal: bool
    regularity: RegularityResult
    tb_witness: VertexSet | None
    oracle: OracleResult | None
    oracle_note: str | None
    timings: dict[str, float] = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "mat": self.mat,
            "deficiency": self.deficiency,
            "bipartite": self.bipartite,
            "perfect_matching": self.perfect_matching,
            "factor_critical": self.factor_critical,
            "konig": self.konig,
            "tutte_berge": self.tutte_berge,
            "ge": {
                "d": list(self.ge_d),
                "a": list(self.ge_a),
                "c": list(self.ge_c),
            },
            "odd_cycle_condition": self.odd_cycle_condition,
            "rees_normal": self.rees_normal,
            "regularity": regularity_dict(self.regularity),
            "tb_witness": list(self.tb_witness) if self.tb_witness is not None else None,
            "oracle": oracle_dict(self.oracle),
            "oracle_note": self.oracle_note,
            "timings": dict(self.timings),
        }

    def to_json(self) -> str:
        return write_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ClassificationReport":
        # `to_dict` is the one statement of the layout: what it nests or
        # types is rebuilt here, and every other key is passed on by name,
        # so a key with no field raises TypeError.
        d = dict(d)
        ge, reg, oracle, witness, timings = (
            d.pop(k) for k in ("ge", "regularity", "oracle", "tb_witness", "timings")
        )
        if oracle is not None:
            oracle = OracleResult(**{**oracle, "interior_witness": tuple(oracle["interior_witness"])})
        return cls(
            ge_d=tuple(ge["d"]),
            ge_a=tuple(ge["a"]),
            ge_c=tuple(ge["c"]),
            regularity=RegularityResult(**{**reg, "status": RegularityStatus(reg["status"])}),
            tb_witness=None if witness is None else tuple(witness),
            oracle=oracle,
            timings=dict(timings),
            **d,
        )

    @classmethod
    def from_json(cls, text: str) -> "ClassificationReport":
        return cls.from_dict(json.loads(text))


_escape = json.encoder.encode_basestring_ascii


def write_json(obj: object) -> str:
    """Exactly `json.dumps(obj, indent=2)` for dicts with str keys, lists,
    str, int, float, bool and None; TypeError on any other type.

    `json.dumps` encodes `indent` output in pure Python, one generator per
    container; this writer appends to one list and renders a list of
    plain ints with a single join."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(o: object, newline: str, out: list[str]) -> None:
    t = type(o)
    if t is str:
        out.append(_escape(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is bool:
        out.append("true" if o else "false")
    elif o is None:
        out.append("null")
    elif t is float:
        if o != o:
            out.append("NaN")
        elif o == math.inf:
            out.append("Infinity")
        elif o == -math.inf:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(o))
    elif t is list:
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        if {*map(type, o)} == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + newline + "]")
            return
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, x in o.items():
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep + _escape(k) + ": ")
            _write(x, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def regularity_dict(reg: RegularityResult) -> dict:
    return {
        "status": reg.status.value,
        "mat": reg.mat,
        "tutte_berge": reg.tutte_berge,
        "reg": reg.reg,
    }


def oracle_dict(oracle: OracleResult | None) -> dict | None:
    if oracle is None:
        return None
    return {
        "q0": oracle.q0,
        "interior_witness": list(oracle.interior_witness),
        "reg": oracle.reg,
    }


def run_oracle(g: Graph, reg: RegularityResult) -> tuple[OracleResult | None, str | None]:
    """The oracle's result when the closed form `reg` of g is computed;
    otherwise None and a note that says why the oracle was skipped.  Raises
    InstanceTooLargeError when the oracle refuses g as too large."""
    if reg.status is RegularityStatus.TOO_FEW_EDGES:
        return None, "oracle skipped: graph has fewer than two edges"
    if reg.status is RegularityStatus.NOT_NORMAL:
        return None, "oracle skipped: Rees algebra is not normal"
    # A computed closed form has stored its normality test on g, so the
    # oracle's preconditions read that answer and decide nothing again.
    return compute_q0(g), None


def build_report(
    g: Graph, with_oracle: bool = False, with_witness: bool = False
) -> ClassificationReport:
    """Classify one graph.  The oracle runs only when requested and its
    preconditions hold; otherwise `oracle_note` explains the skip."""
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    ge = gallai_edmonds(g)
    timings["decomposition"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    konig = is_konig(g)
    timings["matching"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    reg = regularity(g)
    # The odd cycle condition is normality (see rees.is_rees_normal), which
    # the closed form tests on two edges or more; fewer edges hold no cycle.
    occ = reg.status is not RegularityStatus.NOT_NORMAL
    timings["regularity"] = (time.perf_counter() - t0) * 1000.0

    tb_witness = None
    if with_witness:
        t0 = time.perf_counter()
        w = tutte_berge_witness(g)
        tb_witness = w.t_set if w is not None else None
        timings["witness"] = (time.perf_counter() - t0) * 1000.0

    oracle = None
    oracle_note = None
    if with_oracle:
        t0 = time.perf_counter()
        oracle, oracle_note = run_oracle(g, reg)
        timings["oracle"] = (time.perf_counter() - t0) * 1000.0

    return ClassificationReport(
        n=g.n,
        m=g.m,
        mat=reg.mat,
        deficiency=ge.deficiency,
        bipartite=is_bipartite(g),
        perfect_matching=has_perfect_matching(g),
        factor_critical=is_factor_critical(g),
        konig=konig,
        tutte_berge=reg.tutte_berge,
        ge_d=ge.d_set,
        ge_a=ge.a_set,
        ge_c=ge.c_set,
        odd_cycle_condition=occ,
        rees_normal=occ,
        regularity=reg,
        tb_witness=tb_witness,
        oracle=oracle,
        oracle_note=oracle_note,
        timings=timings,
    )
