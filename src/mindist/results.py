"""Distance estimate records and their JSON wire format.

Every estimator returns a DistanceEstimate built by ``DistanceEstimate.of``,
which certifies the witness and the analytic bounds; the CLI serializes it
with ``to_json`` and the schema is versioned so downstream diffing tools can
rely on the layout.  ``validate_result`` checks a parsed document against
the shipped schemas/result-v1.json plus the cross-field witness checks
the schema cannot express.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .bounds import BoundReport, build_report, enforce
from .errors import ConsistencyError
from .gf2 import BitWord, xor_rows

if TYPE_CHECKING:
    from .codes import LinearCode

__all__ = ["DistanceEstimate", "SCHEMA_VERSION", "validate_result"]

SCHEMA_VERSION = 1

METHODS = ("exact", "ga_a", "ga_b", "mim")


@dataclass(frozen=True, slots=True)
class DistanceEstimate:
    """One estimate: what was run, on what, what came out, and the evidence.

    ``witness`` re-encodes to a codeword of weight ``d``; it is absent only
    in the MIM diagnostic state where no nonzero codeword was ever decoded.
    ``events`` carries method-specific progress records (per-generation best
    for the GA variants, every witness found with its discovery time for
    MIM) so runs can be audited.
    """

    family: str
    n: int
    k: int
    method: str
    d: int
    witness: BitWord | None
    config: dict
    rng_seed: int | None
    wall_time_seconds: float
    bound_report: BoundReport
    code_params: dict = field(default_factory=dict)
    events: tuple[dict, ...] = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    @staticmethod
    def of(
        code: LinearCode,
        method: str,
        d: int,
        witness: BitWord | None,
        config: dict,
        rng_seed: int | None,
        started: float,
        events: list[dict],
    ) -> "DistanceEstimate":
        """The certified record of one run that began at ``started``
        (a ``time.perf_counter`` reading).

        Raises ConsistencyError when ``d`` breaks a hard bound, or when the
        witness is not a nonzero codeword of weight ``d``.  Only MIM may
        report no witness, when no decode ever left the all-zero word.
        """
        elapsed = time.perf_counter() - started
        report = enforce(build_report(code.family, code.n, code.k, d), method)
        if witness is None:
            if method != "mim":
                raise ConsistencyError(f"{method}: no witness")
        elif witness.length != code.n or witness.bits == 0 or witness.weight != d:
            raise ConsistencyError(
                f"{method}: witness of length {witness.length} and weight "
                f"{witness.weight} does not certify d = {d} on n = {code.n}"
            )
        # a codeword is the XOR of the basis rows at whose pivots it has a 1
        elif witness.bits != xor_rows(code.basis[0], sum(
                (witness.bits >> c & 1) << i for i, c in enumerate(code.basis[1]))):
            raise ConsistencyError(f"{method}: witness is not a codeword")
        return DistanceEstimate(
            family=code.family,
            n=code.n,
            k=code.k,
            method=method,
            d=d,
            witness=witness,
            config=config,
            rng_seed=rng_seed,
            wall_time_seconds=elapsed,
            bound_report=report,
            code_params=dict(code.metadata),
            events=tuple(events),
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "code": {
                "family": self.family,
                "n": self.n,
                "k": self.k,
                "params": _jsonable(self.code_params),
            },
            "method": self.method,
            "d": self.d,
            "witness": self.witness.to01() if self.witness is not None else None,
            "witness_weight": self.witness.weight if self.witness is not None else None,
            "config": _jsonable(self.config),
            "rng_seed": self.rng_seed,
            "wall_time_seconds": self.wall_time_seconds,
            "bounds": _jsonable(asdict(self.bound_report)),
            "events": [_jsonable(e) for e in self.events],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


_SCHEMA_PATH = Path(__file__).parent / "schemas" / "result-v1.json"

# JSON type name -> Python types; a bool is never a JSON number
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def _check(value: Any, schema: dict, where: str) -> None:
    """Check ``value`` against the schema keywords result-v1.json uses."""
    if "const" in schema and value != schema["const"]:
        raise ValueError(f"{where}: {value!r} != {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"{where}: {value!r} not one of {schema['enum']}")
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if isinstance(value, bool) or not isinstance(value, tuple(_TYPES[t] for t in names)):
            raise ValueError(f"{where}: bad type {type(value).__name__}")
    if value is None:
        return
    if "minimum" in schema and value < schema["minimum"]:
        raise ValueError(f"{where}: {value} < minimum {schema['minimum']}")
    if "pattern" in schema and not re.search(schema["pattern"], value):
        raise ValueError(f"{where}: does not match {schema['pattern']}")
    if "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{i}]")
    if "required" in schema:
        missing = set(schema["required"]) - value.keys()
        if missing:
            raise ValueError(f"{where}: missing fields {sorted(missing)}")
    props = schema.get("properties", {})
    if schema.get("additionalProperties") is False:
        extra = value.keys() - props.keys()
        if extra:
            raise ValueError(f"{where}: unexpected fields {sorted(extra)}")
    for name, sub in props.items():
        if name in value:
            _check(value[name], sub, f"{where}.{name}")


def validate_result(doc: dict) -> None:
    """Raise ValueError unless ``doc`` conforms to the result schema and
    its witness certifies ``d`` as ``DistanceEstimate.of`` requires."""
    _check(doc, json.loads(_SCHEMA_PATH.read_text(encoding="utf-8")), "result")
    witness = doc["witness"]
    if (witness is None) != (doc["witness_weight"] is None):
        raise ValueError("result.witness and result.witness_weight: only one is null")
    if witness is None:
        if doc["method"] != "mim":
            raise ValueError(f"result.witness: null for method {doc['method']!r}; "
                             "only mim may lack a witness")
        return
    if len(witness) != doc["code"]["n"]:
        raise ValueError("result.witness: length != n")
    if witness.count("1") != doc["witness_weight"]:
        raise ValueError("result.witness_weight does not match witness")
    if doc["witness_weight"] != doc["d"]:
        raise ValueError("result.witness_weight != d")
