"""The artifact-schema registry: one place for every ``repro.*/N`` tag.

The observability PRs each minted a schema string (run reports,
histories, diff reports, bench artifacts, order sweeps) and each CLI load path re-implemented its own
"is this the artifact I expect?" check.  This module consolidates both:

* the **registry** — every artifact family the repo emits, its known
  versions, the current tag, and the top-level keys that every version
  of the family guarantees;
* :func:`validate_artifact` — the one loader-side check: given a parsed
  document, verify it names a known family at a known version and
  carries the family's required keys, with one-line errors suitable for
  the CLI's ``repro: <message>`` / exit-2 convention.

Writers import their tag via :func:`schema_tag` (or the module-level
constants) so a version bump happens in exactly one file; readers call
:func:`validate_artifact` before trusting any field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["ArtifactSchema", "SchemaError", "SCHEMAS", "schema_tag",
           "schema_tags", "parse_schema_tag", "validate_artifact",
           "RUN_REPORT_SCHEMA", "SWEEP_REPORT_SCHEMA", "HISTORY_SCHEMA",
           "BENCH_SCHEMA", "DIFF_REPORT_SCHEMA", "AUDIT_REPORT_SCHEMA",
           "ORDER_SWEEP_SCHEMA", "SECTIONS", "WALL_CLOCK_DIRECTIONS"]

#: Optional run-report sections a run or a sweep cell can request.
SECTIONS = ("journeys", "health", "profile", "audit")

#: Every artifact key whose value derives from the wall clock -> the
#: direction a reader would call better.  One decision with two users:
#: machine-dependent values never enter a byte-compared artifact
#: (:func:`repro.obs.sweep.strip_wall_clock` removes these keys) and
#: never enter a verdict (``repro diff`` shows them direction-annotated
#: as ``info-better`` / ``info-worse``, and gates on none of them).
WALL_CLOCK_DIRECTIONS: Dict[str, str] = {
    "wall_seconds": "lower",
    "loop_wall_seconds": "lower",
    "wall_seconds_per_sim_second": "lower",
    "events_per_wall_second": "higher",
    "attributed_wall_seconds": "lower",
    "attributed_fraction": "higher",
    "checker_wall_seconds": "lower",
    "wall_ms": "lower",
}


class SchemaError(ValueError):
    """A document that is not a usable repro artifact.

    Loaders surface the message verbatim (``repro: <message>``) and the
    CLI maps it to exit code 2.
    """


@dataclass(frozen=True)
class ArtifactSchema:
    """One artifact family the repo reads or writes."""

    family: str
    """The tag prefix, e.g. ``repro.run_report``."""
    versions: Tuple[int, ...]
    """Known versions, oldest first.  The last one is current."""
    required: Tuple[str, ...]
    """Top-level keys every version of the family guarantees (the
    *intersection* across versions, so old artifacts still validate)."""
    description: str

    @property
    def current(self) -> str:
        return f"{self.family}/{self.versions[-1]}"

    @property
    def tags(self) -> Tuple[str, ...]:
        return tuple(f"{self.family}/{v}" for v in self.versions)


_FAMILIES = (
    ArtifactSchema(
        "repro.run_report", (5, 6),
        ("meta", "summary", "windows"),
        "per-run report: summary, windowed series, optional journey/"
        "health/profile/faults/audit sections"),
    ArtifactSchema(
        "repro.sweep_report", (1,),
        ("meta", "cells", "totals"),
        "merged matrix sweep: one deterministic entry per "
        "(consistency, persistency, seed) cell"),
    ArtifactSchema(
        "repro.history", (1,),
        ("ops",),
        "client-observed operation history (JSONL; the required keys "
        "apply to the header line)"),
    ArtifactSchema(
        "repro.bench", (1,),
        ("bench", "config", "metrics"),
        "benchmark artifact archived beside the text tables"),
    ArtifactSchema(
        "repro.diff_report", (1,),
        ("baseline", "candidate", "verdict", "metrics"),
        "cross-run regression diff"),
    ArtifactSchema(
        "repro.audit_report", (1,),
        ("usable",),
        "black-box contract audit verdicts over the 5x5 matrix"),
    ArtifactSchema(
        "repro.order_sweep", (1, 2),
        ("cells", "ok"),
        "tie-batch sanitizer permutation sweep (/1 also carried the "
        "static rules' `coverage` cross-reference)"),
)

SCHEMAS: Dict[str, ArtifactSchema] = {s.family: s for s in _FAMILIES}


def _family(family: str) -> ArtifactSchema:
    schema = SCHEMAS.get(family)
    if schema is None:
        known = ", ".join(sorted(SCHEMAS))
        raise SchemaError(f"unknown artifact family {family!r} "
                          f"(known: {known})")
    return schema


def schema_tag(family: str) -> str:
    """The family's current ``family/version`` tag."""
    return _family(family).current


def schema_tags(family: str) -> Tuple[str, ...]:
    """Every known tag of a family, oldest first."""
    return _family(family).tags


# The writers' constants: bumping a version means touching exactly the
# registry entry above.
RUN_REPORT_SCHEMA = schema_tag("repro.run_report")
SWEEP_REPORT_SCHEMA = schema_tag("repro.sweep_report")
HISTORY_SCHEMA = schema_tag("repro.history")
BENCH_SCHEMA = schema_tag("repro.bench")
DIFF_REPORT_SCHEMA = schema_tag("repro.diff_report")
AUDIT_REPORT_SCHEMA = schema_tag("repro.audit_report")
ORDER_SWEEP_SCHEMA = schema_tag("repro.order_sweep")


def parse_schema_tag(tag: Any) -> Tuple[str, int]:
    """Split a ``family/version`` tag; :class:`SchemaError` if it names
    no known family/version."""
    if not isinstance(tag, str) or "/" not in tag:
        raise SchemaError(f"not a repro schema tag: {tag!r}")
    family, _, version_text = tag.rpartition("/")
    schema = SCHEMAS.get(family)
    if schema is None:
        known = ", ".join(sorted(SCHEMAS))
        raise SchemaError(f"unknown artifact family {family!r} "
                          f"(known: {known})")
    try:
        version = int(version_text)
    except ValueError:
        raise SchemaError(f"bad schema version in {tag!r}") from None
    if version not in schema.versions:
        raise SchemaError(
            f"unknown {family} version /{version} "
            f"(known: {', '.join(str(v) for v in schema.versions)})")
    return family, version


def validate_artifact(doc: Any, family: Optional[str] = None,
                      path: Optional[str] = None) -> ArtifactSchema:
    """Check that ``doc`` is a well-formed repro artifact.

    Verifies the ``schema`` field names a known family at a known
    version and that the family's guaranteed top-level keys are
    present.  Pass ``family`` to additionally pin which artifact kind
    the caller expects, and ``path`` to prefix error messages with the
    file they came from.  Returns the family's registry entry.
    """
    where = f"{path}: " if path else ""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}not a JSON object")
    if "schema" not in doc:
        raise SchemaError(f"{where}not a repro artifact (no schema field)")
    try:
        found_family, _ = parse_schema_tag(doc["schema"])
    except SchemaError as exc:
        raise SchemaError(f"{where}{exc}") from None
    if family is not None and found_family != family:
        raise SchemaError(f"{where}expected a {family} artifact, "
                          f"got {doc['schema']}")
    schema = SCHEMAS[found_family]
    missing = [key for key in schema.required if key not in doc]
    if missing:
        raise SchemaError(f"{where}{doc['schema']} artifact is missing "
                          f"required field(s): {', '.join(missing)}")
    return schema
