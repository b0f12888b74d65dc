"""Corpus loading and batch conformance runs.

The committed corpus lives under ``tests/conformance/corpus/`` (one
``.litmus`` file per test, regenerable via ``repro conform --regen``).
:func:`run_conformance` drives the three-way differential checker over
a test list and aggregates per-family rows — the shape consumed by the
``conformance`` bench driver and by ``repro conform``.

Tier-1 (default) runs a deterministic stratified slice of the corpus so
the smoke path stays within budget; ``REPRO_CONFORM_FULL=1`` (or
``--full``) runs everything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..common.types import CommitMode
from .differential import References, TestReport, Violation, check_test
from .litmus_format import parse_litmus
from .model import ConformTest

#: Environment override for the corpus directory.
CORPUS_ENV = "REPRO_CORPUS_DIR"
#: Set to 1 to run the full corpus where a slice is the default.
FULL_ENV = "REPRO_CONFORM_FULL"

#: Tier-1 keeps every k-th test of each family (plus the first).
SLICE_STRIDE = 4


def corpus_dir() -> Path:
    """The corpus directory: ``$REPRO_CORPUS_DIR``, else the repo copy."""
    override = os.environ.get(CORPUS_ENV)
    if override:
        return Path(override)
    for root in (Path(__file__).resolve().parents[3], Path.cwd()):
        candidate = root / "tests" / "conformance" / "corpus"
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "no corpus found; set REPRO_CORPUS_DIR or run "
        "'repro conform --regen' from the repo root")


def load_corpus(directory: Optional[Path] = None) -> List[ConformTest]:
    """Parse every ``.litmus`` file, sorted by test name."""
    directory = Path(directory) if directory is not None else corpus_dir()
    tests = [parse_litmus(path.read_text())
             for path in sorted(directory.glob("*.litmus"))]
    tests.sort(key=lambda test: test.name)
    return tests


def full_requested() -> bool:
    return os.environ.get(FULL_ENV, "") not in ("", "0")


def tier1_slice(tests: Sequence[ConformTest],
                stride: int = SLICE_STRIDE) -> List[ConformTest]:
    """A deterministic stratified slice: every *stride*-th test of each
    family (sorted by name), always keeping at least one per family."""
    by_family: Dict[str, List[ConformTest]] = {}
    for test in sorted(tests, key=lambda t: t.name):
        by_family.setdefault(test.family or "misc", []).append(test)
    kept: List[ConformTest] = []
    for family in sorted(by_family):
        members = by_family[family]
        kept.extend(members[::stride] or members[:1])
    kept.sort(key=lambda t: t.name)
    return kept


@dataclass
class ConformanceResult:
    """Aggregated outcome of a corpus run."""

    reports: List[TestReport] = field(default_factory=list)
    explorations: Dict[str, Dict] = field(default_factory=dict)
    model: str = "tso"
    backend: str = "baseline"

    @property
    def violations(self) -> List[Violation]:
        return [v for report in self.reports for v in report.violations]

    @property
    def ok(self) -> bool:
        return not self.violations and all(
            info.get("ok", True) for info in self.explorations.values())

    def family_rows(self) -> List[Dict]:
        rows: Dict[str, Dict] = {}
        for report in self.reports:
            row = rows.setdefault(report.family or "misc", {
                "family": report.family or "misc", "tests": 0,
                "sim_runs": 0, "sim_outcomes": 0,
                "operational": 0, "axiomatic": 0, "violations": 0,
            })
            row["tests"] += 1
            row["sim_runs"] += report.sim_runs
            row["sim_outcomes"] += len(report.sim_outcomes)
            row["operational"] += report.operational_count
            row["axiomatic"] += report.axiomatic_count
            row["violations"] += len(report.violations)
        return [rows[family] for family in sorted(rows)]

    def to_payload(self) -> Dict:
        return {
            "schema": "repro-conformance/1",
            "model": self.model,
            "backend": self.backend,
            "tests": len(self.reports),
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "test": v.test, "detail": v.detail}
                for v in self.violations
            ],
            "families": self.family_rows(),
            "explorations": self.explorations,
        }


def run_conformance(tests: Sequence[ConformTest], *,
                    model: str = "tso",
                    mode: CommitMode = CommitMode.OOO_WB,
                    core_class: str = "SLM",
                    backend: str = "baseline",
                    perturb: int = 2, seed: int = 0,
                    witness_dir: Optional[Path] = None,
                    explore: bool = False, por: bool = True,
                    progress: Optional[Callable[[TestReport], None]] = None,
                    references: Optional[Mapping[str, References]] = None,
                    ) -> ConformanceResult:
    """Check every test; optionally save witnesses and run the explorer.

    ``backend`` selects the coherence protocol the simulated hardware
    runs; callers must pair it with a commit mode the backend supports
    (:func:`default_mode_for` resolves the strongest one).

    ``explore=True`` additionally runs the POR-reduced exhaustive
    explorer over the backend's 4-tile protocol scenarios
    (:mod:`repro.conform.scenarios`) — deadlock-freedom plus
    SoS-never-blocked (baseline) or the timestamp invariants (tardis)
    on every reachable protocol state.

    ``references`` maps test names to their :func:`reference_outcomes`
    under *model*, for callers that check the same tests on several
    backends; without it each test's sets are enumerated here.
    """
    from .witness import save_witness

    result = ConformanceResult(model=model, backend=backend)
    for test in tests:
        report = check_test(test, model=model, mode=mode,
                            core_class=core_class, backend=backend,
                            perturb=perturb, seed=seed,
                            references=(references[test.name]
                                        if references is not None else None))
        result.reports.append(report)
        if witness_dir is not None:
            for violation in report.violations:
                if violation.witness is not None:
                    save_witness(violation.witness, witness_dir)
        if progress is not None:
            progress(report)
    if explore:
        from .scenarios import run_explorations

        result.explorations = run_explorations(por=por, backend=backend)
    return result


def default_mode_for(backend: str) -> CommitMode:
    """The strongest commit mode a backend's conformance run can use:
    OOO_WB (WritersBlock load-load reordering) where supported, plain
    OOO (squash-on-ordering-violation) otherwise."""
    from ..coherence.backend import get_backend

    spec = get_backend(backend)
    modes = spec.supported_commit_modes
    if modes is None or CommitMode.OOO_WB in modes:
        return CommitMode.OOO_WB
    return CommitMode.OOO
