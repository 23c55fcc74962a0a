"""The diagnostic framework: records, rules, registry, configuration.

Every lint pass in :mod:`repro.analysis` is a collection of
:class:`Rule` objects held in one :class:`RuleRegistry`. A rule's check
function receives a subject (a routing graph, a circuit, a parsed source
file) and yields :class:`Diagnostic` records; the registry filters
disabled rules and applies per-rule severity overrides from a
:class:`LintConfig` so callers never special-case individual rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Mapping


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering is by increasing gravity."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        """Parse ``"error"``/``"warning"``/``"info"`` (case-insensitive)."""
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{', '.join(s.name.lower() for s in cls)}") from None


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points: a file position and/or a named object.

    ``obj`` is a human-readable anchor inside the subject — a net name,
    an edge ``(u, v)``, a circuit element — used when there is no
    meaningful file/line (data lint) or to narrow one (source lint).
    """

    file: str | None = None
    line: int | None = None
    obj: str | None = None

    def __str__(self) -> str:
        parts: list[str] = []
        if self.file is not None:
            parts.append(self.file if self.line is None
                         else f"{self.file}:{self.line}")
        if self.obj is not None:
            parts.append(self.obj)
        return ": ".join(parts)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: rule id, severity, location, message, and a fix hint."""

    rule: str
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)
    hint: str | None = None

    def render(self) -> str:
        """One-line human-readable form, ``location: severity[rule] message``."""
        where = str(self.location)
        prefix = f"{where}: " if where else ""
        text = f"{prefix}{self.severity}[{self.rule}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by the ``--format json`` reporters)."""
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "file": self.location.file,
            "line": self.location.line,
            "object": self.location.obj,
            "hint": self.hint,
        }


CheckFn = Callable[[Any], Iterable[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule.

    Attributes:
        id: stable kebab-case identifier (``graph-disconnected``).
        category: which pass owns the rule (``graph``/``circuit``/``source``).
        severity: default severity, overridable per run via `LintConfig`.
        summary: one-line description for ``--list-rules`` and the docs.
        rationale: why violating this rule corrupts results.
        check: the function producing diagnostics for one subject.
    """

    id: str
    category: str
    severity: Severity
    summary: str
    rationale: str
    check: CheckFn

    def diagnostic(self, message: str, *, location: Location | None = None,
                   hint: str | None = None) -> Diagnostic:
        """Build a diagnostic carrying this rule's id and default severity."""
        return Diagnostic(rule=self.id, severity=self.severity,
                          message=message,
                          location=location or Location(), hint=hint)


class RuleRegistry:
    """All known rules, addressable by id and filterable by category."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if rule.id in self._rules:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        self._rules[rule.id] = rule
        return rule

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown rule {rule_id!r}") from None

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def rules(self, category: str | None = None) -> list[Rule]:
        """All rules (of one category), sorted by id."""
        return sorted(
            (r for r in self._rules.values()
             if category is None or r.category == category),
            key=lambda r: r.id)

    def run(self, category: str, subject: Any,
            config: "LintConfig | None" = None) -> list[Diagnostic]:
        """Run every enabled rule of ``category`` against ``subject``.

        Diagnostics come back sorted most-severe first, then by rule id,
        with each rule's severity replaced by the config's override (if
        any). The category's waiver audit, ``<category>-unused-waiver``,
        runs after every other rule: it reads which pragmas they used.
        """
        cfg = config or LintConfig()
        audit = f"{category}-unused-waiver"
        out: list[Diagnostic] = []
        for rule in sorted(self.rules(category), key=lambda r: r.id == audit):
            if not cfg.enabled(rule.id):
                continue
            severity = cfg.severity_for(rule)
            for diag in rule.check(subject):
                if diag.severity != severity:
                    diag = replace(diag, severity=severity)
                out.append(diag)
        sort_diagnostics(out)
        return out


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Sort in place into report order: gravest first, then rule, place."""
    diagnostics.sort(key=lambda d: (-int(d.severity), d.rule,
                                    d.location.file or "",
                                    d.location.line or 0,
                                    d.location.obj or "", d.message))
    return diagnostics


#: The process-wide default registry; the rule modules populate it on import.
registry = RuleRegistry()


def rule(rule_id: str, *, category: str, severity: Severity, summary: str,
         rationale: str) -> Callable[[CheckFn], Rule]:
    """Decorator registering a check function as a :class:`Rule`.

    The decorated function is replaced by the rule object, whose
    ``check`` attribute is the original function and which is itself
    callable through ``rule.check(subject)``.
    """
    def decorate(fn: CheckFn) -> Rule:
        return registry.register(Rule(
            id=rule_id, category=category, severity=severity,
            summary=summary, rationale=rationale, check=fn))
    return decorate


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule configuration: disabled rules and severity overrides."""

    disabled: frozenset[str] = frozenset()
    severity_overrides: Mapping[str, Severity] = field(default_factory=dict)

    def enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disabled

    def severity_for(self, rule: Rule) -> Severity:
        return self.severity_overrides.get(rule.id, rule.severity)

    @classmethod
    def from_options(cls, disable: Iterable[str] = (),
                     severity: Iterable[str] = ()) -> "LintConfig":
        """Build from CLI-style options.

        ``disable`` is rule ids; ``severity`` is ``rule=level`` strings.
        Unknown rule ids raise ``ValueError`` so typos fail loudly.
        """
        disabled = frozenset(disable)
        for rule_id in disabled:
            if rule_id not in registry:
                raise ValueError(f"cannot disable unknown rule {rule_id!r}")
        overrides: dict[str, Severity] = {}
        for spec in severity:
            rule_id, _, level = spec.partition("=")
            if not level:
                raise ValueError(
                    f"bad severity override {spec!r}; expected rule=level")
            if rule_id not in registry:
                raise ValueError(f"cannot override unknown rule {rule_id!r}")
            overrides[rule_id] = Severity.parse(level)
        return cls(disabled=disabled, severity_overrides=overrides)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """Whether any diagnostic is :attr:`Severity.ERROR`."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


def max_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    """The gravest severity present, or ``None`` for a clean run."""
    severities = [d.severity for d in diagnostics]
    return max(severities) if severities else None
