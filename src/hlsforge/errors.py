"""Exception hierarchy shared by all hlsforge modules."""

from __future__ import annotations


class HlsForgeError(Exception):
    """Base class for every error raised by this package."""


# -- dataset / workspace ------------------------------------------------------

class MissingDirectory(HlsForgeError):
    """A dataset or work directory does not exist."""


class EmptyDataset(HlsForgeError):
    """A dataset directory contains no design subdirectories."""


# -- opt template DSL ---------------------------------------------------------

class OptSyntaxError(HlsForgeError):
    """Malformed opt template text; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class CountMismatch(HlsForgeError):
    """A group header's declared line/template counts disagree with the body."""


class UnmatchedTemplate(HlsForgeError):
    """No template command matches a directive kind used by a selection."""


class UnfilledPlaceholder(HlsForgeError):
    """A rendered template still contains bracketed placeholders."""


# -- frontends ----------------------------------------------------------------

class MissingTemplate(HlsForgeError):
    """Design slated for directive lowering has no opt_template.tcl."""


class AnchorNotFound(HlsForgeError):
    """No source file carries the anchor comment for a directive label."""


class UnsupportedDirective(HlsForgeError):
    """Directive kind has no lowering for the requested vendor."""


class IdCollision(HlsForgeError):
    """Two different directive assignments of one design share a design id."""


# -- tool flows ---------------------------------------------------------------

class ManifestMissing(HlsForgeError):
    """Mock flow needs mock_manifest.json (or a field of it) and it is absent."""


class LabelUnknown(HlsForgeError):
    """A directive targets a loop or array label the manifest does not define."""


class InvalidFactor(HlsForgeError):
    """A lowered directive's factor is not an integer >= 1."""


class SynthReportMissing(HlsForgeError):
    """Implementation flow ran before any synthesis report was produced."""


class ExecutableNotFound(HlsForgeError):
    """External tool binary is not on PATH."""


class WorkerLost(HlsForgeError):
    """A pool worker exited before it sent back the results of the items it held."""


# -- reports / import ---------------------------------------------------------

class MalformedReport(HlsForgeError):
    """Report file is not parseable (bad XML/JSON or wrong shape)."""


class MissingField(HlsForgeError):
    """A required report field is absent."""


class MalformedSpec(HlsForgeError):
    """An import mapping spec is invalid or names unknown columns."""


class SourceUnreadable(HlsForgeError):
    """External dataset file cannot be read or decoded."""


# -- analysis -----------------------------------------------------------------

class LengthMismatch(HlsForgeError):
    """Paired sequences have different lengths."""


class EmptyInput(HlsForgeError):
    """Statistic requested over an empty sequence."""


class DegenerateTruth(HlsForgeError):
    """Ground-truth values are all identical; relative error is undefined."""


class EmptyValues(HlsForgeError):
    """Histogram requested over an empty value list."""


class NoPairs(HlsForgeError):
    """Two result tables share no design ids; nothing to compare."""


# -- configuration ------------------------------------------------------------

class ConfigError(HlsForgeError):
    """Run configuration is missing, unreadable, or fails validation."""
