"""Exception hierarchy shared across the package."""


class SkyrouteError(Exception):
    """Base class for all domain errors raised by skyroute."""


class DistanceOutOfRange(SkyrouteError):
    """Planar projection requested beyond its validity bound."""


class DegenerateTrip(SkyrouteError):
    """Origin and destination coincide (lat/lon)."""


class DegenerateDistance(SkyrouteError):
    """Zero-length distance vector where a direction is required."""


class OutOfDomain(SkyrouteError):
    """Position outside the weather grid; no extrapolation is performed."""


class ParseError(SkyrouteError):
    """Malformed row in a weather CSV; message names the line number."""


class SchemaError(SkyrouteError):
    """Weather CSV header missing or missing required columns."""


class Infeasible(SkyrouteError):
    """Aircraft mass would drop below the empty mass."""


class WidthOutOfRange(SkyrouteError):
    """Corridor width outside [1, J]."""


class NoSuccessors(SkyrouteError):
    """Successor query on a node in the final lattice row."""


class NoPath(SkyrouteError):
    """Refused edges (off the weather grid, or below the empty mass)
    disconnect origin from destination; corridor windows never do."""


class SamplingExhausted(SkyrouteError):
    """Instance sampler exceeded its rejection budget."""


class NonFiniteGradient(SkyrouteError):
    """A training update produced NaN/inf gradients; parameters left unchanged."""


class ConfigError(SkyrouteError):
    """Invalid or missing configuration field; message names the field."""
