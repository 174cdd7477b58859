"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


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
    """Malformed weather CSV: a bad row, whose line the message names, or
    a grid that is incomplete or not a valid field."""


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


@contextmanager
def parsing(path: str):
    """Re-raise what fails inside, while the file at `path` is parsed, as a
    SkyrouteError whose message starts with the path: of the class raised
    if that is one, else a ConfigError (a KeyError is a missing key)."""
    try:
        yield
    except SkyrouteError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
