"""Exception types raised across the package."""


class KcoverError(Exception):
    """Base class for all package-specific errors."""


class StructureError(KcoverError, ValueError):
    """Malformed geometry: reversed interval, overlapping batch parts, ..."""


class SettingError(KcoverError, ValueError):
    """Instance violates its declared setting, or an operation does not
    support the setting it was given."""


class SizeGuardError(KcoverError, ValueError):
    """Exhaustive search refused because it is too large: an enumeration
    over too many items, or a threshold grid with too many points."""


class ConfigError(KcoverError, ValueError):
    """Invalid policy, adversary or solver configuration."""


class ProtocolError(KcoverError, RuntimeError):
    """Sequential decision protocol violated (out-of-turn call, quota
    overrun)."""


class SolverEmptyError(KcoverError, RuntimeError):
    """Parameter search found no feasible point."""


class SchemaError(KcoverError, ValueError):
    """Instance file does not match the documented JSON schema."""
