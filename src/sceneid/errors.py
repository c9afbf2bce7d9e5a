"""Shared exception base so callers can catch everything from this package.

A failure is classified by the pipeline stage that reports it (see
`sceneid.pipeline.stage`), not by its class: a module raises SceneidError
with a message, and defines a subclass only when some `except` clause or
`stage(...)` type list tells that subclass apart.
"""


class SceneidError(Exception):
    """Base class for all errors raised by sceneid."""
