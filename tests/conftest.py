"""Test-session set-up.

When a Hypothesis test fails, Hypothesis's pytest plugin imports
`hypothesis.extra._patching` to write a patch of the failing example.
Where libcst is installed, that import pulls in libcst, whose use of
`mypy_extensions.TypedDict` raises a DeprecationWarning; under
`-W error` the warning ends the session with INTERNALERROR in place of
the failing assertion.  Importing the patch writer here, once, with
that warning ignored during the import only, leaves `-W error` in force
for everything else, hlkit included.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: nothing to pre-import
        pass
