"""Setup shared by every test module."""

import warnings

# When a @given test fails, hypothesis's pytest plugin imports its patch writer, whose
# dependencies (libcst, mypy_extensions) emit a DeprecationWarning on import; the "error"
# filter would turn that into an INTERNALERROR that ends the run.  Imported here, once,
# with only that warning category ignored, the failure is reported as any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patch
        pass
