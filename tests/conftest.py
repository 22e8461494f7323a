"""Test-session setup.

Hypothesis writes a cache of the constants it scans from the imported
source under its home directory, `.hypothesis/` in the working directory by
default, even with `database=None`.  The session points that home at a
temporary directory, removed at exit, so a test run leaves the tree clean.
"""

import tempfile

from hypothesis import configuration

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-home-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
