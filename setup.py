"""Setuptools shim.

No file declares packaging metadata: setuptools discovers the ``repro``
package under ``src/`` and names the distribution after it, version 0.0.0.
This file only exists so that editable installs work in fully offline
environments where the ``wheel`` package (needed by PEP 517 editable builds)
may be unavailable::

    pip install -e . --no-build-isolation
"""

from setuptools import setup

setup()
