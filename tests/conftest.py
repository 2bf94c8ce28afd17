"""Shared test settings.

Property tests run under a hypothesis profile that draws the same examples
on every run (``derandomize``), keeps no example database, and sets no
per-example deadline, so their outcome does not depend on earlier runs or on
the speed of the machine.
"""
from hypothesis import settings

settings.register_profile("modspec", derandomize=True, deadline=None, database=None)
settings.load_profile("modspec")
