"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run; an example may
# encode whole codewords, so none has a deadline.
settings.register_profile("regencodes", derandomize=True, deadline=None)
settings.load_profile("regencodes")
