"""Least-prime-factor sieve census, exact identity checks, and error-term
measurement with exact rational arithmetic; import each name from its module."""

__version__ = "0.1.0"
