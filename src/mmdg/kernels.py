"""Stub kept for the benchmark's environment stamp, which records
USE_NUMBA.  The sampling-loop loads live in mmdg.assembly; this module
goes when the stamp does."""

USE_NUMBA = False
