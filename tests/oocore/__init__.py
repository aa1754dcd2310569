"""Tests for the out-of-core streaming fitting subsystem."""
