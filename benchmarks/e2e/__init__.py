"""End-to-end benchmark spine (see README.md in this directory)."""
