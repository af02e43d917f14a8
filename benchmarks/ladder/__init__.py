"""Minesweeper ladder: the repository's benchmark (see README.md)."""
