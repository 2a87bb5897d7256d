"""Staging benchmark of the live CoREC deployment (see NOTES.md)."""
