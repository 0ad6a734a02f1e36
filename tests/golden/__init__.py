"""Answers pinned across revisions (see ``corpus.py``)."""
