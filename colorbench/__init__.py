"""Layered color-and-verify benchmark for gscolor; run it with `python3 colorbench/run.py`."""
