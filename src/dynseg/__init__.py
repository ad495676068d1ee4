"""Temporally consistent segmentation of 3D point-cloud sequences.

Per-frame foreground clouds are abstracted into supervoxels, linked into an
adjacency graph, and tracked through an object/component/segment tree that
survives splits, merges, and close-range interactions between objects.

``import dynseg`` loads no submodule. Names are imported from the module
that defines them, e.g. ``from dynseg.pipeline import run_sequence``.
"""
