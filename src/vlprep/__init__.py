"""Deterministic data-preparation toolkit for tile-based vision-language training.

Submodules:
    geometry  tile planning, token accounting, 0-1000 coordinate grid
    formats   domain-record converters and the special-token grammar
    mixer     seeded domain/general mixture construction
    kernels   reference numerics (pixel unshuffle, cosine distillation loss,
              overlay drawing); the only module that needs numpy
    metrics   evaluation scores (MCQ, BLEU, ROUGE-L, signal errors)
    schema    line-delimited record envelopes
    cli       command-line pipeline driver

Import each name from its submodule; importing the package loads none of them.
"""

__version__ = "0.1.0"
