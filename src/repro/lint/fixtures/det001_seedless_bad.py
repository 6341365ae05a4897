# repro-lint: path=repro/kqe/fixture_det001_seedless.py
"""A seedless random.Random() is sanctioned in a kqe/ __init__ only."""
import random


class Walker:
    def __init__(self, rng=None):
        self.rng = rng or random.Random()

    def reseed(self):
        self.rng = random.Random()
