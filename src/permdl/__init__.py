"""Whole-genome duplication-loss rearrangement on permutations.

The package models genomes as permutations evolving by tandem duplication
of the whole genome followed by random loss of one copy of each marker.
It computes step costs from descent statistics, characterizes and counts
the minimal permutations with d descents (the avoidance basis of the
permutations reachable in a given number of steps), represents their
shapes as posets, and carries the bijections tying the extreme slices to
Dyck paths and to non-interval subsets.
"""

from .bijections import *
from .duploss import *
from .minimal import *
from .patterns import *
from .perm import *
from .posets import *

__version__ = "0.1.0"
