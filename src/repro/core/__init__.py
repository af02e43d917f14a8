"""Minesweeper core: symbolic encoding, properties, verification."""

from .counterexample import Counterexample, EnvAnnouncement
from .encoder import EncodedNetwork, EncoderOptions, NetworkEncoder
from .engine import BatchEngine, BatchQuery
from .verifier import VerificationResult, Verifier
from . import properties

__all__ = [
    "EncoderOptions", "NetworkEncoder", "EncodedNetwork",
    "Verifier", "VerificationResult",
    "BatchEngine", "BatchQuery",
    "Counterexample", "EnvAnnouncement",
    "properties",
]
