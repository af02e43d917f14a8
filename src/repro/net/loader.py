"""Load a directory of configuration files into a :class:`Network`."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro import obs
from repro.lang.parser import parse_config
from .topology import Network

__all__ = ["load_config_texts", "load_network", "network_from_texts"]

_CONFIG_SUFFIXES = (".cfg", ".conf", ".txt")


def load_config_texts(directory: Union[str, Path],
                      accept: Optional[Callable[[Path], bool]] = None,
                      ) -> Dict[str, str]:
    """Read every config file in ``directory``: file name → text.

    Files are recognized by suffix (``.cfg``, ``.conf``, ``.txt``), in
    sorted name order; ``accept(entry)``, when given, can skip more.
    Raises :class:`FileNotFoundError` when ``directory`` is not a
    directory or holds no config file.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"not a directory: {directory}")
    texts = {}
    for entry in sorted(directory.iterdir()):
        if (entry.suffix.lower() in _CONFIG_SUFFIXES and entry.is_file()
                and (accept is None or accept(entry))):
            texts[entry.name] = entry.read_text()
    if not texts:
        raise FileNotFoundError(
            f"no config files ({'/'.join(_CONFIG_SUFFIXES)}) in {directory}")
    return texts


def load_network(directory: Union[str, Path]) -> Network:
    """Parse every config file in ``directory`` (see
    :func:`load_config_texts`) and derive the topology; the hostname
    comes from the ``hostname`` directive, not the file name."""
    return network_from_texts(load_config_texts(directory))


def network_from_texts(texts: Dict[str, str]) -> Network:
    """Build a network from a mapping of file name → config text."""
    devices = []
    with obs.span("parse", files=len(texts)):
        for filename, text in texts.items():
            with obs.span("parse.file", file=filename):
                try:
                    devices.append(parse_config(text, source=filename))
                except Exception as exc:
                    raise ValueError(f"{filename}: {exc}") from exc
    with obs.span("net.build", devices=len(devices)):
        return Network(devices)
