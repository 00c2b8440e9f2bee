"""The aoakit version, in a module of its own so that any module can import it."""

__version__ = "0.1.0"
