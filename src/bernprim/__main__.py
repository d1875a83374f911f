"""Run the bernprim command line as ``python -m bernprim``."""

from .cli import console_main

console_main()
