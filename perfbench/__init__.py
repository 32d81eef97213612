"""perfbench: the benchmark of this repository (see perfbench/README.md)."""
