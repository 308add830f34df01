"""Tests of the benchmark import nofmux the way the benchmark does."""

import run

run.load_nofmux()
