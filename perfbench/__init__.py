"""Benchmark for freematch-lab: three workloads driven through the public CLI
functions, checked against recorded references, timed end to end and, in a
separate traced run, layer by layer. See perfbench/README.md."""
