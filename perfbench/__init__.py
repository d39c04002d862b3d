"""Outside-in benchmark for omljordan: seeded exact inputs, closed-form
checks and a tracer that patches the package's public functions from
outside.  Run it with ``python3 perfbench/run.py --help``."""
