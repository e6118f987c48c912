"""qroutesim's benchmark: workloads, tracing and the harness that runs them."""
