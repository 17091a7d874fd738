"""probfpc benchmark: workloads, references and layer tracing; see README.md."""
