"""The benchmark's workloads by name."""

import cauchy
import clisuite
import radial

WORKLOADS = {
    "cauchy-385": cauchy,
    "radial-oracle": radial,
    "cli-suite": clisuite,
}
