"""The four workloads, by name, in the order a full run executes them."""

from wl_assert_refine import AssertRefine
from wl_cluster_fanout import ClusterFanout
from wl_exact_cold import ExactCold
from wl_serve_hot import ServeHot

WORKLOADS = {
    "exact_cold": ExactCold,
    "assert_refine": AssertRefine,
    "serve_hot": ServeHot,
    "cluster_fanout": ClusterFanout,
}
