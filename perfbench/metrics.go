package main

// metricDef names one reported metric and its unit. README.md maps each to
// its layer and to the end-to-end metric it should move.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEndMetrics are printed by every workload with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_rate", "1/s"},
	{"op_p50_us", "us"},
	{"goodput_MBps", "MB/s"},
	{"mem_MiB", "MiB"},
}

// perLayerMetrics are printed by every workload with --trace 1; a layer the
// workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"job.launch_ms", "ms"},
	{"session.attach_us", "us"},
	{"session.derivations", "count"},
	{"session.auth_failures", "count"},
	{"encmpi.seal_ns_mean", "ns"},
	{"encmpi.open_ns_mean", "ns"},
	{"encmpi.crypto_share", "ratio"},
	{"encmpi.seals_per_op", "count"},
	{"encmpi.in_place_ratio", "ratio"},
	{"encmpi.seals_internode", "count"},
	{"pipeline.chunks_per_op", "count"},
	{"pipeline.seal_overlap_share", "ratio"},
	{"pipeline.open_overlap_share", "ratio"},
	{"pipeline.max_in_flight", "count"},
	{"mpi.wait_share", "ratio"},
	{"mpi.wait_p50_us", "us"},
	{"mpi.msgs_per_op", "count"},
	{"mpi.bytes_per_op", "B"},
	{"mpi.strays", "count"},
	{"mpi.send_us", "us"},
	{"mpi.wait_us", "us"},
	{"mpi.allreduce_us", "us"},
	{"ring.acquired_per_op", "count"},
	{"ring.fallback_ratio", "ratio"},
	{"transport.slot_direct_eager", "count"},
	{"wire.flushes_per_op", "count"},
	{"wire.frames_per_flush", "count"},
	{"wire.inline_flush_ratio", "ratio"},
	{"wire.write_errors", "count"},
	{"hear.ns_per_elem", "ns"},
	{"hear.share", "ratio"},
	{"hear.elems_per_op", "count"},
	{"hear.ceremony_ms", "ms"},
	{"cryptopool.dispatch_ns", "ns"},
	{"cryptopool.workers", "count"},
	{"coll.bcast_1_virt_us", "us"},
	{"coll.bcast_16384_virt_us", "us"},
	{"coll.alltoall_1_virt_us", "us"},
	{"coll.alltoall_16384_virt_us", "us"},
	{"coll.hier_allreduce_65536_virt_us", "us"},
	{"coll.hear_allreduce_65536_virt_us", "us"},
	{"sim.time_us", "us"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"simnet.packets", "count"},
	{"simnet.bytes", "B"},
	{"simnet.max_queueing_us", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"cg.iterations", "count"},
	{"bench.op_p99_us", "us"},
	{"bench.span_coverage", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.fail_ratio", "ratio"},
}
