package main

import "fmt"

// metricDef names one printed metric and its unit. The two catalogues below
// are the benchmark's whole output vocabulary; BENCHMARK.json lists the same
// names and units in the same order, and TestMetricNamesMatchBenchmarkJSON
// holds the two together.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the service sees; printed with --trace 0.
//
// Every workload prints every metric: BENCHMARK.json declares one metric
// set for all workloads. An "event" is the unit a caller waits on — one churn request on
// the churn workloads, one ring job on ring-grid — and a "batch" is one whole
// input — a full churn-trace replay, or one RunRingBatch call. The churn
// figures come from each request's median over the run's replays (see
// runChurn).
var endToEnd = []metricDef{
	{"events_per_s", "1/s"},
	{"event_p50_us", "us"},
	{"event_p99_us", "us"},
	{"batch_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer comes from the traced run; printed with --trace 1. Each layer is
// measured on the workload's own input where the workload exercises it, and
// on a fixed small probe input where it does not (see probeChurn and
// probeRing), so every value is a measurement on every workload.
var perLayer = []metricDef{
	{"live.serve_us", "us"},
	{"live.apply_us", "us"},
	{"live.codec_us", "us"},
	{"live.transport_us", "us"},
	{"live.reply_bytes_per_event", "B"},
	{"live.allocs_per_event", "count"},
	{"live.alloc_bytes_per_event", "B"},
	{"hetero.mutate_us", "us"},
	{"hetero.verify_us", "us"},
	{"dynamics.requilibrate_us", "us"},
	{"dynamics.dp_calls_per_event", "count"},
	{"dynamics.warm_skipped_per_event", "count"},
	{"dynamics.warm_skip_ratio", "ratio"},
	{"dynamics.rounds_per_event", "count"},
	{"dynamics.moves_per_event", "count"},
	{"core.dp_us", "us"},
	{"engine.batch_inprocess_s", "s"},
	{"engine.dispatch_overhead_s", "s"},
	{"engine.job_exec_ms", "ms"},
	{"engine.job_wait_ms", "ms"},
	{"engine.wire_bytes_per_job", "B"},
	{"engine.requeues", "count"},
	{"engine.window_depth_mean", "count"},
	{"dist.ring_ms", "ms"},
	{"engine.task_overhead_ms", "ms"},
	{"dist.messages_per_job", "count"},
	{"dist.rounds_per_job", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.event_p50_untraced_us", "us"},
	{"trace.overhead_us", "us"},
	{"trace.spans", "count"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect renders the named values in catalogue order, failing loudly on a
// catalogue entry the run did not measure.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("perfbench: metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
