package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (spec_test.go keeps the two in step) and adds
// each end-to-end metric's regression bound.
type metricDef struct {
	name, unit, better string
}

// endToEnd are what a user of the auction sees, measured with tracing
// off. An "op" is one round on the round-* workloads, one sealed epoch on
// service-open and one networked round on net-loopback.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms.p50", "ms", "lower"},
	{"latency_ms.p75", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"heap_live_peak_mb", "MB", "lower"},
}

// coreLayers are the spans of one decomposed round whose self times the
// per-layer metrics report, in pipeline order, with their metric names.
var coreLayers = []struct{ span, metric string }{
	{"core.encode_location", "core.encode_location_ms"},
	{"core.encode_bids", "core.encode_bids_ms"},
	{"core.conflict_graph", "core.conflict_graph_ms"},
	{"core.rank_memo", "core.rank_memo_ms"},
	{"auction.allocate", "auction.allocate_ms"},
	{"ttp.charge", "ttp.charge_ms"},
}

// perLayer come from the traced pass, named after the repo's packages.
var perLayer = []metricDef{
	{"core.encode_location_ms", "ms", "lower"},
	{"core.encode_bids_ms", "ms", "lower"},
	{"core.submission_kb", "KB", "lower"},
	{"core.conflict_graph_ms", "ms", "lower"},
	{"conflict.edges", "count", "lower"},
	{"core.rank_memo_ms", "ms", "lower"},
	{"auction.allocate_ms", "ms", "lower"},
	{"auction.awards", "count", "higher"},
	{"auction.voided_frac", "ratio", "lower"},
	{"ttp.charge_ms", "ms", "lower"},
	{"transport.frame_bytes", "bytes", "lower"},
	{"transport.frame_encode_us", "us", "lower"},
	{"transport.frame_decode_us", "us", "lower"},
	{"round.self_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"harness.late_ms.p99", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"gc.cycles_per_op", "count", "lower"},
	{"gc.pause_ms_per_op", "ms", "lower"},
}

// spec is the part of BENCHMARK.json the comparator and the tests read.
type spec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

// specMetric is one listed metric; per-layer metrics carry no bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
