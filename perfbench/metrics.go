package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// workload names and every metric's name, unit, direction and bound.
// BENCHMARK.json is the only table of them.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	// EndToEnd are printed by --trace 0 on every workload. An operation
	// is one HTTP request on the serving workloads and one grid cell on
	// sweep-grid.
	EndToEnd []metricDef `json:"end_to_end"`
	// PerLayer are printed by --trace 1 on every workload; a metric
	// whose layer is not on the workload's path reads 0.
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (b benchmarkFile) workloadNames() []string {
	names := make([]string, len(b.Workloads))
	for i, w := range b.Workloads {
		names[i] = w.Name
	}
	return names
}

// loadBenchmark reads BENCHMARK.json from the repository root.
func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	blob, err := os.ReadFile(path)
	if err != nil {
		return b, fmt.Errorf("read metric table (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		return b, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(b.Workloads) == 0 || len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return b, fmt.Errorf("%s names no workloads or no metrics", path)
	}
	return b, nil
}

// moves says which end-to-end metric a per-layer metric should move,
// on which workload; the report prints it next to the metric.
var moves = map[string]string{
	"client.self_ms_p50":           "nothing: client span minus router span; must not move under server changes",
	"cluster.self_ms_p50":          "latency_p50_ms and throughput_rps on plan-zipf (the hop is the largest part of a request); less on searchtimes-batch; not sweep-grid",
	"cluster.self_ms_p99":          "latency_p99_ms on plan-zipf and searchtimes-batch",
	"cluster.relay_bytes_per_req":  "latency_p50_ms on searchtimes-batch (31 KB buffered relays)",
	"cluster.retries":              "should stay 0; retries add latency on both serving workloads",
	"cluster.proxy_errors":         "should stay 0; an error lowers ok_ratio",
	"service.handler_ms_p50":       "latency_p50_ms on plan-zipf and searchtimes-batch",
	"service.handler_ms_p99":       "latency_p99_ms on plan-zipf and searchtimes-batch",
	"service.cache_hit_ratio":      "throughput_rps on plan-zipf only; searchtimes-batch always hits (predicted no change)",
	"service.cache_misses":         "throughput_rps on plan-zipf only",
	"service.cache_evictions":      "throughput_rps on plan-zipf only",
	"service.cache_inflight_waits": "latency_p99_ms on plan-zipf",
	"service.shed_429":             "should stay 0; a shed request lowers ok_ratio",
	"service.cache_build_us":       "throughput_rps on plan-zipf, through the misses",
	"service.cache_hit_ns":         "latency_p50_ms on plan-zipf and searchtimes-batch (small)",
	"compiled.eval_us_per_req":     "latency_p50_ms on searchtimes-batch, at most by compiled.eval_share",
	"compiled.eval_share":          "bounds the latency_p50_ms gain a kernel change can give searchtimes-batch",
	"compiled.compile_us":          "throughput_rps on sweep-grid",
	"compiled.cr_ms_per_cell":      "throughput_rps and latency_p50_ms on sweep-grid",
	"sweep.cell_ms_p50":            "throughput_rps and latency_p50_ms on sweep-grid",
	"sweep.cell_ms_p99":            "latency_p99_ms on sweep-grid",
	"sweep.worker_busy_ratio":      "throughput_rps on sweep-grid",
	"sweep.checkpoints":            "throughput_rps on sweep-grid",
	"sweep.checkpoint_bytes":       "throughput_rps on sweep-grid (bytes grow with the square of the grid)",
	"sweep.checkpoint_share":       "throughput_rps on sweep-grid",
	"process.allocs_per_op":        "latency_p99_ms and peak_rss_mb on the serving workloads",
	"process.gc_cycles":            "latency_p99_ms and peak_rss_mb on the serving workloads",
	"tracing.overhead_ratio":       "nothing: traced over untraced throughput of the same run",
}
