package main

import (
	"fmt"
	"path/filepath"

	"svtiming/internal/obs"
)

// registryCounters maps per-layer metric names to the counters the
// program publishes through obs.
var registryCounters = []struct{ metric, counter string }{
	{"opc.row_lookups", "opc_row_lookups"},
	{"opc.row_solves", "opc_row_solves"},
	{"opc.row_hits", "opc_row_hits"},
	{"process.cd_lookups", "process_cd_cache_lookups"},
	{"process.cd_sims", "process_cd_cache_sims"},
	{"process.cd_hits", "process_cd_cache_hits"},
	{"litho.images", "litho_images"},
	{"litho.kernel_iters", "litho_kernel_iters"},
}

// tracer brackets the traced phase of a run: a CPU profile and runtime
// GC/allocation totals, reported per timed operation when it stops.
type tracer struct {
	prof   *cpuProfile
	gc0    float64
	alloc0 uint64
}

func startTrace(name string) (*tracer, error) {
	t := &tracer{}
	t.gc0, t.alloc0 = gcAlloc()
	prof, err := startProfile(filepath.Join(workDir, name+".cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t.prof = prof
	return t, nil
}

// stop ends the traced phase of ops, whose untraced counterpart is base,
// and records the per-layer metrics, including the registry counters ops
// collected.
func (t *tracer) stop(r *report, ops, base *opLog) error {
	gc1, alloc1 := gcAlloc()
	layers, err := t.prof.stop()
	if err != nil {
		return err
	}
	n := float64(ops.n())
	for _, c := range registryCounters {
		r.metrics[c.metric] = float64(ops.counters[c.metric]) / n
	}
	for _, p := range profiledPackages {
		r.metrics[p+".cpu_ms"] = layers[p] / n
	}
	for _, p := range []string{"runtime", "stdlib", "other"} {
		r.metrics[p+".cpu_ms"] = layers[p] / n
	}
	r.metrics["runtime.gc_cpu_ms"] = 1000 * (gc1 - t.gc0) / n
	r.metrics["runtime.alloc_mb"] = float64(alloc1-t.alloc0) / (1 << 20) / n
	traced := ops.totalCPUS() / n
	baseCPUS := base.totalCPUS() / float64(base.n())
	r.metrics["trace.overhead_pct"] = 100 * (traced - baseCPUS) / baseCPUS
	r.notef("trace: %.0f ops traced; CPU per op %.2f ms traced vs %.2f ms untraced (overhead %.1f %%); benchmark's own code %.1f CPU-ms per op",
		n, 1000*traced, 1000*baseCPUS, r.metrics["trace.overhead_pct"], layers["bench"]/n)
	return nil
}

// spanMs returns the total duration of the registry's spans of one name.
func spanMs(reg *obs.Registry, name string) float64 {
	total := 0.0
	for _, s := range reg.Snapshot().Spans {
		if s.Name == name {
			total += float64(s.DurationNS) / 1e6
		}
	}
	return total
}
