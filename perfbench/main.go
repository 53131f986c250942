// Command perfbench is the repository benchmark: it runs one workload of
// svtiming (the Table 2 sign-off loop, a cold full-chip OPC sweep, or
// live /v1/edit sessions against an in-process svtimingd), checks every
// output the program produces, and prints the measured metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// instrumentation; with -trace 1 they are the per-layer metrics of a
// traced run. Throughput is counted against process CPU seconds, which
// host steal does not move; wall latencies are reported beside it.
//
// Usage (from the repository root, see run.sh and README.md):
//
//	bash perfbench/run.sh --workload table2_signoff --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"svtiming/internal/expt"
)

// workers is the flow worker-pool bound every workload uses: this host's
// CPU count, so that a parallelism gain shows in wall-clock metrics.
var workers = runtime.NumCPU()

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

// workDir, under the directory the benchmark runs in, receives the traced
// run's CPU profile; run.sh builds into the same directory.
const workDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"setup_cpu_s", "CPU-s"},
	{"gates_per_cpu_s", "gates/CPU-s"},
	{"ops_per_cpu_s", "ops/CPU-s"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer a workload does not exercise reports 0. Counts and milliseconds
// are per timed operation.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"opc.pitchtable_ms", "ms"},
		{"liberty.characterize_ms", "ms"},
		{"netlist.generate_ms", "ms"},
		{"place.place_ms", "ms"},
		{"context.refresh_ms", "ms"},
		{"sta.analyze_ms", "ms"},
		{"sta.analyses", "count"},
		{"opc.row_lookups", "count"},
		{"opc.row_solves", "count"},
		{"opc.row_hits", "count"},
		{"process.cd_lookups", "count"},
		{"process.cd_sims", "count"},
		{"process.cd_hits", "count"},
		{"litho.images", "count"},
		{"litho.kernel_iters", "count"},
		{"core.apply_ms", "ms"},
		{"service.overhead_ms", "ms"},
		{"incr.gates_resimulated", "count"},
		{"incr.cones_repropagated", "count"},
		{"incr.full_rebuilds", "count"},
	}
	for _, p := range profiledPackages {
		defs = append(defs, metricDef{p + ".cpu_ms", "CPU-ms"})
	}
	return append(defs,
		metricDef{"runtime.cpu_ms", "CPU-ms"},
		metricDef{"stdlib.cpu_ms", "CPU-ms"},
		metricDef{"other.cpu_ms", "CPU-ms"},
		metricDef{"runtime.gc_cpu_ms", "CPU-ms"},
		metricDef{"runtime.alloc_mb", "MiB"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	violations        []string
	metrics           map[string]float64
	// notes are printed-only lines: per-class latencies and the like.
	notes []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records a correctness violation; it returns whether err was nil.
func (r *report) check(err error) bool {
	if err == nil {
		return true
	}
	if len(r.violations) < 20 {
		r.violations = append(r.violations, err.Error())
	}
	return false
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd summarises the timed operations of an untraced run into the
// end-to-end metrics shared by every workload.
func (r *report) endToEnd(st setupStats, heapMiB float64, rounds int, kinds ...*opLog) {
	r.metrics["setup_s"] = median(st.wallS)
	r.metrics["setup_cpu_s"] = median(st.cpuS)
	r.metrics["gates_per_cpu_s"], r.metrics["ops_per_cpu_s"] = cpuThroughput(rounds, kinds...)
	r.metrics["live_heap_mb"] = heapMiB
	// Wall-clock figures move with host steal by more than any bound a
	// regression gate could use, so they are printed, not gated.
	all := merge(kinds...)
	r.notef("wall: gates_per_s %.1f gates/s, op_p50_ms %.4f ms over %d ops in %d rounds; set-ups took %.3g s",
		all.perWallSecond(), median(all.wallMs), all.n(), rounds, st.wallS)
}

type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"table2_signoff", runTable2},
	{"fullchip_cold", runFullChip},
	{"edit_daemon", runEditDaemon},
}

func main() {
	name := flag.String("workload", "", "workload to run: table2_signoff, fullchip_cold or edit_daemon")
	seed := flag.Int64("seed", 1, "workload seed: picks edit_daemon's edited instances, their directions and the request order")
	seconds := flag.Float64("seconds", 10, "length of the timed phase, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, uninstrumented; 1: per-layer metrics of a traced run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {table2_signoff|fullchip_cold|edit_daemon}, -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}

	probe0 := probeMs()
	host0, start := readHostCPU(), now()
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	wallS, cpuS := start.since()
	host1 := readHostCPU()
	probe1 := probeMs()

	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, v := range rep.violations {
		fmt.Println("VIOLATION:", v)
	}
	// Host-noise record: a set of runs whose steal share, CPU/wall ratio
	// or probe time departs from the README's reference values is noisy,
	// not regressed.
	fmt.Printf("host: workload=%s seed=%d trace=%d workers=%d steal_pct=%.2f cpu_per_wall=%.3f wall_s=%.2f cpu_s=%.2f probe_ms=%.2f/%.2f\n",
		w.name, cfg.seed, *trace, workers, stealPct(host0, host1), cpuS/wallS, wallS, cpuS, probe0, probe1)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(rep.violations) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && cfg.trace {
			v, ok = 0, true // a layer this workload does not exercise
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("metric %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s produced no value for %v\n", w.name, missing)
		os.Exit(1)
	}
	if out.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operation\n", w.name)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// deadline returns when a timed phase of share × cfg.seconds starting now
// ends. A traced run spends half a phase measuring its untraced baseline.
func (cfg config) deadline(share float64) time.Time {
	return expt.Now().Add(time.Duration(share * cfg.seconds * float64(time.Second)))
}
