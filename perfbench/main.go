// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one named workload against the planner, checks every plan it gets
// against the checked-in golden digests, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload plan3d-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists and what it bypasses):
//
//	plan3d-cold  in-process (*pipeline.Optimizer).Plan3D, fresh cache per op, GOMAXPROCS=1
//	sweep-cold   in-process 4→8→16→32 (*core.Optimizer).Plan sweep, GOMAXPROCS=nproc
//	daemon-warm  a spawned primepard restarted on its own PPSC snapshot, GOMAXPROCS=1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, taken from spans the driver records around its
// calls into each layer, and the spans are written under .bench_build/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation of a workload.
type config struct {
	Root      string // checkout root: golden/ is read from here, .bench_build/ written
	Primepard string // primepard binary (daemon-warm only)
	Seed      int64
	Seconds   float64
	Trace     bool
	Log       io.Writer // progress diagnostics (stderr)
	// Probe measures host speed between ops (probe.go). When nil, as in
	// traced runs and tests, wall times are reported as measured.
	Probe *prober
}

func (c config) goldenPath(name string) string { return filepath.Join(c.Root, "golden", name) }
func (c config) buildDir() string              { return filepath.Join(c.Root, ".bench_build") }

// workload runs one benchmark workload and fills its result.
type workload struct {
	// procs is the GOMAXPROCS the planning process runs at (0 = nproc).
	procs int
	run   func(cfg config, res *result, rec *recorder) error
}

// perLayerUnits names every per-layer metric with its unit. Each traced
// result carries all of them; a metric whose layer the workload does not
// call reads 0 (README.md lists which layers run where).
var perLayerUnits = map[string]string{
	"core.plan_ms.d4": "ms", "core.plan_ms.d8": "ms", "core.plan_ms.d16": "ms", "core.plan_ms.d32": "ms",
	"core.node_eval_ms": "ms", "core.dp_ms": "ms", "core.stack_ms": "ms",
	"core.entries_scanned": "count", "core.bound_skip_ratio": "ratio", "core.cands_pruned_ratio": "ratio",
	"core.edge_cells_reused": "count", "core.edge_cells_reused_ratio": "ratio", "core.seg_tables_built": "count", "core.table_hit_ratio": "ratio",
	"core.estimate_ms": "ms", "core.cache_save_s": "s", "core.cache_load_s": "s", "core.snapshot_mb": "MB",
	"cost.edge_mat_ms": "ms", "cost.edge_cells_evaluated": "count", "cost.candidates_evaluated": "count",
	"pipeline.plan3d_ms": "ms", "pipeline.self_ms": "ms", "pipeline.estimate_ms": "ms",
	"pipeline.stage_plans": "count", "pipeline.schedules_simulated": "count",
	"pipeline.configs_pruned_ratio": "ratio", "pipeline.cuts_bound_skipped_ratio": "ratio", "pipeline.sim1f1b_us": "us",
	"sim.run_ms": "ms", "sim.plan3d_share": "ratio",
	"primepard.server_ms_p50": "ms", "primepard.overhead_ms_p50": "ms", "primepard.response_kb": "kB",
	"primepard.warm_served_ratio": "ratio", "primepard.shed_total": "count",
	"primepard.tables_built_per_req": "count", "primepard.rewarm_s": "s",
	"proc.cpu_ms_per_op": "ms", "proc.gc_cycles_per_op": "count", "proc.gc_cpu_fraction": "ratio",
	"trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s", "trace.overhead_ratio": "ratio",
}

var workloads = map[string]workload{
	"plan3d-cold": {procs: 1, run: runPlan3DCold},
	"sweep-cold":  {procs: 0, run: runSweepCold},
	"daemon-warm": {procs: 1, run: runDaemonWarm},
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: plan3d-cold, sweep-cold or daemon-warm")
		seed      = flag.Int64("seed", 1, "seed for request order and the daemon mix")
		seconds   = flag.Float64("seconds", 20, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		root      = flag.String("root", ".", "checkout root (holds golden/ and receives .bench_build/)")
		primepard = flag.String("primepard", "", "primepard binary for daemon-warm")
		probe     = flag.Bool("probe", false, "serve host-speed probes on stdin/stdout (perfbench starts itself this way)")
	)
	flag.Parse()
	if *probe {
		if err := serveProbes(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: probe: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := config{Root: *root, Primepard: *primepard, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Log: os.Stderr}
	if !cfg.Trace {
		p, err := startProber()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		cfg.Probe = p
	}
	res, err := runWorkload(*name, w, cfg)
	cfg.Probe.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload pins the thread budget, records the host, runs the workload
// and, when traced, writes the spans out. A run that attempted an op whose
// plan missed its golden digest comes back with Correct=false.
func runWorkload(name string, w workload, cfg config) (*result, error) {
	// The planner's worker pool reads PRIMEPAR_WORKERS; the thread budget
	// must come from GOMAXPROCS alone.
	os.Unsetenv("PRIMEPAR_WORKERS")
	procs := w.procs
	if procs == 0 {
		procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(procs)

	h := hostRecord(name, cfg.Seed, procs)
	if hb, err := json.Marshal(map[string]any{"host": h}); err == nil {
		fmt.Println(string(hb))
	}
	rec := newRecorder(cfg.Trace)
	res := &result{Metrics: map[string]metric{}}
	cfg.Probe.maybe()
	if err := w.run(cfg, res, rec); err != nil {
		return nil, err
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no op attempted")
	}
	res.Correct = res.Failed == 0
	if cfg.Probe != nil {
		if err := normalize(res, cfg.Probe); err != nil {
			return nil, err
		}
	}
	if cfg.Trace {
		path := filepath.Join(cfg.buildDir(), "traces", fmt.Sprintf("%s-seed%d.json", name, cfg.Seed))
		if err := rec.write(path, h, res); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.Log, "perfbench: %d spans written to %s\n", len(rec.spans), path)
	}
	return res, nil
}

// wallTimeMetrics are the end-to-end metrics that normalize scales, with
// the power of the host-speed factor each takes: times scale with it, rates
// against it.
var wallTimeMetrics = map[string]float64{"setup_s": 1, "op_ms_p50": 1, "op_ms_p90": 1, "ops_per_s": -1}

// normalize rescales the wall-time metrics of res to the reference host
// speed (probe.go) and prints the values as measured, with the probe
// median, on a line of their own before the result.
func normalize(res *result, p *prober) error {
	probeMS, err := p.medianMS()
	if err != nil {
		return err
	}
	f := probeNominalMS / probeMS
	raw := map[string]metric{}
	for name, pow := range wallTimeMetrics {
		m, ok := res.Metrics[name]
		if !ok {
			return fmt.Errorf("no %s to normalize", name)
		}
		raw[name] = m
		m.Value *= math.Pow(f, pow)
		res.Metrics[name] = m
	}
	b, err := json.Marshal(map[string]any{"measured": raw, "probe_ms_median": probeMS, "probes": len(p.ms)})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// host describes where and how a result was measured.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
}

func hostRecord(name string, seed int64, procs int) host {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{Workload: name, Seed: seed, NProc: runtime.NumCPU(), GOMAXPROCS: procs, CPU: cpu, GoVersion: runtime.Version()}
}

// set records one metric on the result.
func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// passes is the wall time of each whole pass of a timed loop.
type passes struct {
	per    int       // ops in one pass
	secs   []float64 // wall seconds of each pass
	traced []bool    // whether spans were recorded in each pass
}

// opsPerS is the throughput of the median pass: the rate the loop sustains,
// unmoved by one pass that a burst of outside load slowed.
func (p passes) opsPerS() float64 { return float64(p.per) / median(p.secs) }

// opsPerSWhere is opsPerS over the passes run with tracing on (or off),
// leaving out the first pass: it warms the process up and is always
// untraced, so it would bias the comparison.
func (p passes) opsPerSWhere(traced bool) float64 {
	var xs []float64
	for i, s := range p.secs {
		if i > 0 && p.traced[i] == traced {
			xs = append(xs, s)
		}
	}
	return float64(p.per) / median(xs)
}

// timePasses calls pass, which runs one whole pass and returns its op
// count, until at least `seconds` have elapsed. When the recorder is on,
// passes alternate untraced and traced, so that both see the same outside
// load; there are at least three, so that each kind has one pass beyond
// the first. The recorder is on again on return.
func timePasses(rec *recorder, probe *prober, seconds float64, pass func() int) passes {
	alternate := rec.on
	minPasses := 1
	if alternate {
		minPasses = 3
	}
	var p passes
	t0 := time.Now()
	for i := 0; i < minPasses || time.Since(t0).Seconds() < seconds; i++ {
		rec.on = alternate && i%2 == 1
		s, probing := time.Now(), probe.probing()
		p.per = pass()
		p.secs = append(p.secs, (time.Since(s) - (probe.probing() - probing)).Seconds())
		p.traced = append(p.traced, rec.on)
	}
	rec.on = alternate
	return p
}

// vmHWM reads a process's peak resident set size in MB from /proc.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
