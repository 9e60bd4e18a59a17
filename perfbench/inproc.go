package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// alpha is the Eq. 7 latency↔memory weight every golden digest was pinned
// at (and primepard's default).
var alpha = 1e-12

// Plan3D inputs pinned by golden/plan3d_digest.json.
const (
	plan3dGlobalBatch = 64
	plan3dMicrobatch  = 2
	devicesPerNode    = 4
)

var (
	plan3dDevices = []int{8, 16, 32}
	sweepDevices  = []int{4, 8, 16, 32}
	table2Models  = []model.Config{model.OPT175B(), model.Llama2_70B(), model.BLOOM176B()}
)

// setupBurst is how many set-up repetitions follow each host probe.
const setupBurst = 5

// timeSetup builds a workload's inputs and times it. With a prober, the
// set-up is then repeated setupBurst times after every probe for the rest
// of the run, and setup_s is the median of all repetitions. A set-up takes
// well under a millisecond, and the host has slow and fast spells of
// ~100 ms: repetitions made back to back all land in one spell, while
// repetitions spread over the run sample it as the op metrics do.
func timeSetup[T any](probe *prober, setup func() (T, error)) (T, *[]float64, error) {
	secs := new([]float64)
	timed := func() (T, error) {
		t := time.Now()
		in, err := setup()
		*secs = append(*secs, time.Since(t).Seconds())
		return in, err
	}
	in, err := timed()
	if err != nil {
		return in, nil, err
	}
	if probe != nil {
		probe.after = func() error {
			for i := 0; i < setupBurst; i++ {
				if _, err := timed(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return in, secs, nil
}

// procSample is a reading of the process's own runtime counters.
type procSample struct {
	allocBytes float64 // cumulative heap bytes allocated
	gcCycles   float64
	cpuAll     float64 // runtime's estimate of CPU seconds, all classes
	cpuGC      float64 // of which GC
	rusage     time.Duration
}

func readProc() procSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value), cpu}
}

// loopStats is what a timed loop measured.
type loopStats struct {
	passes
	lat        []float64 // per-op latency, ms
	ok         int       // ops whose output matched the goldens
	passRSS    []float64 // peak RSS of each pass, MB
	start, end procSample
}

// passLoop runs whole passes over n inputs, each pass in a fresh seeded
// order, for at least cfg.Seconds (timePasses), probing the host between
// ops. Whole passes keep the mix of inputs identical between runs, so the
// latency percentiles of different seeds describe the same multiset of ops.
// op reports whether its output was correct; nextReq numbers ops for the
// span recorder.
func passLoop(rng *rand.Rand, n int, cfg config, nextReq *int64, rec *recorder, op func(i int, req int64) bool) loopStats {
	var ls loopStats
	ls.start = readProc()
	side := cfg.Probe.allocated()
	ls.passes = timePasses(rec, cfg.Probe, cfg.Seconds, func() int {
		resetHWM()
		for _, i := range rng.Perm(n) {
			*nextReq++
			s := time.Now()
			good := op(i, *nextReq)
			ls.lat = append(ls.lat, ms(time.Since(s)))
			if good {
				ls.ok++
			}
			cfg.Probe.maybe()
		}
		if rss, err := vmHWM("self"); err == nil {
			ls.passRSS = append(ls.passRSS, rss)
		}
		return n
	})
	ls.end = readProc()
	ls.end.allocBytes -= cfg.Probe.allocated() - side
	return ls
}

// resetHWM restarts the kernel's peak-RSS (VmHWM) tracking of this process,
// so each pass reports its own peak. Where the kernel refuses, VmHWM stays
// the process peak.
func resetHWM() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// setE2E records the end-to-end metrics every in-process workload shares.
// costs holds the chosen plans' objectives.
func setE2E(res *result, ls loopStats, setup *[]float64, costs []float64) error {
	ops := float64(len(ls.lat))
	res.Attempted += len(ls.lat)
	res.Failed += len(ls.lat) - ls.ok
	res.set("setup_s", "s", median(*setup))
	res.set("op_ms_p50", "ms", median(ls.lat))
	res.set("op_ms_p90", "ms", quantile(ls.lat, 0.9))
	res.set("ops_per_s", "1/s", ls.opsPerS())
	res.set("success_rate", "ratio", float64(ls.ok)/ops)
	res.set("alloc_mb_per_op", "MB", (ls.end.allocBytes-ls.start.allocBytes)/1e6/ops)
	if len(ls.passRSS) == 0 {
		return fmt.Errorf("no VmHWM reading")
	}
	res.set("peak_rss_mb", "MB", median(ls.passRSS))
	res.set("plan_cost_geomean", "model_s", geomean(costs))
	return nil
}

// setProc records the proc.* per-layer metrics of a loop.
func setProc(res *result, ls loopStats) {
	ops := float64(len(ls.lat))
	res.set("proc.cpu_ms_per_op", "ms", ms(ls.end.rusage-ls.start.rusage)/ops)
	res.set("proc.gc_cycles_per_op", "count", (ls.end.gcCycles-ls.start.gcCycles)/ops)
	res.set("proc.gc_cpu_fraction", "ratio", ratio(ls.end.cpuGC-ls.start.cpuGC, ls.end.cpuAll-ls.start.cpuAll))
}

// setTraceOverhead records the throughput of a traced run's untraced and
// traced passes.
func setTraceOverhead(res *result, ls loopStats) {
	u, t := ls.opsPerSWhere(false), ls.opsPerSWhere(true)
	res.set("trace.untraced_ops_per_s", "1/s", u)
	res.set("trace.traced_ops_per_s", "1/s", t)
	res.set("trace.overhead_ratio", "ratio", u/t-1)
}

// coreLayer accumulates core.SearchStats over a loop's ops.
type coreLayer struct {
	ops int
	s   core.SearchStats
}

func (c *coreLayer) add(s core.SearchStats) {
	c.s.NodeEvalTime += s.NodeEvalTime
	c.s.EdgeMatTime += s.EdgeMatTime
	c.s.DPTime += s.DPTime
	c.s.StackTime += s.StackTime
	c.s.EntriesScanned += s.EntriesScanned
	c.s.EntriesBoundSkipped += s.EntriesBoundSkipped
	c.s.CandsTotal += s.CandsTotal
	c.s.CandsPruned += s.CandsPruned
	c.s.EdgeCellsEvaluated += s.EdgeCellsEvaluated
	c.s.EdgeCellsReused += s.EdgeCellsReused
	c.s.SegTablesBuilt += s.SegTablesBuilt
	c.s.CrossCallTableHits += s.CrossCallTableHits
	c.s.CandidatesEvaluated += s.CandidatesEvaluated
}

// set records the core.* and cost.* per-layer metrics that SearchStats
// carries, as per-op means and ratios.
func (c *coreLayer) set(res *result) {
	n := float64(c.ops)
	s := c.s
	res.set("core.node_eval_ms", "ms", ms(s.NodeEvalTime)/n)
	res.set("core.dp_ms", "ms", ms(s.DPTime)/n)
	res.set("core.stack_ms", "ms", ms(s.StackTime)/n)
	res.set("core.entries_scanned", "count", float64(s.EntriesScanned)/n)
	res.set("core.bound_skip_ratio", "ratio", ratio(float64(s.EntriesBoundSkipped), float64(s.EntriesScanned+s.EntriesBoundSkipped)))
	res.set("core.cands_pruned_ratio", "ratio", ratio(float64(s.CandsPruned), float64(s.CandsTotal)))
	// The overlap tier counts per-axis overlap cells, not edge-matrix cells,
	// and the stats hold no count of overlap cells computed; so the ratio's
	// base is the edge-matrix cells evaluated and it can exceed 1.
	res.set("core.edge_cells_reused", "count", float64(s.EdgeCellsReused)/n)
	res.set("core.edge_cells_reused_ratio", "ratio", ratio(float64(s.EdgeCellsReused), float64(s.EdgeCellsEvaluated)))
	res.set("core.seg_tables_built", "count", float64(s.SegTablesBuilt)/n)
	res.set("core.table_hit_ratio", "ratio", ratio(float64(s.CrossCallTableHits), float64(s.SegTablesBuilt+s.CrossCallTableHits)))
	res.set("cost.edge_mat_ms", "ms", ms(s.EdgeMatTime)/n)
	res.set("cost.edge_cells_evaluated", "count", float64(s.EdgeCellsEvaluated)/n)
	res.set("cost.candidates_evaluated", "count", float64(s.CandidatesEvaluated)/n)
}

// notRun records zeros for per-layer metrics whose layer the workload does
// not call, so every traced result carries the same metric names.
func notRun(res *result, names map[string]string) {
	for name, unit := range names {
		if _, ok := res.Metrics[name]; !ok {
			res.set(name, unit, 0)
		}
	}
}

// ---- plan3d-cold ----

type plan3dPoint struct {
	cfg     model.Config
	devices int
	cluster *device.Cluster
	graph   *graph.Graph
	want    string
}

func plan3dSetup(cfg config) ([]plan3dPoint, error) {
	gold, err := loadGoldens(cfg.goldenPath("plan3d_digest.json"))
	if err != nil {
		return nil, err
	}
	var pts []plan3dPoint
	for _, m := range model.All() {
		g, err := model.BuildBlock(m.WithBatch(plan3dMicrobatch))
		if err != nil {
			return nil, err
		}
		for _, n := range plan3dDevices {
			want, err := gold.want(m.Name, n)
			if err != nil {
				return nil, err
			}
			cl, err := device.NewCluster(n, devicesPerNode, device.V100Profile())
			if err != nil {
				return nil, err
			}
			pts = append(pts, plan3dPoint{cfg: m, devices: n, cluster: cl, graph: g, want: want})
		}
	}
	return pts, nil
}

func plan3dRequest(pt plan3dPoint) pipeline.Plan3DRequest {
	return pipeline.Plan3DRequest{Model: pt.cfg, System: pipeline.PrimePar,
		GlobalBatch: plan3dGlobalBatch, Microbatch: plan3dMicrobatch}
}

func plan3dOptimizer(pt plan3dPoint) *pipeline.Optimizer {
	o := pipeline.NewOptimizer(pt.cluster)
	o.Cache = core.NewSearchCache() // cold: nothing shared between ops
	o.Alpha = &alpha
	return o
}

// runPlan3DCold runs the plan3d-cold workload (README.md, "plan3d-cold").
func runPlan3DCold(cfg config, res *result, rec *recorder) error {
	pts, setup, err := timeSetup(cfg.Probe, func() ([]plan3dPoint, error) { return plan3dSetup(cfg) })
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ctx := context.Background()
	var req int64

	// One op: plan, check the digest, keep the objective; in traced passes
	// also keep the stats the call returned.
	var costs []float64
	var cl coreLayer
	var selfMS, stagePlans, schedules, cfgPruned, cfgSeen, cutsSkipped []float64
	chosen := make(map[int]*pipeline.Plan3D)
	ls := passLoop(rng, len(pts), cfg, &req, rec, func(i int, r int64) bool {
		pt := pts[i]
		root := rec.begin("op", -1, r)
		defer rec.end(root)
		sp := rec.begin("pipeline.Plan3D", root, r)
		p3, err := plan3dOptimizer(pt).Plan3D(ctx, plan3dRequest(pt))
		wall := rec.end(sp)
		if err != nil {
			fmt.Fprintf(cfg.Log, "perfbench: %s@%d: %v\n", pt.cfg.Name, pt.devices, err)
			return false
		}
		costs = append(costs, p3.IterationTime)
		if rec.on {
			st := p3.Stats
			cl.ops++
			cl.add(st.Search)
			selfMS = append(selfMS, ms(wall-st.Search.TotalTime))
			stagePlans = append(stagePlans, float64(st.StagePlans))
			schedules = append(schedules, float64(st.SchedulesSimulated))
			cfgPruned = append(cfgPruned, float64(st.ConfigsPruned))
			cfgSeen = append(cfgSeen, float64(st.ConfigsConsidered))
			cutsSkipped = append(cutsSkipped, float64(st.CutsBoundSkipped))
			chosen[i] = p3
		}
		if d := p3.Digest(); d != pt.want {
			fmt.Fprintf(cfg.Log, "perfbench: %s@%d: digest %s, golden %s\n", pt.cfg.Name, pt.devices, d, pt.want)
			return false
		}
		return true
	})
	if !cfg.Trace {
		return setE2E(res, ls, setup, costs)
	}
	res.Attempted += len(ls.lat)
	res.Failed += len(ls.lat) - ls.ok

	// Probes on the chosen plans, outside the timed loops: a cold
	// EstimatePlan3D per point, the 1F1B simulation of the chosen stage
	// vectors, and the simulator on every chosen stage.
	for i, pt := range pts {
		r := req + int64(i) + 1
		sp := rec.begin("pipeline.EstimatePlan3D", -1, r)
		if _, err := plan3dOptimizer(pt).EstimatePlan3D(plan3dRequest(pt)); err != nil {
			return fmt.Errorf("EstimatePlan3D %s@%d: %w", pt.cfg.Name, pt.devices, err)
		}
		rec.end(sp)
		p3 := chosen[i]
		if p3 == nil {
			continue
		}
		fwd := make([]float64, len(p3.Stages))
		bwd := make([]float64, len(p3.Stages))
		for s, st := range p3.Stages {
			fwd[s] = st.StageTime / 3 // the planner's forward share of a stage
			bwd[s] = st.StageTime - fwd[s]
		}
		sp = rec.begin("pipeline.Simulate1F1BStages", -1, r)
		if _, err := pipeline.Simulate1F1BStages(fwd, bwd, p3.Config.Microbatches(), 0); err != nil {
			return fmt.Errorf("Simulate1F1BStages %s@%d: %w", pt.cfg.Name, pt.devices, err)
		}
		rec.end(sp)
		per := devicesPerNode
		if p3.Config.M < per {
			per = p3.Config.M
		}
		sub, err := device.NewCluster(p3.Config.M, per, pt.cluster.Profile)
		if err != nil {
			return err
		}
		for _, st := range p3.Stages {
			sp = rec.begin("sim.Run", -1, r)
			if _, err := sim.New(sub).Run(pt.graph, st.Seqs, st.Layers); err != nil {
				return fmt.Errorf("sim.Run %s@%d: %w", pt.cfg.Name, pt.devices, err)
			}
			rec.end(sp)
		}
	}

	cl.set(res)
	plan3dMS := median(rec.durations("pipeline.Plan3D"))
	res.set("pipeline.plan3d_ms", "ms", plan3dMS)
	res.set("pipeline.self_ms", "ms", median(selfMS))
	res.set("pipeline.estimate_ms", "ms", median(rec.durations("pipeline.EstimatePlan3D")))
	res.set("pipeline.stage_plans", "count", mean(stagePlans))
	res.set("pipeline.schedules_simulated", "count", mean(schedules))
	res.set("pipeline.configs_pruned_ratio", "ratio", ratio(sum(cfgPruned), sum(cfgSeen)))
	res.set("pipeline.cuts_bound_skipped_ratio", "ratio", ratio(sum(cutsSkipped), sum(cutsSkipped)+sum(schedules)))
	res.set("pipeline.sim1f1b_us", "us", 1000*median(rec.durations("pipeline.Simulate1F1BStages")))
	runMS := median(rec.durations("sim.Run"))
	res.set("sim.run_ms", "ms", runMS)
	res.set("sim.plan3d_share", "ratio", ratio(runMS*mean(stagePlans), plan3dMS))
	setProc(res, ls)
	setTraceOverhead(res, ls)
	notRun(res, perLayerUnits)
	return nil
}

// ---- sweep-cold ----

type sweepModel struct {
	cfg   model.Config
	graph *graph.Graph
	want  []string // per sweepDevices entry
}

type sweepInputs struct {
	models   []sweepModel
	clusters []*device.Cluster // per sweepDevices entry
}

func sweepSetup(cfg config) (*sweepInputs, error) {
	gold, err := loadGoldens(cfg.goldenPath("table2_digest.json"))
	if err != nil {
		return nil, err
	}
	in := &sweepInputs{}
	for _, n := range sweepDevices {
		cl, err := device.NewCluster(n, devicesPerNode, device.V100Profile())
		if err != nil {
			return nil, err
		}
		in.clusters = append(in.clusters, cl)
	}
	for _, m := range table2Models {
		g, err := model.BuildBlock(m)
		if err != nil {
			return nil, err
		}
		sm := sweepModel{cfg: m, graph: g}
		for _, n := range sweepDevices {
			want, err := gold.want(m.Name, n)
			if err != nil {
				return nil, err
			}
			sm.want = append(sm.want, want)
		}
		in.models = append(in.models, sm)
	}
	return in, nil
}

func coreOptimizer(cl *device.Cluster, cache *core.SearchCache) *core.Optimizer {
	m := cost.NewModel(cl)
	m.Alpha = alpha
	o := core.NewOptimizer(m)
	o.Cache = cache
	return o
}

// runSweepCold runs the sweep-cold workload (README.md, "sweep-cold").
func runSweepCold(cfg config, res *result, rec *recorder) error {
	in, setup, err := timeSetup(cfg.Probe, func() (*sweepInputs, error) { return sweepSetup(cfg) })
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ctx := context.Background()
	var req int64
	var costs []float64
	var cl coreLayer

	// sweep plans one model at 4→8→16→32 devices over one fresh cache,
	// recording a span per step when traced.
	sweep := func(i int, r int64) bool {
		sm := in.models[i]
		root := rec.begin("op", -1, r)
		defer rec.end(root)
		cache := core.NewSearchCache()
		good := true
		for k, n := range sweepDevices {
			sp := rec.begin(fmt.Sprintf("core.Plan.d%d", n), root, r)
			strat, err := coreOptimizer(in.clusters[k], cache).Plan(ctx, core.PlanRequest{Graph: sm.graph, Layers: sm.cfg.Layers})
			rec.end(sp)
			if err != nil {
				fmt.Fprintf(cfg.Log, "perfbench: %s@%d: %v\n", sm.cfg.Name, n, err)
				return false
			}
			if rec.on {
				cl.add(strat.Stats)
			}
			costs = append(costs, strat.TotalCost)
			if d := strategyDigest(strat); d != sm.want[k] {
				fmt.Fprintf(cfg.Log, "perfbench: %s@%d: digest %s, golden %s\n", sm.cfg.Name, n, d, sm.want[k])
				good = false
			}
		}
		if rec.on {
			cl.ops++
		}
		return good
	}
	ls := passLoop(rng, len(in.models), cfg, &req, rec, sweep)
	if !cfg.Trace {
		return setE2E(res, ls, setup, costs)
	}
	res.Attempted += len(ls.lat)
	res.Failed += len(ls.lat) - ls.ok

	// Cold EstimatePlan per model and device count, outside the loops.
	for _, sm := range in.models {
		for k := range sweepDevices {
			req++
			sp := rec.begin("core.EstimatePlan", -1, req)
			if _, err := coreOptimizer(in.clusters[k], core.NewSearchCache()).EstimatePlan(core.PlanRequest{Graph: sm.graph, Layers: sm.cfg.Layers}); err != nil {
				return fmt.Errorf("EstimatePlan %s: %w", sm.cfg.Name, err)
			}
			rec.end(sp)
		}
	}
	for _, n := range sweepDevices {
		res.set(fmt.Sprintf("core.plan_ms.d%d", n), "ms", median(rec.durations(fmt.Sprintf("core.Plan.d%d", n))))
	}
	cl.set(res)
	res.set("core.estimate_ms", "ms", median(rec.durations("core.EstimatePlan")))
	setProc(res, ls)
	setTraceOverhead(res, ls)
	notRun(res, perLayerUnits)
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
