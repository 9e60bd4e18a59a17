package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// dclass is one request class of the daemon mix: every item in it is sent
// perCycle times per cycle.
type dclass struct {
	name     string
	perCycle int
	items    []*dreq
}

// dreq is one distinct request the client sends.
type dreq struct {
	class   string
	path    string
	body    []byte
	want    []string // golden digests: one per plan (sweeps: per point)
	model   string
	devices int // of the request (a sweep's base)
}

type pipelineSpec struct {
	Stages      string `json:"stages"`
	MicroBatch  int    `json:"micro_batch"`
	GlobalBatch int    `json:"global_batch"`
}

type planBody struct {
	Model    string        `json:"model"`
	Devices  int           `json:"devices,omitempty"`
	Pipeline *pipelineSpec `json:"pipeline,omitempty"`
	Points   []sweepPoint  `json:"points,omitempty"`
}

type sweepPoint struct {
	Devices int `json:"devices"`
}

// Mix classes and their per-cycle counts. Every cycle holds the same
// multiset, in a seeded order. The counts place both the 50th and the 90th
// percentile inside a class rather than on a boundary between two classes
// (README.md, "daemon-warm mix").
var (
	mixPlanDevices = []int{4, 8, 16, 32}
	mixPlanCounts  = map[int]int{4: 9, 8: 8, 16: 1, 32: 1}
	mixPipeDevices = []int{8, 16, 32}
	mixPipeCount   = 1
	mixSweepPoints = []int{4, 8, 16}
	mixSweepCount  = 1
)

// daemonMix builds the request classes and checks every item has goldens.
func daemonMix(cfg config) ([]dclass, error) {
	t2, err := loadGoldens(cfg.goldenPath("table2_digest.json"))
	if err != nil {
		return nil, err
	}
	p3, err := loadGoldens(cfg.goldenPath("plan3d_digest.json"))
	if err != nil {
		return nil, err
	}
	mk := func(class, path string, b planBody, want ...string) *dreq {
		body, _ := json.Marshal(b) // plain structs always marshal
		return &dreq{class: class, path: path, body: body, want: want, model: b.Model, devices: b.Devices}
	}
	var classes []dclass
	for _, n := range mixPlanDevices {
		c := dclass{name: fmt.Sprintf("plan@%d", n), perCycle: mixPlanCounts[n]}
		for _, m := range table2Models {
			w, err := t2.want(m.Name, n)
			if err != nil {
				return nil, err
			}
			c.items = append(c.items, mk(c.name, "/v1/plan", planBody{Model: m.Name, Devices: n}, w))
		}
		classes = append(classes, c)
	}
	for _, n := range mixPipeDevices {
		c := dclass{name: fmt.Sprintf("pipe@%d", n), perCycle: mixPipeCount}
		for _, m := range model.All() {
			w, err := p3.want(m.Name, n)
			if err != nil {
				return nil, err
			}
			spec := &pipelineSpec{Stages: "auto", MicroBatch: plan3dMicrobatch, GlobalBatch: plan3dGlobalBatch}
			c.items = append(c.items, mk(c.name, "/v1/plan", planBody{Model: m.Name, Devices: n, Pipeline: spec}, w))
		}
		classes = append(classes, c)
	}
	sw := dclass{name: "sweep", perCycle: mixSweepCount}
	for _, m := range table2Models {
		b := planBody{Model: m.Name, Devices: mixSweepPoints[0]}
		var want []string
		for _, n := range mixSweepPoints {
			w, err := t2.want(m.Name, n)
			if err != nil {
				return nil, err
			}
			b.Points = append(b.Points, sweepPoint{Devices: n})
			want = append(want, w)
		}
		sw.items = append(sw.items, mk(sw.name, "/v1/plan/sweep", b, want...))
	}
	return append(classes, sw), nil
}

// cycle returns one cycle of the mix in a seeded order.
func cycle(classes []dclass, rng *rand.Rand) []*dreq {
	var out []*dreq
	for _, c := range classes {
		for _, it := range c.items {
			for k := 0; k < c.perCycle; k++ {
				out = append(out, it)
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// distinct returns every request of the mix once.
func distinct(classes []dclass) []*dreq {
	var out []*dreq
	for _, c := range classes {
		out = append(out, c.items...)
	}
	return out
}

// ---- the daemon process ----

// lockedBuffer collects a child's output; exec copies into it from its own
// goroutine while the driver reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemon is one running primepard.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned
	base   string
	out    *lockedBuffer
	client *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns primepard on cacheDir at the given GOMAXPROCS and
// returns once /v1/healthz answers 200.
func startDaemon(cfg config, cacheDir string, procs int, extraEnv ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(cfg.Primepard, "-addr", addr, "-cache-dir", cacheDir, "-save-every", "0")
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "PRIMEPAR_WORKERS=") && !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, "GODEBUG=") {
			env = append(env, kv)
		}
	}
	cmd.Env = append(append(env, "GOMAXPROCS="+strconv.Itoa(procs)), extraEnv...)
	out := &lockedBuffer{}
	cmd.Stdout, cmd.Stderr = out, out
	// If the driver itself is killed, the kernel kills primepard too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start primepard: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), base: "http://" + addr, out: out, client: &http.Client{
		Timeout: 2 * time.Minute,
		// One keep-alive connection: the client is a single closed loop.
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}}
	go func() {
		_ = cmd.Wait() // how it ended is read from its output, not the status
		close(d.exited)
	}()
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("primepard exited before it was healthy:\n%s", out.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("primepard not healthy after 90s: %v\n%s", err, out.String())
		}
	}
}

// kill stops the daemon at once and waits until it has exited; the client
// is closed loop, so no request is in flight when the driver calls it.
func (d *daemon) kill() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.exited
}

// stop sends SIGTERM, on which primepard drains and saves its cache, and
// waits until it has exited.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal primepard: %w", err)
	}
	select {
	case <-d.exited:
		if !d.cmd.ProcessState.Success() {
			return fmt.Errorf("primepard exit: %v\n%s", d.cmd.ProcessState, d.out.String())
		}
		return nil
	case <-time.After(2 * time.Minute):
		d.kill()
		return fmt.Errorf("primepard did not stop within 2m of SIGTERM")
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// cpuTime reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", d.pid(), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat %q", s)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// daemonStats is the part of /v1/stats the benchmark reads.
type daemonStats struct {
	PlansServed  int64 `json:"plans_served"`
	SweepsServed int64 `json:"sweeps_served"`
	WarmServed   int64 `json:"warm_served"`
	Admission    struct {
		ShedQueueFull    int64 `json:"shed_queue_full"`
		ShedQueueTimeout int64 `json:"shed_queue_timeout"`
		ShedDeadline     int64 `json:"shed_deadline"`
		ShedMemory       int64 `json:"shed_memory"`
	} `json:"admission"`
}

func (s daemonStats) shed() int64 {
	a := s.Admission
	return a.ShedQueueFull + a.ShedQueueTimeout + a.ShedDeadline + a.ShedMemory
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return st, nil
}

// planResp is the part of a /v1/plan response the benchmark reads.
type planResp struct {
	Digest    string           `json:"digest"`
	TotalCost float64          `json:"total_cost"`
	ElapsedMS float64          `json:"elapsed_ms"`
	Stats     core.SearchStats `json:"stats"`
	Pipeline  *struct {
		IterationS float64              `json:"iteration_s"`
		Stats      pipeline.Plan3DStats `json:"stats"`
	} `json:"pipeline"`
}

type sweepResp struct {
	Results []struct {
		Plan *planResp `json:"plan"`
	} `json:"results"`
	Totals struct {
		SegTablesBuilt int64 `json:"seg_tables_built"`
	} `json:"totals"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// outcome is what one request returned.
type outcome struct {
	ok        bool
	latencyMS float64
	serverMS  float64
	bytes     int
	costs     []float64
	plans     []*planResp // every plan in the response
	tables    int64
}

// send posts one request, reads the whole body and checks every digest
// against the goldens.
func (d *daemon) send(r *dreq, log io.Writer) outcome {
	t := time.Now()
	resp, err := d.client.Post(d.base+r.path, "application/json", bytes.NewReader(r.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o := outcome{latencyMS: ms(time.Since(t)), bytes: len(body)}
	if err != nil {
		fmt.Fprintf(log, "perfbench: %s %s: %v\n", r.class, r.model, err)
		return o
	}
	if resp.StatusCode/100 != 2 {
		fmt.Fprintf(log, "perfbench: %s %s: HTTP %d: %s\n", r.class, r.model, resp.StatusCode, body)
		return o
	}
	var got []string
	if r.path == "/v1/plan/sweep" {
		var sr sweepResp
		if err := json.Unmarshal(body, &sr); err != nil {
			fmt.Fprintf(log, "perfbench: %s %s: %v\n", r.class, r.model, err)
			return o
		}
		o.serverMS, o.tables = sr.ElapsedMS, sr.Totals.SegTablesBuilt
		for _, res := range sr.Results {
			if res.Plan == nil {
				got = append(got, "")
				continue
			}
			got = append(got, res.Plan.Digest)
			o.costs = append(o.costs, res.Plan.TotalCost)
			o.plans = append(o.plans, res.Plan)
		}
	} else {
		var pr planResp
		if err := json.Unmarshal(body, &pr); err != nil {
			fmt.Fprintf(log, "perfbench: %s %s: %v\n", r.class, r.model, err)
			return o
		}
		o.serverMS, o.tables = pr.ElapsedMS, int64(pr.Stats.SegTablesBuilt)
		got = append(got, pr.Digest)
		if pr.Pipeline != nil {
			o.costs = append(o.costs, pr.Pipeline.IterationS)
		} else {
			o.costs = append(o.costs, pr.TotalCost)
		}
		o.plans = append(o.plans, &pr)
	}
	if fmt.Sprint(got) != fmt.Sprint(r.want) {
		fmt.Fprintf(log, "perfbench: %s %s@%d: digests %v, golden %v\n", r.class, r.model, r.devices, got, r.want)
		return o
	}
	o.ok = true
	return o
}

// gcLines counts and sums the gctrace lines in a daemon's output: cycles and
// the GC CPU milliseconds each reports.
func gcLines(out string) (cycles int, cpuMS float64) {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		cycles++
		// "... ms clock, A+B/C/D+E ms cpu, ..."
		if _, rest, ok := strings.Cut(line, " ms clock, "); ok {
			if f, _, ok := strings.Cut(rest, " ms cpu"); ok {
				for _, p := range strings.FieldsFunc(f, func(r rune) bool { return r == '+' || r == '/' }) {
					if v, err := strconv.ParseFloat(p, 64); err == nil {
						cpuMS += v
					}
				}
			}
		}
	}
	return cycles, cpuMS
}

// logClasses prints each class's share of the ops, its client latency range
// and median, and where the overall p50 and p90 fall.
func logClasses(log io.Writer, w window) {
	by := map[string][]float64{}
	var all []float64
	for i, o := range w.outs {
		by[w.reqs[i].class] = append(by[w.reqs[i].class], o.latencyMS)
		all = append(all, o.latencyMS)
	}
	names := make([]string, 0, len(by))
	for c := range by {
		names = append(names, c)
	}
	sort.Slice(names, func(i, j int) bool { return median(by[names[i]]) < median(by[names[j]]) })
	for _, c := range names {
		l := by[c]
		fmt.Fprintf(log, "perfbench: %-8s share %5.1f%%  min %8.2f  p50 %8.2f  max %8.2f ms\n",
			c, 100*float64(len(l))/float64(len(all)), quantile(l, 0), median(l), quantile(l, 1))
	}
	fmt.Fprintf(log, "perfbench: %d ops, p50 %.2f ms, p90 %.2f ms\n", len(all), median(all), quantile(all, 0.9))
}

// snapshotRead reads the snapshot file once so that every timed start finds
// it in the page cache: the first start after a write is slower than the
// rest.
func snapshotRead(dir string) (int64, error) {
	f, err := os.Open(filepath.Join(dir, core.CacheFileName))
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return io.Copy(io.Discard, f)
}

// window is what one timed phase against the daemon measured.
type window struct {
	passes            // one pass is one cycle of the mix
	outs              []outcome
	reqs              []*dreq
	before, after     daemonStats
	cpu               time.Duration // primepard's CPU time over the window
	gcBefore, gcAfter string        // primepard's output at either end
	clientAlloc       float64       // bytes the driver allocated
}

// runWindow replays whole cycles of the mix, each in a fresh seeded order,
// for at least cfg.Seconds (timePasses), checking every response and
// probing the host between requests.
func runWindow(d *daemon, classes []dclass, rng *rand.Rand, rec *recorder, req *int64, cfg config) (window, error) {
	var w window
	var err error
	if w.before, err = d.stats(); err != nil {
		return w, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return w, err
	}
	w.gcBefore = d.out.String()
	a0, side := readProc().allocBytes, cfg.Probe.allocated()
	w.passes = timePasses(rec, cfg.Probe, cfg.Seconds, func() int {
		reqs := cycle(classes, rng)
		for _, r := range reqs {
			*req++
			sp := rec.begin("http.POST "+r.class, -1, *req)
			w.outs = append(w.outs, d.send(r, cfg.Log))
			rec.end(sp)
			w.reqs = append(w.reqs, r)
			cfg.Probe.maybe()
		}
		return len(reqs)
	})
	w.clientAlloc = readProc().allocBytes - a0 - (cfg.Probe.allocated() - side)
	w.gcAfter = d.out.String()
	cpu1, err := d.cpuTime()
	if err != nil {
		return w, err
	}
	w.cpu = cpu1 - cpu0
	w.after, err = d.stats()
	return w, err
}

// daemonSetupReps is how many timed restarts setup_s is the median of.
const daemonSetupReps = 5

// runDaemonWarm runs the daemon-warm workload (README.md, "daemon-warm").
func runDaemonWarm(cfg config, res *result, rec *recorder) error {
	classes, err := daemonMix(cfg)
	if err != nil {
		return err
	}
	if cfg.Primepard == "" {
		return fmt.Errorf("-primepard is required")
	}
	if err := os.MkdirAll(cfg.buildDir(), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(cfg.buildDir(), "daemon-warm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	snapDir := filepath.Join(tmp, "snapshot")

	// Prep (untimed): plan every distinct request cold, then SIGTERM makes
	// primepard write its PPSC snapshot.
	t := time.Now()
	prep, err := startDaemon(cfg, snapDir, runtime.NumCPU())
	if err != nil {
		return err
	}
	for _, r := range distinct(classes) {
		if o := prep.send(r, cfg.Log); !o.ok {
			prep.kill()
			return fmt.Errorf("prep request %s %s failed", r.class, r.model)
		}
	}
	if err := prep.stop(); err != nil {
		return err
	}
	snapBytes, err := snapshotRead(snapDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Log, "perfbench: prep %.1fs, snapshot %.0f MB\n", time.Since(t).Seconds(), float64(snapBytes)/1e6)

	// setup_s: restart on the snapshot until /v1/healthz answers.
	var extraEnv []string
	if cfg.Trace {
		extraEnv = append(extraEnv, "GODEBUG=gctrace=1")
	}
	var setup []float64
	var d *daemon
	for i := 0; i < daemonSetupReps; i++ {
		if d != nil {
			d.kill()
		}
		cfg.Probe.maybe()
		t := time.Now()
		if d, err = startDaemon(cfg, snapDir, 1, extraEnv...); err != nil {
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	// Re-warm (untimed): one pass rebuilds the in-memory table tier the
	// snapshot does not hold.
	rng := rand.New(rand.NewSource(cfg.Seed))
	t = time.Now()
	for _, r := range cycle(classes, rng) {
		if o := d.send(r, cfg.Log); !o.ok {
			return fmt.Errorf("re-warm request %s %s failed", r.class, r.model)
		}
	}
	rewarm := time.Since(t).Seconds()

	var req int64
	w, err := runWindow(d, classes, rng, rec, &req, cfg)
	if err != nil {
		return err
	}
	logClasses(cfg.Log, w)
	res.Attempted = len(w.outs)
	for _, o := range w.outs {
		if !o.ok {
			res.Failed++
		}
	}
	n := float64(len(w.outs))
	if !cfg.Trace {
		var lat, costs []float64
		for _, o := range w.outs {
			lat = append(lat, o.latencyMS)
			costs = append(costs, o.costs...)
		}
		res.set("setup_s", "s", median(setup))
		res.set("op_ms_p50", "ms", median(lat))
		res.set("op_ms_p90", "ms", quantile(lat, 0.9))
		res.set("ops_per_s", "1/s", w.opsPerS())
		res.set("success_rate", "ratio", float64(res.Attempted-res.Failed)/n)
		res.set("alloc_mb_per_op", "MB", w.clientAlloc/1e6/n)
		rss, err := vmHWM(d.pid())
		if err != nil {
			return err
		}
		res.set("peak_rss_mb", "MB", rss)
		res.set("plan_cost_geomean", "model_s", geomean(costs))
		return nil
	}

	var serverMS, overheadMS, kb []float64
	var tables float64
	var cl coreLayer
	planMS := map[int][]float64{}
	var pipeMS, pipeSelf, stagePlans, schedules, cfgPruned, cfgSeen, cutsSkipped []float64
	for i, o := range w.outs {
		serverMS = append(serverMS, o.serverMS)
		overheadMS = append(overheadMS, o.latencyMS-o.serverMS)
		kb = append(kb, float64(o.bytes)/1e3)
		tables += float64(o.tables)
		for _, p := range o.plans {
			cl.add(p.Stats)
		}
		cl.ops++
		r := w.reqs[i]
		switch {
		case strings.HasPrefix(r.class, "plan@"):
			planMS[r.devices] = append(planMS[r.devices], o.serverMS)
		case strings.HasPrefix(r.class, "pipe@") && len(o.plans) == 1 && o.plans[0].Pipeline != nil:
			st := o.plans[0].Pipeline.Stats
			pipeMS = append(pipeMS, o.serverMS)
			pipeSelf = append(pipeSelf, o.serverMS-ms(st.Search.TotalTime))
			stagePlans = append(stagePlans, float64(st.StagePlans))
			schedules = append(schedules, float64(st.SchedulesSimulated))
			cfgPruned = append(cfgPruned, float64(st.ConfigsPruned))
			cfgSeen = append(cfgSeen, float64(st.ConfigsConsidered))
			cutsSkipped = append(cutsSkipped, float64(st.CutsBoundSkipped))
		}
	}
	for _, dv := range mixPlanDevices {
		res.set(fmt.Sprintf("core.plan_ms.d%d", dv), "ms", median(planMS[dv]))
	}
	cl.set(res)
	res.set("pipeline.plan3d_ms", "ms", median(pipeMS))
	res.set("pipeline.self_ms", "ms", median(pipeSelf))
	res.set("pipeline.stage_plans", "count", mean(stagePlans))
	res.set("pipeline.schedules_simulated", "count", mean(schedules))
	res.set("pipeline.configs_pruned_ratio", "ratio", ratio(sum(cfgPruned), sum(cfgSeen)))
	res.set("pipeline.cuts_bound_skipped_ratio", "ratio", ratio(sum(cutsSkipped), sum(cutsSkipped)+sum(schedules)))
	res.set("primepard.server_ms_p50", "ms", median(serverMS))
	res.set("primepard.overhead_ms_p50", "ms", median(overheadMS))
	res.set("primepard.response_kb", "kB", mean(kb))
	before, after := w.before, w.after
	served := float64(after.PlansServed + after.SweepsServed - before.PlansServed - before.SweepsServed)
	res.set("primepard.warm_served_ratio", "ratio", ratio(float64(after.WarmServed-before.WarmServed), served))
	res.set("primepard.shed_total", "count", float64(after.shed()-before.shed()))
	res.set("primepard.tables_built_per_req", "count", tables/n)
	res.set("primepard.rewarm_s", "s", rewarm)
	c0, gcCPU0 := gcLines(w.gcBefore)
	c1, gcCPU1 := gcLines(w.gcAfter)
	res.set("proc.cpu_ms_per_op", "ms", ms(w.cpu)/n)
	res.set("proc.gc_cycles_per_op", "count", float64(c1-c0)/n)
	res.set("proc.gc_cpu_fraction", "ratio", ratio(gcCPU1-gcCPU0, ms(w.cpu)))
	u, tr := w.opsPerSWhere(false), w.opsPerSWhere(true)
	res.set("trace.untraced_ops_per_s", "1/s", u)
	res.set("trace.traced_ops_per_s", "1/s", tr)
	res.set("trace.overhead_ratio", "ratio", u/tr-1)
	d.kill()
	d = nil

	// In-process probes on the daemon's own snapshot, after primepard is
	// gone so the two never hold it in memory at once: Load, a warm
	// EstimatePlan per single-plan request, and Save.
	info, err := os.Stat(filepath.Join(snapDir, core.CacheFileName))
	if err != nil {
		return err
	}
	res.set("core.snapshot_mb", "MB", float64(info.Size())/1e6)
	cache := core.NewSearchCache()
	req++
	sp := rec.begin("core.SearchCache.Load", -1, req)
	if err := cache.Load(snapDir); err != nil {
		return fmt.Errorf("load snapshot: %w", err)
	}
	res.set("core.cache_load_s", "s", rec.end(sp).Seconds())
	for _, c := range classes {
		for _, r := range c.items {
			if r.path != "/v1/plan" || strings.HasPrefix(r.class, "pipe@") {
				continue
			}
			cfgM, err := model.ByName(r.model)
			if err != nil {
				return err
			}
			g, err := model.BuildBlock(cfgM)
			if err != nil {
				return err
			}
			clu, err := device.NewCluster(r.devices, devicesPerNode, device.V100Profile())
			if err != nil {
				return err
			}
			m := cost.NewModel(clu)
			m.Alpha = alpha
			o := core.NewOptimizer(m)
			o.Cache = cache
			req++
			sp := rec.begin("core.EstimatePlan", -1, req)
			if _, err := o.EstimatePlan(core.PlanRequest{Graph: g, Layers: cfgM.Layers}); err != nil {
				return fmt.Errorf("EstimatePlan %s@%d: %w", r.model, r.devices, err)
			}
			rec.end(sp)
		}
	}
	res.set("core.estimate_ms", "ms", median(rec.durations("core.EstimatePlan")))
	req++
	sp = rec.begin("core.SearchCache.Save", -1, req)
	if err := cache.Save(filepath.Join(tmp, "resave")); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	res.set("core.cache_save_s", "s", rec.end(sp).Seconds())
	notRun(res, perLayerUnits)
	return nil
}
